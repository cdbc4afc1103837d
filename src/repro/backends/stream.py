"""The DMA stream driver as a registered backend.

:class:`~repro.stream.driver.StreamDriver` times a kernel over a
main-memory record stream with double-buffered DMA staging through the
SMC banks; this adapter folds its richer
:class:`~repro.stream.driver.StreamRunResult` into the common
:class:`~repro.machine.stats.RunResult` shape (the DMA accounting lands
in ``detail``) so streamed runs cache, shard and fuzz exactly like
every other backend's.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..isa.kernel import Kernel
from ..machine.config import MachineConfig
from ..machine.params import MachineParams
from ..machine.processor import GridProcessor
from ..machine.stats import RunResult
from ..stream.driver import StreamDriver
from .base import Backend, useful_ops


class StreamBackend(Backend):
    """Grid compute behind explicit DMA staging (Imagine-style SRF)."""

    name = "stream"
    uses_grid_params = True

    def supports(
        self,
        kernel: Kernel,
        config: MachineConfig,
        params: Optional[MachineParams] = None,
    ) -> bool:
        """Streaming needs the SMC morph plus grid capacity for the kernel."""
        return config.smc_stream and GridProcessor(params).supports(
            kernel, config
        )

    def fingerprint_part(self) -> str:
        """Backend name alone: MachineParams cover every DMA/SMC knob."""
        return "stream"

    def run(
        self,
        kernel: Kernel,
        records: Sequence[Sequence],
        config: MachineConfig,
        params: Optional[MachineParams] = None,
        functional: bool = False,
    ) -> RunResult:
        """Stage, compute and write back one stream; fold into RunResult."""
        streamed = StreamDriver(params).run(
            kernel, records, config, functional=functional
        )
        detail = dict(streamed.detail)
        detail.update({
            "backend": self.name,
            "compute_cycles": float(streamed.compute_cycles),
            "dma_cycles": float(streamed.dma_cycles),
            "batches": float(streamed.batches),
            "dma_hidden": 1.0 if streamed.dma_hidden else 0.0,
        })
        return RunResult(
            kernel=streamed.kernel,
            config=streamed.config,
            records=streamed.records,
            cycles=streamed.cycles,
            useful_ops=useful_ops(kernel, records),
            detail=detail,
            outputs=streamed.outputs,
        )
