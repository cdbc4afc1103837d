"""The reconfigurable grid processor as a registered backend.

A thin adapter: :class:`~repro.machine.processor.GridProcessor` already
speaks the backend vocabulary (``supports``, ``run`` returning a
:class:`~repro.machine.stats.RunResult`); this class binds it to the
registry so the grid is resolved the same way as every comparator.  Its
``fingerprint_part`` is the fingerprint module's default — addresses
computed before the backend layer existed (and by code that never names
a backend) are grid addresses.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

from ..isa.kernel import Kernel
from ..machine.config import MachineConfig
from ..machine.params import MachineParams
from ..machine.processor import GridProcessor
from ..machine.stats import RunResult
from ..perf.fingerprint import DEFAULT_BACKEND_PART
from .base import Backend


def _constant_attributes(kernel: Kernel) -> Tuple[bool, bool]:
    """Whether the kernel has (lookup tables, scalar constants).

    Memoized on the kernel instance, which is never mutated once built.
    """
    attributes = getattr(kernel, "_constant_attributes", None)
    if attributes is None:
        attributes = (bool(kernel.tables), bool(kernel.scalar_constants()))
        kernel._constant_attributes = attributes  # type: ignore[attr-defined]
    return attributes


class GridBackend(Backend):
    """TRIPS-style grid processor with the universal DLP mechanisms."""

    name = "grid"
    uses_grid_params = True

    def supports(
        self,
        kernel: Kernel,
        config: MachineConfig,
        params: Optional[MachineParams] = None,
    ) -> bool:
        """Whether the kernel fits the configuration's storage structures."""
        return GridProcessor(params).supports(kernel, config)

    def fingerprint_part(self) -> str:
        """The default backend part: MachineParams cover every grid knob."""
        return DEFAULT_BACKEND_PART

    def simulated_config(
        self, kernel: Kernel, config: MachineConfig
    ) -> MachineConfig:
        """``config`` without the mechanisms ``kernel`` has no use for.

        Table 3 ties the L0 data store to indexed constants and operand
        revitalization to scalar constants, and the grid reads its
        flags for nothing else.  ``l0_data`` is read only for ``LUT``
        instructions and the table-entry count, so it is cleared when
        the kernel has no lookup tables.  ``operand_revitalize`` is
        read only for ``Const`` operands and their register-file reads,
        so it is cleared when the kernel has no scalar constants.
        """
        tables, constants = _constant_attributes(kernel)
        l0_data = config.l0_data and tables
        operand_revitalize = config.operand_revitalize and constants
        if (l0_data == config.l0_data
                and operand_revitalize == config.operand_revitalize):
            return config
        return dataclasses.replace(
            config, l0_data=l0_data, operand_revitalize=operand_revitalize
        )

    def run(
        self,
        kernel: Kernel,
        records: Sequence[Sequence],
        config: MachineConfig,
        params: Optional[MachineParams] = None,
        functional: bool = False,
    ) -> RunResult:
        """Simulate a steady-state run on the grid (see GridProcessor.run).

        Constructing the processor per run is cheap: steady windows are
        memoized in the process-wide
        :data:`~repro.machine.window_cache.SHARED_WINDOW_CACHE`, so
        repeated runs skip mapping and both block passes exactly as a
        long-lived processor instance would.
        """
        return GridProcessor(params).run(kernel, records, config, functional)
