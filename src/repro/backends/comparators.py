"""The classic-architecture comparators as registered backends.

Section 3's measured trio — the lock-step SIMD array
(:mod:`repro.simdsim`), the Cray-style vector machine
(:mod:`repro.vectorsim`) and Section 4.5's superscalar port of the
mechanisms (:mod:`repro.superscalar`) — each wrapped behind the
:class:`~repro.backends.base.Backend` protocol so they get run caching,
claim-row sharding, observability tagging and differential checking for
free.

Two deliberate conventions:

* The SIMD array and vector machine model *fixed* classic designs with
  their own parameter dataclasses; a
  :class:`~repro.machine.config.MachineConfig` selects grid mechanisms
  they do not have, so they accept every configuration and time it
  identically.  The config still participates in the content address
  (it is part of the request), and their ``fingerprint_part`` folds the
  comparator parameters in — which the shared ``MachineParams``
  fingerprint does not cover.
* The superscalar core *is* config-sensitive: Section 4.5's
  universality argument maps each grid mechanism onto its superscalar
  spelling (SMC streaming -> direct L2 channels, operand revitalization
  -> reservation-station operand reuse, instruction revitalization or
  local PCs -> the loop buffer, L0 data store -> a dedicated lookup
  SRAM), so a Table 5 sweep on the ``superscalar`` backend measures the
  same mechanism ablation on a conventional core.

All three execute functionally through the shared dataflow evaluator —
the same semantics the grid's block-style morphs delegate to — because
kernel *values* are architecture-independent; only the timing differs.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..isa.evaluate import evaluate_stream
from ..isa.kernel import Kernel
from ..machine.config import MachineConfig
from ..machine.params import MachineParams
from ..machine.stats import RunResult
from ..perf.fingerprint import fingerprint_backend
from ..simdsim import SimdArray, SimdParams
from ..superscalar import SuperscalarConfig, SuperscalarCore, SuperscalarParams
from ..vectorsim import VectorMachine, VectorParams
from .base import Backend


class SimdBackend(Backend):
    """Classic lock-step SIMD array (CM-2/MasPar style), simulated."""

    name = "simd"

    def __init__(self, params: Optional[SimdParams] = None):
        self.params = params or SimdParams()
        self._array = SimdArray(self.params)

    def supports(
        self,
        kernel: Kernel,
        config: MachineConfig,
        params: Optional[MachineParams] = None,
    ) -> bool:
        """Every kernel maps (one record per PE); the config is moot."""
        return True

    def fingerprint_part(self) -> str:
        """Backend name + the array's parameter dataclass."""
        return fingerprint_backend(self.name, self.params)

    def run(
        self,
        kernel: Kernel,
        records: Sequence[Sequence],
        config: MachineConfig,
        params: Optional[MachineParams] = None,
        functional: bool = False,
    ) -> RunResult:
        """Time the stream in lock-step waves (config-independent)."""
        result = self._array.run(kernel, records)
        if functional:
            result.outputs = evaluate_stream(kernel, records)
        return result


class VectorBackend(Backend):
    """Classic register-vector machine (Cray style), simulated."""

    name = "vector"

    def __init__(self, params: Optional[VectorParams] = None):
        self.params = params or VectorParams()
        self._machine = VectorMachine(self.params)

    def supports(
        self,
        kernel: Kernel,
        config: MachineConfig,
        params: Optional[MachineParams] = None,
    ) -> bool:
        """Every kernel strip-mines onto the VRF; the config is moot."""
        return True

    def fingerprint_part(self) -> str:
        """Backend name + the vector machine's parameter dataclass."""
        return fingerprint_backend(self.name, self.params)

    def run(
        self,
        kernel: Kernel,
        records: Sequence[Sequence],
        config: MachineConfig,
        params: Optional[MachineParams] = None,
        functional: bool = False,
    ) -> RunResult:
        """Time the stream in strips of ``vector_length`` records."""
        result = self._machine.run(kernel, records)
        if functional:
            result.outputs = evaluate_stream(kernel, records)
        return result


class SuperscalarBackend(Backend):
    """Wide out-of-order core with the mechanisms as options (Sec. 4.5)."""

    name = "superscalar"

    def __init__(self, params: Optional[SuperscalarParams] = None):
        self.params = params or SuperscalarParams()
        self._core = SuperscalarCore(self.params)

    @staticmethod
    def map_config(config: MachineConfig) -> SuperscalarConfig:
        """Section 4.5's mechanism correspondence, grid -> superscalar.

        SMC streaming becomes direct L2-to-FU channels, operand
        revitalization becomes reservation-station operand pinning,
        either instruction-control regime (revitalization broadcasts or
        local PCs) becomes the loop buffer, and the L0 data store
        becomes a dedicated lookup SRAM.  The mapped configuration keeps
        the grid name (``S-O``, ``M-D``, ...) so sweep reports line up
        column-for-column with the grid's Table 5 runs.
        """
        return SuperscalarConfig(
            name=config.name,
            smc_channels=config.smc_stream,
            operand_reuse=config.operand_revitalize,
            loop_buffer=config.inst_revitalize or config.local_pc,
            l0_table=config.l0_data,
        )

    def supports(
        self,
        kernel: Kernel,
        config: MachineConfig,
        params: Optional[MachineParams] = None,
    ) -> bool:
        """Every mechanism combination has a superscalar spelling."""
        return True

    def fingerprint_part(self) -> str:
        """Backend name + the core's parameter dataclass."""
        return fingerprint_backend(self.name, self.params)

    def run(
        self,
        kernel: Kernel,
        records: Sequence[Sequence],
        config: MachineConfig,
        params: Optional[MachineParams] = None,
        functional: bool = False,
    ) -> RunResult:
        """Time the stream on the OoO core under the mapped mechanisms."""
        result = self._core.run(kernel, records, self.map_config(config))
        if functional:
            result.outputs = evaluate_stream(kernel, records)
        return result
