"""Cycle-level model of the reconfigurable TRIPS-style grid processor.

The substrate (an 8×8 mesh of single-issue ALU nodes with reservation
stations and a routed operand network) plus the paper's six universal
mechanisms, morphable at run time through :class:`MachineConfig`.
"""

from .params import PAPER_BASELINE, MachineParams
from .config import TABLE5_CONFIGS, MachineConfig, all_configs, named_config
from .stats import RunResult, WindowTiming, harmonic_mean
from .placement import (
    Placement,
    max_unroll,
    place_iterations,
    region_width,
)
from .mapping import (
    MappedWindow,
    map_window,
    overhead_per_iteration,
    rebase_window,
    window_iterations,
)
from .window_cache import SHARED_WINDOW_CACHE, MappedWindowCache
from .dataflow_engine import DataflowEngine, DeadlockError
from .mimd_engine import MimdCapacityError, MimdEngine, rolled_instruction_count
from .revitalize import RevitalizationController, RevitalizeStateError
from .l0store import L0CapacityError, L0DataStore
from .processor import GridProcessor, run_kernel
from .visualize import render_array, render_placement, render_timeline, render_window_summary

__all__ = [
    "PAPER_BASELINE",
    "MachineParams",
    "TABLE5_CONFIGS",
    "MachineConfig",
    "all_configs",
    "named_config",
    "RunResult",
    "WindowTiming",
    "harmonic_mean",
    "Placement",
    "max_unroll",
    "place_iterations",
    "region_width",
    "MappedWindow",
    "map_window",
    "overhead_per_iteration",
    "rebase_window",
    "window_iterations",
    "SHARED_WINDOW_CACHE",
    "MappedWindowCache",
    "DataflowEngine",
    "DeadlockError",
    "MimdCapacityError",
    "MimdEngine",
    "rolled_instruction_count",
    "RevitalizationController",
    "RevitalizeStateError",
    "L0CapacityError",
    "L0DataStore",
    "GridProcessor",
    "run_kernel",
    "render_array",
    "render_placement",
    "render_timeline",
    "render_window_summary",
]
