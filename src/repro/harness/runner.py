"""Command-line entry point: ``repro-experiments [name ...]``.

Regenerates the paper's tables and figures on the simulator.  With no
arguments, runs everything; otherwise accepts any of: table1 table2
table3 table4 table5 table6 figure1 figure2 figure2_measured figure5.
``--backend`` selects the machine model (any :mod:`repro.backends`
registry name) the simulated experiments run on.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional

from ..backends import backend_names, get as get_backend
from ..machine.fastcore import VALID_MODES, active_core, set_engine_core
from ..machine.params import MachineParams
from ..obs.ledger import LEDGER, add_ledger_arguments, configure_from_args
from ..obs.progress import progress_ticker
from . import experiments
from .profiling import add_profile_arguments, profiled

#: Experiments needing a simulated sweep (figure2_measured is opt-in:
#: it is registered but kept out of the no-argument default set so bare
#: invocations keep their historical output).
_DEFAULT_NAMES = (
    "table1", "table2", "table3", "table4", "table5", "table6",
    "figure1", "figure2", "figure3_4", "figure5",
)


def _registry(ctx: experiments.ExperimentContext) -> Dict[str, Callable[[], object]]:
    return {
        "table1": experiments.table1,
        "table2": experiments.table2,
        "table3": experiments.table3,
        "table4": lambda: experiments.table4(ctx),
        "table5": experiments.table5,
        "table6": lambda: experiments.table6(ctx),
        "figure1": experiments.figure1,
        "figure2": experiments.figure2,
        "figure2_measured": lambda: experiments.figure2_measured(ctx),
        "figure3_4": lambda: experiments.figure3_4(ctx.params),
        "figure5": lambda: experiments.figure5(ctx),
    }


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the tables and figures of 'Universal Mechanisms "
            "for Data-Parallel Architectures' (MICRO 2003)."
        ),
    )
    parser.add_argument(
        "experiments", nargs="*",
        help="which experiments to run (default: all)",
    )
    parser.add_argument(
        "--records", type=int, default=512,
        help="records per kernel run (default 512; large kernels use 1/4)",
    )
    parser.add_argument(
        "--backend", default="grid", choices=backend_names(),
        help="machine model the simulated experiments run on "
             "(default grid)",
    )
    parser.add_argument(
        "--rows", type=int, default=None, metavar="N",
        help="grid rows (default 8; grid-geometry backends only)")
    parser.add_argument(
        "--cols", type=int, default=None, metavar="N",
        help="grid columns (default 8; grid-geometry backends only)")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="on-disk run cache directory (e.g. .repro_cache); repeated "
             "invocations replay cached simulation points",
    )
    parser.add_argument(
        "--engine-core", default=None, choices=VALID_MODES,
        help="engine-core selection (repro.machine.fastcore): 'array' "
             "for the numpy fast paths, 'object' for the reference "
             "engines (default: REPRO_ENGINE_CORE or 'array'); stdout "
             "is byte-identical either way",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print a live progress line (completed/total, rate, ETA, "
             "in-flight points) to stderr while sweeps run",
    )
    add_ledger_arguments(parser)
    add_profile_arguments(parser)
    args = parser.parse_args(argv)

    if args.engine_core is not None:
        set_engine_core(args.engine_core)
    configure_from_args(args)
    backend = get_backend(args.backend)
    if not backend.uses_grid_params and (
            args.rows is not None or args.cols is not None):
        # Grid-only geometry on a fixed comparator: warn and ignore, so
        # the flags can never silently alias two different sweeps.
        print(
            f"warning: --rows/--cols shape the grid substrate; the "
            f"'{backend.name}' backend models a fixed machine and "
            f"ignores them",
            file=sys.stderr,
        )
    params = MachineParams(
        rows=args.rows if args.rows is not None else 8,
        cols=args.cols if args.cols is not None else 8,
    )
    ctx = experiments.ExperimentContext(
        params=params,
        records=args.records,
        large_kernel_records=max(16, args.records // 4),
        cache_dir=args.cache_dir,
        backend=backend,
    )
    registry = _registry(ctx)
    names = args.experiments or list(_DEFAULT_NAMES)
    unknown = [n for n in names if n not in registry]
    if unknown:
        parser.error(
            f"unknown experiment(s) {unknown}; choose from {sorted(registry)}"
        )
    def run_all() -> None:
        for name in names:
            if args.profile:
                with profiled(label=name, top=args.profile_top):
                    result = registry[name]()
            else:
                result = registry[name]()
            print(result.render())
            print()

    if args.progress:
        # Ticker lines go to stderr only; stdout stays byte-identical.
        with progress_ticker(ctx.progress_snapshot):
            run_all()
    else:
        run_all()
    # stderr, like --profile: stdout stays byte-identical across
    # cold / cache-replay runs (timings and hit rates vary).
    print(run_summary(ctx), file=sys.stderr)
    return 0


def run_summary(ctx: experiments.ExperimentContext) -> str:
    """End-of-run accounting: engine core, points and run-cache traffic."""
    stats = ctx.cache.stats
    lines = [
        "run summary",
        f"  engine core      : {active_core()}",
        f"  simulated points : {ctx.simulated_points}"
        f" ({sum(ctx.point_seconds.values()):.3f}s simulating)",
        f"  copied points    : {ctx.copied_points}"
        " (a job-mate simulated the same machine)",
        f"  run cache        : {stats.hits} hits / {stats.misses} misses"
        f" ({stats.hit_rate:.1%} hit rate, {stats.stores} stores)",
    ]
    if LEDGER.enabled and LEDGER.path is not None:
        lines.append(f"  run ledger       : {LEDGER.path} (see repro-perf)")
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
