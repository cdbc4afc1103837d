"""Command-line entry point: ``repro-check <subcommand>``.

Four subcommands, all exiting non-zero when something is wrong:

* ``run`` — simulate paper kernels across machine configurations with
  the invariant sanitizer armed; report any violations.
* ``fuzz`` — differential fuzzing over random kernels (evaluator vs
  the array core vs the object loop, over all configurations),
  shrinking failures to minimal reproducers, optionally persisted to
  a corpus directory; with
  ``--cross-backend`` each case instead runs across every registered
  simulation backend (grid, simd, vector, superscalar, stream).
* ``replay`` — re-check every corpus reproducer (regression replay).
* ``faults`` — the fault-injection suite: corrupted cache entries, a
  worker that dies holding claims, mid-sweep interrupts.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

ALL_CONFIGS = ["baseline", "S", "S-O", "S-O-D", "M", "M-D"]


def _cmd_run(args) -> int:
    from ..kernels.registry import all_specs, spec
    from ..machine.config import named_config
    from ..machine.params import MachineParams
    from ..machine.processor import GridProcessor
    from .sanitizer import checking

    names = args.kernels or [s.name for s in all_specs()]
    params = MachineParams(store_capacity_lines=args.store_capacity)
    processor = GridProcessor(params)
    points = skipped = 0
    with checking(strict=args.strict) as san:
        for name in names:
            s = spec(name)
            kernel = s.kernel()
            records = s.workload(args.records, args.seed)
            for cfg in args.configs:
                config = named_config(cfg)
                if not processor.supports(kernel, config):
                    skipped += 1
                    continue
                processor.run(kernel, records, config)
                points += 1
        violations = list(san.violations)
        total = san.total
    print(
        f"repro-check run: {points} points ({len(names)} kernels x "
        f"{len(args.configs)} configs, {skipped} skipped for capacity), "
        f"{total} violation(s)",
        file=sys.stderr,
    )
    for violation in violations[:20]:
        print(f"  {violation.render()}", file=sys.stderr)
    if total > len(violations):
        print(f"  ... and {total - len(violations)} more", file=sys.stderr)
    return 1 if total else 0


def _cmd_fuzz(args) -> int:
    from .fuzz import check_case, check_case_backends, run_fuzz

    def progress(done, failing):
        if args.verbose:
            print(f"  fuzz {done}/{args.budget} ({failing} failing)",
                  file=sys.stderr)

    check = check_case_backends if args.cross_backend else check_case
    failures = run_fuzz(
        args.budget,
        start_seed=args.seed,
        corpus_dir=args.corpus,
        shrink=not args.no_shrink,
        check=check,
        progress=progress,
    )
    mode = "cross-backend " if args.cross_backend else ""
    print(
        f"repro-check fuzz: {args.budget} {mode}cases from seed "
        f"{args.seed}, {len(failures)} failure(s)"
        + (f" (reproducers in {args.corpus})" if args.corpus and failures
           else ""),
        file=sys.stderr,
    )
    for failure in failures:
        print(f"  {failure.render()}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_replay(args) -> int:
    from .fuzz import replay_corpus

    results = replay_corpus(args.corpus)
    failing = [(path, f) for path, f in results if f is not None]
    print(
        f"repro-check replay: {len(results)} corpus case(s) from "
        f"{args.corpus}, {len(failing)} still failing",
        file=sys.stderr,
    )
    for path, failure in failing:
        print(f"  {path.name}: {failure.render()}", file=sys.stderr)
    return 1 if failing else 0


def _cmd_faults(args) -> int:
    from .faults import run_fault_suite

    checks = run_fault_suite()
    for check in checks:
        print(f"  {check.render()}", file=sys.stderr)
    failed = [c for c in checks if not c.passed]
    print(
        f"repro-check faults: {len(checks)} scenario(s), "
        f"{len(failed)} failed",
        file=sys.stderr,
    )
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Simulator sanitizer: invariant checks, differential "
                    "fuzzing and fault injection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="simulate kernels with the invariant sanitizer armed")
    run.add_argument("--kernels", nargs="*", default=None,
                     help="kernel names (default: every registered kernel)")
    run.add_argument("--configs", nargs="*", default=ALL_CONFIGS,
                     choices=ALL_CONFIGS, metavar="CFG",
                     help=f"machine configurations (default: all of "
                          f"{', '.join(ALL_CONFIGS)})")
    run.add_argument("--records", type=int, default=32,
                     help="records per kernel run (default 32)")
    run.add_argument("--seed", type=int, default=7,
                     help="workload seed (default 7)")
    run.add_argument("--store-capacity", type=int, default=16,
                     help="store-buffer capacity in lines (default 16; "
                          "small values stress capacity eviction)")
    run.add_argument("--strict", action="store_true",
                     help="raise on the first violation instead of "
                          "collecting them")
    run.set_defaults(fn=_cmd_run)

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing over random kernels")
    fuzz.add_argument("--budget", type=int, default=50,
                      help="number of fuzz cases (default 50)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="first case seed (default 0)")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="directory to write shrunk reproducers into")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="keep failures at their original size")
    fuzz.add_argument("--cross-backend", action="store_true",
                      help="differential mode across every registered "
                           "simulation backend instead of the grid "
                           "engine pair")
    fuzz.add_argument("--verbose", action="store_true",
                      help="progress line per case")
    fuzz.set_defaults(fn=_cmd_fuzz)

    replay = sub.add_parser(
        "replay", help="re-check every corpus reproducer")
    replay.add_argument("--corpus", required=True, metavar="DIR",
                        help="corpus directory of case JSON files")
    replay.set_defaults(fn=_cmd_replay)

    faults = sub.add_parser(
        "faults",
        help="fault-injection suite (cache, dead worker, interrupt)")
    faults.set_defaults(fn=_cmd_faults)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
