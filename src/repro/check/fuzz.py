"""Differential fuzzing: random kernels through every execution path.

Each :class:`FuzzCase` is a deterministic point in the generator space of
:mod:`repro.isa.random_kernels` — a seed plus the generator knobs plus a
workload size.  :func:`check_case` runs the case through every engine the
simulator has, with the invariant sanitizer armed and a deliberately
tiny store buffer (``store_capacity_lines=2``) so capacity eviction — a
path no paper kernel reaches at the default depth of 16 — is exercised
on ordinary fuzz workloads:

* the functional evaluator (the semantics oracle);
* the array core vs the object loop of the dataflow engine over every
  block-style configuration (baseline, S, S-O, S-O-D), each mapping its
  own window with its own placement — timings, stats bit-identical;
* the one-pass rule: for each block-style configuration whose window
  cannot touch the L1, under each core, the warm pass alone at offset
  ``U`` (``GridProcessor.steady_one_pass``) gives the steady window and
  snapshot of the cold + rebase + warm procedure
  (``GridProcessor.steady_two_pass``) — a check the cross-core stages
  cannot make, since both cores take the same pass rule;
* the array core vs the object loop of the MIMD record timing (M, M-D)
  where the kernel fits, plus MIMD functional output vs the oracle;
* the grid's simulated-configuration rule: under each core, every
  configuration the rule changes gives the same result document (or
  the same error) as the configuration it stands for;
* a :class:`~repro.perf.cache.RunCache` round trip of the result.

:func:`check_case_backends` is the cross-backend differential mode: the
same case runs on every :mod:`repro.backends` registry entry (grid,
simd, vector, superscalar, stream), checking determinism, the
architecture-independent useful-operation count, the backend identity
tag, functional outputs against the evaluator oracle, and the run-cache
JSON round trip.  ``repro-check fuzz --cross-backend`` selects it.

Failures are greedily shrunk (:func:`shrink_case`) to a minimal still-
failing reproducer, and can be persisted to / replayed from a corpus
directory of JSON files so a bug found once stays a regression test
forever (:func:`replay_corpus`).
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .sanitizer import SANITIZER, checking

#: Store-buffer depth used for fuzzing: small enough that ordinary fuzz
#: workloads overflow it and exercise FIFO capacity eviction.
STRESS_STORE_CAPACITY = 2

CORPUS_SCHEMA = 1


@dataclasses.dataclass(frozen=True)
class FuzzCase:
    """One deterministic differential-fuzz point (generator knobs + workload)."""

    seed: int
    size: int = 20
    record_in: int = 4
    record_out: int = 2
    integer: bool = False
    n_constants: int = 2
    table_size: int = 0
    space_size: int = 0
    variable_loop_trips: int = 0
    records: int = 6
    iterations: int = 4

    def kernel(self):
        """Build the case's kernel (deterministic in the case fields)."""
        from ..isa.random_kernels import RandomKernelConfig, random_kernel

        return random_kernel(self.seed, RandomKernelConfig(
            size=self.size,
            record_in=self.record_in,
            record_out=self.record_out,
            integer=self.integer,
            n_constants=self.n_constants,
            table_size=self.table_size,
            space_size=self.space_size,
            variable_loop_trips=self.variable_loop_trips,
        ))

    def record_stream(self, kernel=None) -> List[list]:
        """The case's input records (deterministic in the case fields)."""
        from ..isa.random_kernels import random_records

        return random_records(
            kernel if kernel is not None else self.kernel(),
            self.records, self.seed, integer=self.integer,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "FuzzCase":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in doc.items() if k in fields})


@dataclasses.dataclass(frozen=True)
class FuzzFailure:
    """A case that diverged, crashed, or tripped the sanitizer."""

    case: FuzzCase
    stage: str       # "evaluate", "dataflow:S-O", "mimd:M", "sanitizer", ...
    detail: str
    violations: Tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "schema": CORPUS_SCHEMA,
            "case": self.case.to_dict(),
            "stage": self.stage,
            "detail": self.detail,
            "violations": list(self.violations),
        }

    def render(self) -> str:
        return (f"seed={self.case.seed} stage={self.stage}: {self.detail}"
                + (f" ({len(self.violations)} violation(s))"
                   if self.violations else ""))


def case_from_seed(seed: int) -> FuzzCase:
    """The default fuzz schedule: knobs derived from the seed alone."""
    return FuzzCase(
        seed=seed,
        size=10 + seed % 30,
        record_in=2 + seed % 5,
        record_out=1 + seed % 3,
        integer=seed % 2 == 0,
        n_constants=seed % 4,
        table_size=16 if seed % 3 == 0 else 0,
        space_size=32 if seed % 5 == 0 else 0,
        variable_loop_trips=4 if seed % 7 == 0 else 0,
        records=2 + seed % 6,
        iterations=1 + seed % 6,
    )


def _values_match(a, b) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def _outputs_match(got: Sequence[Sequence], want: Sequence[Sequence]) -> bool:
    if len(got) != len(want):
        return False
    for g_row, w_row in zip(got, want):
        if len(g_row) != len(w_row):
            return False
        if not all(_values_match(g, w) for g, w in zip(g_row, w_row)):
            return False
    return True


def _stress_params():
    from ..machine.params import MachineParams

    return MachineParams(store_capacity_lines=STRESS_STORE_CAPACITY)


def _outcome(processor, kernel, records, config):
    """A grid run's result document, or the error it raised."""
    from ..perf.cache import run_result_to_dict

    try:
        return run_result_to_dict(processor.run(kernel, records, config))
    except Exception as exc:
        return type(exc).__name__, str(exc)


def check_case(case: FuzzCase, params=None) -> Optional[FuzzFailure]:
    """Run one case through every path; None means it survived clean."""
    from ..backends import get
    from ..isa.evaluate import evaluate_stream
    from ..machine.config import MachineConfig
    from ..machine.dataflow_engine import DataflowEngine
    from ..machine.fastcore import using_core
    from ..machine.mapping import map_window, touches_l1
    from ..machine.mimd_engine import MimdEngine
    from ..machine.processor import GridProcessor
    from ..memory.system import MemorySystem
    from ..perf.cache import RunCache

    if params is None:
        params = _stress_params()
    kernel = case.kernel()
    records = case.record_stream(kernel)

    def fresh_memory(config):
        memory = MemorySystem(params.rows, params.memory_timings())
        memory.configure_smc(config.smc_stream)
        return memory

    with checking() as san:
        def fail(stage, detail):
            return FuzzFailure(case, stage, detail,
                               tuple(v.render() for v in san.violations))

        try:
            oracle = evaluate_stream(kernel, records)
        except Exception as exc:  # the oracle must accept any valid kernel
            return FuzzFailure(case, "evaluate", repr(exc))

        block_configs = [MachineConfig.baseline(), MachineConfig.S(),
                         MachineConfig.S_O(), MachineConfig.S_O_D()]
        iterations = max(1, min(case.iterations, case.records))
        for config in block_configs:
            stage = f"dataflow:{config.name}"
            try:
                timings = []
                for core in ("array", "object"):
                    with using_core(core):
                        engine = DataflowEngine(
                            map_window(kernel, config, params,
                                       iterations=iterations),
                            fresh_memory(config), seed=1)
                        timings.append((engine, engine.run()))
                (fast, t_fast), (reference, t_ref) = timings
            except Exception as exc:
                return fail(stage, f"crash: {exc!r}")
            if t_fast != t_ref:
                return fail(stage, "fast/reference window timings diverge")
            if fast.stats != reference.stats:
                return fail(stage, "fast/reference engine stats diverge")

        processor = GridProcessor(params)
        for config in block_configs:
            if touches_l1(kernel, config):
                continue
            stage = f"one-pass:{config.name}"
            for core in ("array", "object"):
                try:
                    with using_core(core):
                        two = processor.steady_two_pass(map_window(
                            kernel, config, params, iterations=iterations))
                        one = processor.steady_one_pass(map_window(
                            kernel, config, params, iterations=iterations,
                            record_offset=iterations))
                except Exception as exc:
                    return fail(stage, f"{core} core: crash: {exc!r}")
                if (one != two
                        or list(one[1].items()) != list(two[1].items())):
                    return fail(stage, f"{core} core: the one-pass steady "
                                       "window differs from the two-pass one")

        for config in (MachineConfig.M(), MachineConfig.M_D()):
            if not processor.supports(kernel, config):
                continue
            stage = f"mimd:{config.name}"
            try:
                runs = []
                for core in ("array", "object"):
                    with using_core(core):
                        engine = MimdEngine(kernel, config, params,
                                            fresh_memory(config))
                        runs.append((engine, engine.run(records)))
                (fast, r_fast), (reference, r_ref) = runs
            except Exception as exc:
                return fail(stage, f"crash: {exc!r}")
            if r_fast != r_ref or fast.stats != reference.stats:
                return fail(stage, "fast/reference record loops diverge")
            functional = MimdEngine(kernel, config, params,
                                    fresh_memory(config), functional=True)
            outputs = functional.run(records).outputs
            if not _outputs_match(outputs, oracle):
                return fail(stage, "functional outputs disagree with the "
                                   "evaluator oracle")

        grid = get("grid")
        for config in block_configs + [MachineConfig.M(), MachineConfig.M_D()]:
            simulated = grid.simulated_config(kernel, config)
            if simulated == config:
                continue
            for core in ("array", "object"):
                with using_core(core):
                    if (_outcome(processor, kernel, records, simulated)
                            != _outcome(processor, kernel, records, config)):
                        return fail(f"simulated-config:{config.name}",
                                    f"{core} core: the simulated "
                                    "configuration's result differs")

        try:
            result = processor.run(kernel, records, MachineConfig.S_O_D())
        except Exception as exc:
            return fail("processor", f"crash: {exc!r}")
        # put() under an armed sanitizer performs the JSON round-trip
        # fidelity check (``cache.round_trip``).
        RunCache().put(f"fuzz{case.seed:08x}", result)

        if san.total:
            return fail("sanitizer", f"{san.total} invariant violation(s)")
    return None


def check_case_backends(case: FuzzCase, params=None) -> Optional[FuzzFailure]:
    """Run one case across every registered backend; None means clean.

    The differential here is architectural, not engine-level: each
    backend times the same (kernel, records) under a configuration it
    supports, and must (a) be deterministic, (b) stamp its identity tag,
    (c) agree with the architecture-independent useful-operation count
    every simulator implements independently, (d) produce functional
    outputs matching the evaluator oracle, and (e) survive the run-cache
    JSON round trip (checked by ``put`` under the armed sanitizer).
    """
    from ..backends import backend_names, dispatch, get, useful_ops
    from ..isa.evaluate import evaluate_stream
    from ..machine.config import MachineConfig
    from ..perf.cache import RunCache

    if params is None:
        params = _stress_params()
    kernel = case.kernel()
    records = case.record_stream(kernel)
    # Simplest-capable-first; the SMC members keep the stream backend in
    # play (it rejects non-streaming configurations by contract).
    candidates = (MachineConfig.S_O_D(), MachineConfig.S(),
                  MachineConfig.baseline())

    with checking() as san:
        def fail(stage, detail):
            return FuzzFailure(case, stage, detail,
                               tuple(v.render() for v in san.violations))

        try:
            oracle = evaluate_stream(kernel, records)
        except Exception as exc:  # the oracle must accept any valid kernel
            return FuzzFailure(case, "evaluate", repr(exc))
        want_useful = useful_ops(kernel, records)

        for name in backend_names():
            backend = get(name)
            config = next(
                (c for c in candidates
                 if backend.supports(kernel, c, params)),
                None,
            )
            if config is None:
                continue
            stage = f"backend:{name}"
            try:
                first = dispatch(backend, kernel, records, config, params,
                                 functional=True)
                second = dispatch(backend, kernel, records, config, params,
                                  functional=True)
            except Exception as exc:
                return fail(stage, f"crash: {exc!r}")
            if first != second:
                return fail(stage, "nondeterministic under a fixed case")
            if first.detail.get("backend") != name:
                return fail(stage, "result is missing its backend "
                                   "identity tag")
            if first.useful_ops != want_useful:
                return fail(stage, "useful-operation accounting disagrees "
                                   "with the architecture-independent count")
            if first.outputs is None:
                return fail(stage, "functional run produced no outputs")
            if not _outputs_match(first.outputs, oracle):
                return fail(stage, "functional outputs disagree with the "
                                   "evaluator oracle")
            # put() under an armed sanitizer performs the JSON round-trip
            # fidelity check (``cache.round_trip``).
            RunCache().put(f"fuzz-{name}-{case.seed:08x}", first)

        if san.total:
            return fail("sanitizer", f"{san.total} invariant violation(s)")
    return None


# ---- shrinking -----------------------------------------------------------


def _reductions(case: FuzzCase) -> List[FuzzCase]:
    """Candidate simpler cases, most aggressive first."""
    out: List[FuzzCase] = []

    def reduced(**changes):
        candidate = dataclasses.replace(case, **changes)
        if candidate != case:
            out.append(candidate)

    reduced(variable_loop_trips=0)
    reduced(table_size=0)
    reduced(space_size=0)
    reduced(n_constants=0)
    reduced(records=max(1, case.records // 2))
    reduced(records=max(1, case.records - 1))
    reduced(iterations=max(1, case.iterations // 2))
    reduced(size=max(1, case.size // 2))
    reduced(size=max(1, case.size - 1))
    reduced(record_in=max(1, case.record_in // 2))
    reduced(record_out=max(1, case.record_out // 2))
    return out


def shrink_case(
    failure: FuzzFailure,
    check: Callable[[FuzzCase], Optional[FuzzFailure]] = check_case,
    max_checks: int = 64,
) -> FuzzFailure:
    """Greedily minimize a failing case while it still fails.

    Any failure of a reduced case counts (the stage may legitimately
    shift as the case shrinks); the search stops when no single
    reduction still fails or the check budget runs out.
    """
    best = failure
    checks = 0
    improved = True
    while improved and checks < max_checks:
        improved = False
        for candidate in _reductions(best.case):
            if checks >= max_checks:
                break
            checks += 1
            reduced = check(candidate)
            if reduced is not None:
                best = reduced
                improved = True
                break
    return best


# ---- corpus --------------------------------------------------------------


def save_failure(corpus_dir: Union[str, Path], failure: FuzzFailure) -> Path:
    """Persist a (shrunk) failure as a replayable corpus JSON file."""
    corpus = Path(corpus_dir)
    corpus.mkdir(parents=True, exist_ok=True)
    slug = failure.stage.replace(":", "-").replace("/", "-")
    path = corpus / f"case-{failure.case.seed}-{slug}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(failure.to_dict(), fh, indent=2, sort_keys=True)
    return path


def load_case(path: Union[str, Path]) -> FuzzCase:
    """Read a corpus JSON file back into its :class:`FuzzCase`."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return FuzzCase.from_dict(doc["case"] if "case" in doc else doc)


def replay_corpus(
    corpus_dir: Union[str, Path],
    check: Callable[[FuzzCase], Optional[FuzzFailure]] = check_case,
) -> List[Tuple[Path, Optional[FuzzFailure]]]:
    """Re-check every corpus case; an entry still failing is a live bug.

    Returns ``(path, failure-or-None)`` per JSON file, sorted by name.
    A healthy tree replays its whole corpus to ``None`` — each file
    pins a bug that was found by fuzzing and has since been fixed.
    """
    results: List[Tuple[Path, Optional[FuzzFailure]]] = []
    for path in sorted(Path(corpus_dir).glob("*.json")):
        results.append((path, check(load_case(path))))
    return results


def run_fuzz(
    budget: int,
    start_seed: int = 0,
    corpus_dir: Optional[Union[str, Path]] = None,
    shrink: bool = True,
    check: Callable[[FuzzCase], Optional[FuzzFailure]] = check_case,
    progress: Optional[Callable[[int, int], None]] = None,
) -> List[FuzzFailure]:
    """Check ``budget`` schedule cases; shrink and persist any failures."""
    failures: List[FuzzFailure] = []
    for index in range(budget):
        failure = check(case_from_seed(start_seed + index))
        if failure is not None:
            if shrink:
                failure = shrink_case(failure, check=check)
            failures.append(failure)
            if corpus_dir is not None:
                save_failure(corpus_dir, failure)
        if progress is not None:
            progress(index + 1, len(failures))
    return failures
