"""Experiment runners — one per table and figure of the paper.

Each ``table*/figure*`` function returns a result object carrying both
the structured data (consumed by the test and benchmark suites) and a
``render()`` method printing rows in the paper's format.  A shared
:class:`ExperimentContext` caches simulation runs, since Figure 5,
Table 4 and Table 6 reuse the same (kernel, configuration) sweeps.

Caching is content-addressed (:mod:`repro.perf`): every run is keyed by
a fingerprint of the kernel structure, configuration, parameters and
record stream, with an in-memory tier plus an optional on-disk tier
(``cache_dir``) that makes repeated experiment runs nearly free.
Independent sweep points fan out over a process pool when the context
is constructed with ``jobs > 1``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.characterize import KernelAttributes, characterize
from ..analysis.control import ControlProfile, control_profile
from ..backends import Backend
from ..backends import dispatch as backend_dispatch
from ..backends import get as get_backend
from ..compare.classic import ClassicMachine, classic_comparison
from ..compare.specialized import TABLE6, SpecializedRow, Table6Result, convert_metric
from ..core.flexible import flexible_vs_fixed
from ..core.mechanisms import PAPER_BENEFICIARIES, TABLE3
from ..kernels.registry import TABLE1_ORDER, KernelSpec, all_specs, spec
from ..machine.config import TABLE5_CONFIGS, MachineConfig
from ..machine.params import MachineParams
from ..machine.processor import GridProcessor
from ..machine.stats import RunResult, harmonic_mean
from ..obs.ledger import LEDGER
from ..obs.progress import progress_state
from ..perf.cache import RunCache
from ..perf.fingerprint import (
    combine_fingerprints,
    fingerprint_config,
    fingerprint_kernel,
    fingerprint_params,
    fingerprint_records,
)
from ..perf.parallel import SweepPoint, effective_workers, run_points
from .reporting import fmt_float, fmt_speedup, render_table

#: Paper Table 4 (baseline ops/cycle) for side-by-side reporting.
PAPER_TABLE4 = {
    "convert": 14.1, "dct": 10.4, "highpassfilter": 7.4,
    "fft": 3.7, "lu": 0.7,
    "md5": 2.8, "blowfish": 5.1, "rijndael": 7.5,
    "fragment-reflection": 4.0, "fragment-simple": 2.6,
    "vertex-reflection": 5.2, "vertex-simple": 3.6, "vertex-skinning": 5.6,
}

#: Kernels at or above this instruction count are "large": sweeps give
#: them a reduced record budget so one heavyweight kernel cannot
#: dominate a sweep's wall time.
LARGE_KERNEL_INSTRUCTIONS = 600


def effective_record_count(
    kernel, records: int, large_kernel_records: int
) -> int:
    """Records a sweep simulates for ``kernel`` (large kernels run fewer).

    The one rule shared by :class:`ExperimentContext` and the service
    layer's sweep specs (:mod:`repro.service.spec`): a sweep submitted
    over HTTP must address the exact same cache entries as the
    ``repro-experiments`` CLI, so both sides size workloads here.
    """
    return (
        large_kernel_records
        if len(kernel) >= LARGE_KERNEL_INSTRUCTIONS else records
    )


def sweep_workload_seed(seed: int) -> int:
    """The workload seed a sweep derives from a user-facing seed.

    The harness has always offset user seeds by 100 (seed 0 means
    workload seed 100); the service layer reuses the rule for the same
    cache-compatibility reason as :func:`effective_record_count`.
    """
    return 100 + seed


#: Paper Figure 5 grouping: each benchmark's preferred configuration.
PAPER_PREFERRED = {
    "fft": "S", "lu": "S",
    "convert": "S-O", "dct": "S-O", "highpassfilter": "S-O",
    "vertex-simple": "S-O", "fragment-simple": "S-O",
    "vertex-reflection": "S-O", "fragment-reflection": "S-O",
    "md5": "M-D", "blowfish": "M-D", "rijndael": "M-D",
    "vertex-skinning": "M-D",
}


class ExperimentContext:
    """Shared simulator + content-addressed run cache for the experiments.

    ``jobs > 1`` fans independent simulation points out over a process
    pool in :meth:`run_many`; ``cache_dir`` adds an on-disk JSON tier
    (conventionally ``.repro_cache/``) so repeated runs across processes
    hit the cache instead of the simulator.  A pre-built
    :class:`~repro.perf.cache.RunCache` can be shared via ``cache``.

    ``backend`` selects the default machine model (a
    :mod:`repro.backends` registry name or instance); :meth:`run`,
    :meth:`run_many` and :meth:`supports` also take a per-call override,
    so one context can mix backends while sharing its cache and
    workloads.
    """

    def __init__(
        self,
        params: Optional[MachineParams] = None,
        records: int = 512,
        large_kernel_records: int = 128,
        seed: int = 0,
        jobs: int = 1,
        cache: Optional[RunCache] = None,
        cache_dir: Optional[Union[str, Path]] = None,
        backend: Union[str, Backend] = "grid",
    ):
        self.params = params or MachineParams()
        self.processor = GridProcessor(self.params)
        self.backend = get_backend(backend)
        self.records = records
        self.large_kernel_records = large_kernel_records
        self.seed = seed
        self.jobs = jobs
        self.cache = cache if cache is not None else RunCache(cache_dir)
        self._workloads: Dict[str, list] = {}
        self._keys: Dict[Tuple[str, str, str], str] = {}
        #: the one configuration each name stands for on this context
        self._configs: Dict[str, MachineConfig] = {}
        # Memoized part fingerprints: the workload hash is invariant
        # across the configurations of a sweep (the kernel's hash is
        # memoized on the kernel itself).
        self._records_fps: Dict[str, str] = {}
        self._config_fps: Dict[str, str] = {}
        self._backend_fps: Dict[str, str] = {}
        self._params_fp: Optional[str] = None
        self._kernels: Dict[str, object] = {}
        #: :meth:`supports` answers by (backend, kernel, configuration)
        self._supports: Dict[Tuple[str, str, MachineConfig], bool] = {}
        #: wall seconds spent simulating each point (bench reporting);
        #: non-grid points are keyed ``backend:kernel``
        self.point_seconds: Dict[Tuple[str, str], float] = {}
        #: points this process simulated, and points that copied a
        #: job-mate's result
        #: (:meth:`~repro.perf.parallel.JobConstants.simulate`)
        self.simulated_points = 0
        self.copied_points = 0
        #: the progress view (:meth:`progress_snapshot`): the live
        #: sweep's claim session, the points of finished sweeps (total,
        #: and done by backend) and when the first sweep started
        self._progress_lock = threading.Lock()
        self._session = None
        self._swept_total = 0
        self._swept: Dict[str, int] = {}
        self._progress_started: Optional[float] = None

    def kernel(self, name: str):
        """The (cached) built kernel for a benchmark.

        One instance per context, so per-instance memos (the kernel
        fingerprint, which the window cache and the run cache share)
        amortize across the configurations of a sweep instead of being
        recomputed on a fresh build per point.
        """
        kernel = self._kernels.get(name)
        if kernel is None:
            kernel = self._kernels[name] = spec(name).kernel()
        return kernel

    def record_count(self, name: str) -> int:
        """Records simulated for a kernel (large kernels use fewer)."""
        return effective_record_count(
            self.kernel(name), self.records, self.large_kernel_records
        )

    def workload(self, name: str) -> list:
        """The (cached) seeded record stream for a benchmark."""
        if name not in self._workloads:
            self._workloads[name] = spec(name).workload(
                self.record_count(name), sweep_workload_seed(self.seed)
            )
        return self._workloads[name]

    def _backend(self, backend: Union[str, Backend, None]) -> Backend:
        """Resolve a per-call backend override (None -> the default)."""
        return self.backend if backend is None else get_backend(backend)

    @staticmethod
    def _label(backend: Backend, name: str) -> str:
        """Bench-report key for a point: grid keeps its legacy label."""
        return name if backend.name == "grid" else f"{backend.name}:{name}"

    def fingerprint(
        self,
        name: str,
        config: MachineConfig,
        backend: Union[str, Backend, None] = None,
    ) -> str:
        """Content address of the (kernel, config) point on this context.

        Identical to ``run_fingerprint`` on the full inputs, but the
        part hashes (kernel structure, workload, params, backend) are
        memoized — a sweep hashes each kernel and record stream once,
        not once per configuration.  Raises ``ValueError`` for a
        configuration whose name the context already used for another
        machine.
        """
        b = self._backend(backend)
        known = self._configs.setdefault(config.name, config)
        if known is not config and known != config:
            # Addresses, results and point timings are all keyed by
            # configuration name: one name must mean one machine.
            raise ValueError(
                f"configuration name {config.name!r} already names "
                f"{known} on this context, not {config}"
            )
        key = (b.name, name, config.name)
        fp = self._keys.get(key)
        if fp is None:
            kernel_fp = fingerprint_kernel(self.kernel(name))
            records_fp = self._records_fps.get(name)
            if records_fp is None:
                records_fp = fingerprint_records(self.workload(name))
                self._records_fps[name] = records_fp
            config_fp = self._config_fps.get(config.name)
            if config_fp is None:
                config_fp = fingerprint_config(config)
                self._config_fps[config.name] = config_fp
            if self._params_fp is None:
                self._params_fp = fingerprint_params(self.params)
            backend_fp = self._backend_fps.get(b.name)
            if backend_fp is None:
                backend_fp = b.fingerprint_part()
                self._backend_fps[b.name] = backend_fp
            fp = combine_fingerprints(
                kernel_fp, config_fp, self._params_fp, records_fp,
                backend=backend_fp,
            )
            self._keys[key] = fp
        return fp

    def _point(
        self,
        name: str,
        config: MachineConfig,
        backend: Union[str, Backend, None] = None,
    ) -> SweepPoint:
        b = self._backend(backend)
        cache_dir = self.cache.cache_dir
        return SweepPoint(
            kernel=name,
            config=config,
            params=self.params,
            records=self.record_count(name),
            workload_seed=sweep_workload_seed(self.seed),
            cache_dir=str(cache_dir) if cache_dir is not None else None,
            backend=b.name,
            ledger_path=LEDGER.path if LEDGER.enabled else None,
            # The context's memoized fingerprint — so the scheduler
            # never re-hashes what this sweep already addressed.
            fingerprint=self.fingerprint(name, config, b),
        )

    def run(
        self,
        name: str,
        config: MachineConfig,
        backend: Union[str, Backend, None] = None,
    ) -> RunResult:
        """Simulate one (kernel, config) point, via the cache."""
        b = self._backend(backend)
        fp = self.fingerprint(name, config, b)
        result = self.cache.get(fp)
        if result is None:
            kernel = self.kernel(name)
            started = time.perf_counter()
            result = backend_dispatch(
                b, kernel, self.workload(name), config, self.params,
                fingerprint=fp, cache_status="miss",
            )
            self.point_seconds[(self._label(b, name), config.name)] = (
                time.perf_counter() - started
            )
            self.simulated_points += 1
            self.cache.put(fp, result)
        return result

    def run_many(
        self,
        pairs: Sequence[Tuple[str, MachineConfig]],
        backend: Union[str, Backend, None] = None,
    ) -> Dict[Tuple[str, str], RunResult]:
        """Simulate many points at once, fanning misses over ``jobs``.

        Cache hits are never re-simulated; misses fan out over a pool
        when more than one worker is effective, and otherwise run
        through :meth:`run`'s in-context serial path — which reuses
        this context's cached workloads and fingerprints instead of
        rebuilding them per point, and simulates each distinct machine
        once (:meth:`~repro.perf.parallel.JobConstants.simulate`).
        Either way results land in the cache, so later :meth:`run`
        calls return the same objects.

        Both paths run as claim consumers of one session: the points
        become claim rows, so with a ledger configured concurrent
        workers on the same database split the sweep, rows they
        finish are adopted instead of re-simulated, and
        :meth:`progress_snapshot` reads how far the sweep is.
        """
        from ..sched import session_for_points

        b = self._backend(backend)
        results: Dict[Tuple[str, str], RunResult] = {}
        missing: List[Tuple[str, MachineConfig, str]] = []
        seen_fps = set()
        for name, config in pairs:
            fp = self.fingerprint(name, config, b)
            cached = self.cache.get(fp)
            if cached is not None:
                results[(name, config.name)] = cached
            elif fp not in seen_fps:
                seen_fps.add(fp)
                missing.append((name, config, fp))
        if not missing:
            return results
        points = [
            self._point(name, config, b) for name, config, _ in missing
        ]
        session = session_for_points(points)
        with self._progress_lock:
            if self._progress_started is None:
                self._progress_started = time.time()
            self._session = session
        in_context = effective_workers(self.jobs, len(missing)) < 2
        swept = False
        try:
            if in_context:
                fresh = self._sweep_in_context(session, points, missing, b)
            else:
                timed = run_points(
                    points, jobs=self.jobs, timed=True, session=session
                )
                # Each pool point is a job of its own, so none is a copy;
                # a serial fallback's copies are on the session.
                self.simulated_points += len(timed) - session.constants.copied
                for (name, config, fp), (result, seconds) in zip(
                        missing, timed):
                    self.cache.put(fp, result)
                    self.point_seconds[
                        (self._label(b, name), config.name)
                    ] = seconds
                fresh = [result for result, _ in timed]
            swept = True
        finally:
            if in_context:
                self.simulated_points += session.constants.simulated
            self.copied_points += session.constants.copied
            # A sweep leaves the live view and joins the finished count
            # at once, before its store closes: a tick never reads a
            # closed store, nor counts a point twice.
            with self._progress_lock:
                self._session = None
                self._swept_total += len(points)
                if swept:
                    self._swept[b.name] = (
                        self._swept.get(b.name, 0) + len(points)
                    )
            session.close()
        for (name, config, _), result in zip(missing, fresh):
            results[(name, config.name)] = result
        return results

    def _sweep_in_context(
        self, session, points: List[SweepPoint],
        missing: List[Tuple[str, MachineConfig, str]], b: Backend,
    ) -> List[RunResult]:
        """Run a sweep's claimed points in this process, in seq order.

        Bit-identical to the pool worker (same seed, records, params),
        minus its per-point rebuild of workloads and fingerprints.  A
        point whose machine a job-mate already simulated gets a copy of
        that result under its own configuration name.  The caller's
        scan already charged the cache miss, so each point is simulated
        and stored directly rather than re-probed through :meth:`run`.
        """
        payloads: Dict[int, RunResult] = {}

        def run(seq: int) -> RunResult:
            name, config, fp = missing[seq]
            result, seconds = session.run_claimed(seq, lambda point: (
                session.constants.simulate(
                    point, b, self.kernel(name), self.workload(name), fp
                ),
                "miss",
            ))
            self.point_seconds[(self._label(b, name), config.name)] = (
                seconds
            )
            self.cache.put(fp, result)
            return result

        def adopted(seq: int, row: dict) -> None:
            # Another worker ran it: it still lands in this context's
            # cache tiers, and the bench accounting stays complete.
            name, config, fp = missing[seq]
            wall = row.get("wall_seconds")
            if wall is not None:
                self.point_seconds[
                    (self._label(b, name), config.name)
                ] = float(wall)
            self.cache.put(fp, payloads[seq])

        session.enqueue(points)
        session.wait_remaining(payloads, runner=run, on_adopted=adopted)
        return [payloads[seq] for seq in range(len(missing))]

    def progress_snapshot(self) -> dict:
        """Progress of every point this context sent to a claim session.

        A :func:`~repro.obs.progress.progress_state` snapshot, which
        the ``--progress`` ticker prints: the points of finished sweeps
        count as done (a sweep that raised adds to the total only),
        plus the live sweep's claim rows, read from its store here and
        only here, so an unwatched sweep reads nothing.
        """
        with self._progress_lock:
            per_backend = dict(self._swept)
            completed = sum(per_backend.values())
            total = self._swept_total
            in_flight: List[str] = []
            last_point = None
            if self._session is not None:
                live = self._session.progress_snapshot()
                completed += live["completed"]
                total += live["total"]
                in_flight, last_point = live["in_flight"], live["last_point"]
                for name, count in live["per_backend"].items():
                    per_backend[name] = per_backend.get(name, 0) + count
            started = self._progress_started
        return progress_state(
            completed, total, in_flight, started, per_backend, last_point
        )

    def supports(
        self,
        name: str,
        config: MachineConfig,
        backend: Union[str, Backend, None] = None,
    ) -> bool:
        """Whether the kernel can run under ``config`` on the backend.

        Answered once per context: the check builds a processor for the
        configuration (for M and M-D it recounts the rolled footprint).
        """
        b = self._backend(backend)
        key = (b.name, name, config)
        answer = self._supports.get(key)
        if answer is None:
            answer = self._supports[key] = b.supports(
                self.kernel(name), config, self.params
            )
        return answer


# ---- Table 1: benchmark suite -------------------------------------------------


@dataclass
class Table1:
    rows: List[Tuple[str, str, str]]  # (name, domain, description)

    def render(self) -> str:
        return render_table(
            ["Benchmark", "Domain", "Description"],
            self.rows,
            title="Table 1. Benchmark description.",
            align_left=(0, 1, 2),
        )


def table1() -> Table1:
    """Regenerate Table 1 (benchmark suite description)."""
    rows = []
    for name in TABLE1_ORDER:
        s = spec(name)
        rows.append((s.name, s.domain.value, s.description))
    return Table1(rows)


# ---- Table 2: benchmark attributes ----------------------------------------------


@dataclass
class Table2:
    measured: List[KernelAttributes]
    specs: List[KernelSpec]

    def render(self) -> str:
        rows = []
        for attrs, s in zip(self.measured, self.specs):
            p = s.paper
            rows.append([
                attrs.name,
                f"{attrs.instructions} ({p.instructions})",
                f"{attrs.ilp:.2f} ({p.ilp:g})",
                f"{attrs.record_read}/{attrs.record_write} "
                f"({p.record_read}/{p.record_write})",
                f"{attrs.irregular or '-'} ({p.irregular or '-'})",
                f"{attrs.constants or '-'} ({p.constants or '-'})",
                f"{attrs.indexed_constants or '-'} "
                f"({p.indexed_constants or '-'})",
                f"{attrs.loop_bound or '-'} ({p.loop_bound or '-'})",
            ])
        return render_table(
            ["Benchmark", "# Inst (paper)", "ILP", "Record r/w",
             "# Irregular", "# Constants", "# Indexed", "Loop bounds"],
            rows,
            title="Table 2. Benchmark attributes — measured (paper).",
        )


def table2() -> Table2:
    """Regenerate Table 2 (measured benchmark attributes)."""
    specs = [spec(name) for name in TABLE1_ORDER]
    return Table2([characterize(s.kernel()) for s in specs], specs)


# ---- Figure 1: control behaviour ---------------------------------------------------


@dataclass
class Figure1:
    profiles: List[ControlProfile]

    def render(self) -> str:
        rows = [
            [
                p.name,
                p.control.value,
                p.static_trips if p.static_trips > 1 else "-",
                f"{p.mimd_instructions:.0f}/{p.simd_instructions}",
                f"{100 * p.nullification_waste:.0f}%",
                p.preferred_model,
            ]
            for p in self.profiles
        ]
        return render_table(
            ["Benchmark", "Control class", "Static trips",
             "Live/issued insts", "SIMD waste", "Preferred control"],
            rows,
            title="Figure 1. Kernel control behavior (measured).",
            align_left=(0, 1, 5),
        )


def figure1(records: int = 256) -> Figure1:
    """Regenerate Figure 1 (control-behaviour taxonomy)."""
    profiles = []
    for name in TABLE1_ORDER:
        s = spec(name)
        kernel = s.kernel()
        probe = s.workload(records) if kernel.loop.variable else ()
        profiles.append(control_profile(kernel, probe))
    return Figure1(profiles)


# ---- Figure 2: classic architectures -------------------------------------------------


@dataclass
class Figure2:
    machine: ClassicMachine
    rows: List[Tuple[str, Dict[str, float], str]]

    def render(self) -> str:
        table_rows = [
            [name, fmt_float(models["vector"]), fmt_float(models["simd"]),
             fmt_float(models["mimd"]), winner]
            for name, models, winner in self.rows
        ]
        return render_table(
            ["Benchmark", "Vector cyc/iter", "SIMD cyc/iter",
             "MIMD cyc/iter", "Best classic model"],
            table_rows,
            title=("Figure 2. Classic vector/SIMD/MIMD architectures "
                   "(first-order analytic models)."),
            align_left=(0, 4),
        )


def figure2(records: int = 256) -> Figure2:
    """Regenerate Figure 2 (classic architecture models)."""
    machine = ClassicMachine()
    rows = []
    for name in TABLE1_ORDER:
        s = spec(name)
        kernel = s.kernel()
        attrs = characterize(kernel)
        if kernel.loop.variable:
            profile = control_profile(kernel, s.workload(records))
            live = profile.mimd_instructions / profile.simd_instructions
        else:
            live = 1.0
        models = classic_comparison(attrs, machine, live_fraction=live)
        winner = min(models, key=models.get)
        rows.append((name, models, winner))
    return Figure2(machine, rows)


@dataclass
class Figure2Measured:
    """Figure 2's trio measured on the registered simulator backends.

    One row per kernel: the vector and SIMD comparators (resolved from
    the :mod:`repro.backends` registry) against the grid's fine-grain
    MIMD morph.  ``mimd`` is None when the kernel does not fit the MIMD
    configuration on the context's grid geometry.
    """

    #: (kernel, vector run, simd run, mimd run or None, mimd config name)
    rows: List[Tuple[str, RunResult, RunResult, Optional[RunResult], str]]

    def winner(self, row: Tuple) -> str:
        """The lowest cycles-per-record backend of one row."""
        name, vec, simd, mimd, _ = row
        candidates = {"vector": vec, "simd": simd}
        if mimd is not None:
            candidates["grid MIMD"] = mimd
        return min(candidates, key=lambda k: candidates[k].cycles_per_record)

    def render(self) -> str:
        table_rows = []
        for row in self.rows:
            name, vec, simd, mimd, mimd_cfg = row
            table_rows.append([
                name,
                fmt_float(vec.cycles_per_record),
                fmt_float(simd.cycles_per_record),
                fmt_float(mimd.cycles_per_record) if mimd else "-",
                mimd_cfg if mimd else "-",
                self.winner(row),
            ])
        return render_table(
            ["Benchmark", "Vector cyc/rec", "SIMD cyc/rec",
             "MIMD cyc/rec", "MIMD config", "Best measured"],
            table_rows,
            title=("Figure 2 (measured). Classic architectures on the "
                   "simulated backends."),
            align_left=(0, 4, 5),
        )


def figure2_measured(ctx: Optional[ExperimentContext] = None) -> Figure2Measured:
    """Figure 2 with *measured* comparators via the backend registry.

    The analytic :func:`figure2` stays the default reproduction; this
    variant replays the same architecture matching on the simulated
    vector and SIMD backends and the grid's MIMD morph, all resolved by
    registry name, so every point caches and fans out like any other.
    """
    ctx = ctx or ExperimentContext()
    baseline = MachineConfig.baseline()
    specs = all_specs(performance_only=True)
    # Comparator timing ignores the grid config; baseline keys the cache.
    ctx.run_many([(s.name, baseline) for s in specs], backend="vector")
    ctx.run_many([(s.name, baseline) for s in specs], backend="simd")
    mimd_cfgs: Dict[str, Optional[MachineConfig]] = {}
    for s in specs:
        config = (MachineConfig.M_D() if s.kernel().tables
                  else MachineConfig.M())
        mimd_cfgs[s.name] = config if ctx.supports(s.name, config) else None
    ctx.run_many([
        (name, config) for name, config in mimd_cfgs.items()
        if config is not None
    ])
    rows = []
    for s in specs:
        vec = ctx.run(s.name, baseline, backend="vector")
        simd = ctx.run(s.name, baseline, backend="simd")
        config = mimd_cfgs[s.name]
        mimd = ctx.run(s.name, config) if config is not None else None
        rows.append((
            s.name, vec, simd, mimd, config.name if config else "-",
        ))
    return Figure2Measured(rows)


# ---- Table 3: mechanisms ---------------------------------------------------------------


@dataclass
class Table3:
    rows: List[Tuple[str, str, str, str]]

    def render(self) -> str:
        return render_table(
            ["Attribute", "Mechanism", "Implemented at", "Benchmarks (paper)"],
            self.rows,
            title="Table 3. Attributes and universal mechanisms.",
            align_left=(0, 1, 2, 3),
        )


def table3() -> Table3:
    """Regenerate Table 3 (attribute -> mechanism map)."""
    rows = [
        (
            row.attribute,
            row.mechanism.value,
            row.implemented_at,
            PAPER_BENEFICIARIES[row.mechanism],
        )
        for row in TABLE3
    ]
    return Table3(rows)


# ---- Table 4: baseline performance --------------------------------------------------------


@dataclass
class Table4:
    rows: List[Tuple[str, float, float]]  # (name, measured, paper)

    def render(self) -> str:
        table_rows = [
            [name, fmt_float(measured), fmt_float(paper, 1)]
            for name, measured, paper in self.rows
        ]
        return render_table(
            ["Benchmark", "Ops/cycle (measured)", "Ops/cycle (paper)"],
            table_rows,
            title="Table 4. Performance on baseline TRIPS.",
        )

    def by_name(self) -> Dict[str, float]:
        return {name: measured for name, measured, _ in self.rows}


def table4(ctx: Optional[ExperimentContext] = None) -> Table4:
    """Regenerate Table 4 (baseline TRIPS ops/cycle)."""
    ctx = ctx or ExperimentContext()
    baseline = MachineConfig.baseline()
    specs = all_specs(performance_only=True)
    ctx.run_many([(s.name, baseline) for s in specs])
    rows = []
    for s in specs:
        result = ctx.run(s.name, baseline)
        rows.append((s.name, result.ops_per_cycle, PAPER_TABLE4[s.name]))
    return Table4(rows)


# ---- Table 5: machine configurations --------------------------------------------------------


@dataclass
class Table5:
    rows: List[Tuple[str, str, str, str, str, str]]

    def render(self) -> str:
        return render_table(
            ["Config", "L0 inst", "L0 data", "Inst revit.", "Op revit.",
             "Architecture model"],
            self.rows,
            title="Table 5. Machine configurations.",
            align_left=(0, 5),
        )


def table5() -> Table5:
    """Regenerate Table 5 (machine configurations)."""
    rows = []
    for config in TABLE5_CONFIGS:
        rows.append((
            config.name,
            "Y" if config.local_pc else "N",
            "Y" if config.l0_data else "N",
            "Y" if config.inst_revitalize else "N",
            "Y" if config.operand_revitalize else "N",
            config.architecture_model,
        ))
    return Table5(rows)


# ---- Figure 5: speedups ----------------------------------------------------------------------


@dataclass
class Figure5:
    #: kernel -> config name -> speedup over baseline
    speedups: Dict[str, Dict[str, float]]
    #: kernel -> best configuration name (ties resolve to the simplest)
    preferred: Dict[str, str]
    #: fixed-config harmonic means of speedup
    fixed_hmean: Dict[str, float]
    flexible_hmean: float

    def flexible_vs(self, config_name: str) -> float:
        return self.flexible_hmean / self.fixed_hmean[config_name]

    def render(self) -> str:
        config_names = [c.name for c in TABLE5_CONFIGS]
        rows = []
        for kernel, per_config in self.speedups.items():
            rows.append(
                [kernel]
                + [fmt_speedup(per_config.get(c)) for c in config_names]
                + [self.preferred[kernel], PAPER_PREFERRED.get(kernel, "-")]
            )
        table = render_table(
            ["Benchmark"] + config_names + ["Best", "Paper best"],
            rows,
            title="Figure 5. Speedup over baseline by machine configuration.",
            align_left=(0, 6, 7),
        )
        summary = [
            "",
            f"Flexible (per-application best) harmonic mean: "
            f"{self.flexible_hmean:.2f}x over baseline",
        ]
        for name in config_names:
            summary.append(
                f"  vs fixed {name:6s}: {100 * (self.flexible_vs(name) - 1):+.0f}%"
                f"  (fixed hmean {self.fixed_hmean[name]:.2f}x)"
            )
        summary.append(
            "  paper: +55% vs fixed S, +20% vs fixed S-O, +5% vs fixed M-D"
        )
        return table + "\n" + "\n".join(summary)


def figure5(ctx: Optional[ExperimentContext] = None) -> Figure5:
    """Regenerate Figure 5 (speedups + the Flexible aggregate)."""
    ctx = ctx or ExperimentContext()
    baseline_cfg = MachineConfig.baseline()
    pairs: List[Tuple[str, MachineConfig]] = []
    for s in all_specs(performance_only=True):
        pairs.append((s.name, baseline_cfg))
        pairs.extend(
            (s.name, config) for config in TABLE5_CONFIGS
            if ctx.supports(s.name, config)
        )
    ctx.run_many(pairs)
    speedups: Dict[str, Dict[str, float]] = {}
    runs: Dict[str, Dict[str, RunResult]] = {}
    baselines: Dict[str, RunResult] = {}
    preferred: Dict[str, str] = {}
    for s in all_specs(performance_only=True):
        base = ctx.run(s.name, baseline_cfg)
        baselines[s.name] = base
        per_config: Dict[str, float] = {}
        results: Dict[str, RunResult] = {}
        for config in TABLE5_CONFIGS:
            if not ctx.supports(s.name, config):
                continue
            result = ctx.run(s.name, config)
            results[config.name] = result
            per_config[config.name] = result.speedup_over(base)
        speedups[s.name] = per_config
        runs[s.name] = results
        # Ties resolve toward the configuration with fewer mechanisms
        # (configs are ordered simplest-first in TABLE5_CONFIGS).
        best_name = None
        best_speed = 0.0
        for config in TABLE5_CONFIGS:
            value = per_config.get(config.name)
            if value is not None and value > best_speed + 1e-9:
                best_speed = value
                best_name = config.name
        preferred[s.name] = best_name or "baseline"
    fixed, flexible = flexible_vs_fixed(runs, baselines)
    return Figure5(speedups, preferred, fixed, flexible)


# ---- Table 6: specialized hardware ---------------------------------------------------------------


@dataclass
class Table6:
    results: List[Table6Result]

    def render(self) -> str:
        rows = []
        for r in self.results:
            rows.append([
                r.row.benchmark,
                fmt_float(r.measured_value, 1),
                fmt_float(r.row.paper_trips_value, 1),
                fmt_float(r.row.specialized_value, 1),
                r.best_config,
                r.row.units,
                r.row.reference_hardware,
            ])
        return render_table(
            ["Benchmark", "TRIPS (measured)", "TRIPS (paper)",
             "Specialized", "Config", "Units", "Reference hardware"],
            rows,
            title=("Table 6. TRIPS with DLP mechanisms vs specialized "
                   "hardware (clock-normalized)."),
            align_left=(0, 4, 5, 6),
        )


def table6(ctx: Optional[ExperimentContext] = None) -> Table6:
    """Regenerate Table 6 (TRIPS vs specialized hardware)."""
    ctx = ctx or ExperimentContext()
    ctx.run_many([
        (row.benchmark, config)
        for row in TABLE6
        for config in TABLE5_CONFIGS
        if ctx.supports(row.benchmark, config)
    ])
    results = []
    for row in TABLE6:
        candidates: Dict[str, RunResult] = {}
        for config in TABLE5_CONFIGS:
            if ctx.supports(row.benchmark, config):
                candidates[config.name] = ctx.run(row.benchmark, config)
        best_name = min(candidates, key=lambda n: candidates[n].cycles)
        best = candidates[best_name]
        results.append(Table6Result(
            row=row,
            best_config=best_name,
            measured_value=convert_metric(row, best),
            cycles_per_record=best.cycles_per_record,
        ))
    return Table6(results)


# ---- Figures 3/4: the microarchitecture, rendered ---------------------------------------------------


@dataclass
class Figure34:
    sections: List[str]

    def render(self) -> str:
        return "\n\n".join(self.sections)


def figure3_4(params: Optional[MachineParams] = None) -> Figure34:
    """Figures 3 and 4 as ASCII: the substrate under each morph."""
    from ..machine.visualize import render_array

    params = params or MachineParams()
    title = ("Figures 3/4. Microarchitecture block diagram under each "
             "configuration.")
    sections = [title + "\n" + "=" * len(title)]
    for config in (MachineConfig.baseline(),) + tuple(TABLE5_CONFIGS):
        sections.append(render_array(params, config))
    return Figure34(sections)


# ---- everything ------------------------------------------------------------------------------------


def run_all(ctx: Optional[ExperimentContext] = None) -> str:
    """Render every table and figure reproduction as one report."""
    ctx = ctx or ExperimentContext()
    sections = [
        table1().render(),
        table2().render(),
        figure1().render(),
        figure2().render(),
        figure3_4(ctx.params).render(),
        table3().render(),
        table4(ctx).render(),
        table5().render(),
        figure5(ctx).render(),
        table6(ctx).render(),
    ]
    return "\n\n\n".join(sections) + "\n"
