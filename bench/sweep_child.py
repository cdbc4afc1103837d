"""One sweep process of the benchmark: set up, signal, run timed passes.

Started by ``run.py`` as ``python sweep_child.py SPEC.json``.  It
imports the simulator, builds its first context, prints ``ready`` (the
parent's set-up clock stops there) and then runs ``passes`` sweep
passes of Figure 5, Table 4 and Table 6.  Every pass starts from a
fresh ``ExperimentContext``, an empty window cache and (unless it
replays a given cache directory) a fresh run-cache directory.  Results
go to the spec's ``result`` path as JSON: per pass the wall time, the
per-point operation times, the sha256 digest of the results, and
whether the rendered tables match the committed report.  With ``keep_first_cache``
the first pass's run-cache directory is left in place (and named in the
result) for a replaying workload; with ``passes`` 0 the child only sets
up, which is how extra set-up samples are taken.

Every time is also given at the reference speed (see ``calibrate.py``):
a bracket is read just after set-up and after every pass, and, in an
untraced pass, a short one after every simulated point, so each pass
and each point is scaled by the readings on either side of it.  The
brackets' own time is left out of the pass wall.

A point's operation time is the host time the harness spent simulating
it (``ExperimentContext.point_seconds``).  A replay simulates nothing,
so a replaying child follows each timed pass with an untimed probe:
every point of the set fetched once through ``ExperimentContext.run``
on a fresh context, each call timed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from typing import Dict, List, Tuple

import calibrate

#: Paper Figure 5 "Flexible vs fixed" gains (percent) for the fidelity
#: figure; the paper states these three only.
PAPER_FLEX_GAINS = {"S": 55.0, "S-O": 20.0, "M-D": 5.0}


def paper_pass(ctx, experiments) -> tuple:
    """The ``repro-experiments`` sweep: Figure 5, Table 4, Table 6."""
    return (experiments.figure5(ctx), experiments.table4(ctx),
            experiments.table6(ctx))


def addressed(ctx) -> List[Tuple[str, str, object]]:
    """(backend, kernel, config) of every point the context addressed.

    Read from the context's own fingerprint memo, so the point set is
    whatever the pass asked for, defined in one place: the harness.
    """
    from repro.machine.config import named_config

    return [(backend, kernel, named_config(config))
            for backend, kernel, config in sorted(ctx._keys)]


def probe(ctx, points) -> List[float]:
    """Seconds of one ``ctx.run`` per point, in point-set order."""
    times = []
    for backend, kernel, config in points:
        started = time.perf_counter()
        ctx.run(kernel, config, backend)
        times.append(time.perf_counter() - started)
    return times


def digest(ctx, points) -> str:
    """sha256 over the sorted-key result documents of a point set."""
    from repro.perf.cache import run_result_to_dict

    docs = [run_result_to_dict(ctx.run(kernel, config, backend))
            for backend, kernel, config in points]
    return hashlib.sha256(
        json.dumps(docs, sort_keys=True).encode("utf-8")
    ).hexdigest()


def fidelity(figure5, table4) -> Dict[str, float]:
    """Error against the paper's Table 4 and Figure 5 numbers."""
    table4_err = sum(abs(m - p) / p for _, m, p in table4.rows)
    flex_err = sum(
        abs(100.0 * (figure5.flexible_vs(name) - 1.0) - paper)
        for name, paper in PAPER_FLEX_GAINS.items()
    )
    return {
        "table4_ops_err_pct": 100.0 * table4_err / len(table4.rows),
        "figure5_flex_err_pp": flex_err / len(PAPER_FLEX_GAINS),
    }


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    from repro.harness import experiments
    from repro.machine.window_cache import SHARED_WINDOW_CACHE
    from repro.obs.ledger import LEDGER
    from repro.perf.cache import RunCache
    from repro.perf.phases import measuring

    recorder = None
    if spec["trace"]:
        import layers
        from spans import PASS, Recorder

        recorder = Recorder()
        layers.install(recorder)
    LEDGER.configure(os.path.join(spec["work_dir"], "ledger.sqlite"))
    report = None
    if spec["report"]:
        with open(spec["report"], encoding="utf-8") as fh:
            report = fh.read()

    def context(index: int):
        cache_dir = spec["cache_dir"] or os.path.join(
            spec["work_dir"], f"cache-{index}")
        return experiments.ExperimentContext(
            records=spec["records"],
            large_kernel_records=spec["large_records"],
            seed=spec["seed"],
            cache=RunCache(cache_dir),
        ), cache_dir

    ctx, cache_dir = context(0)
    print("ready", flush=True)

    # The bracket read last: after set-up, then after each pass.
    ref = calibrate.bracket()
    out = {"passes": [], "points_per_pass": 0, "error": None,
           "kept_cache": None, "setup_ref": ref}
    try:
        for index in range(spec["passes"]):
            if index:
                ctx, cache_dir = context(index)
            marks: list = []
            if recorder is None:
                ctx.point_seconds = calibrate.BracketedDict(marks)
            gc.collect()
            SHARED_WINDOW_CACHE.clear()
            memory_s = None
            started = time.perf_counter()
            if recorder is None:
                tables = paper_pass(ctx, experiments)
            else:
                with measuring() as phases, \
                        recorder.span(PASS, "pass", pass_id=index):
                    tables = paper_pass(ctx, experiments)
                    memory_s = phases.seconds.get("mimd_memory", 0.0)
            ended = time.perf_counter()
            points = addressed(ctx)
            out["points_per_pass"] = len(points)
            op_s = list(ctx.point_seconds.values())
            if spec["probe"]:
                gc.collect()
                op_s = probe(context(index)[0], points)
            after = calibrate.bracket()
            wall, scaled, factors = calibrate.span(started, ended, marks,
                                                   ref, after)
            ref = after
            if len(factors) != len(op_s):
                factors = [scaled / wall] * len(op_s)
            figure5, table4, table6 = tables
            out["passes"].append({
                "wall": wall,
                "scaled": scaled,
                "points": op_s,
                "scaled_points": [t * f for t, f in zip(op_s, factors)],
                "simulated": len(ctx.point_seconds),
                "digest": digest(ctx, points),
                "mimd_memory_s": memory_s,
                "report_ok": None if report is None else all(
                    t.render() in report for t in (table4, figure5, table6)),
                "fidelity": fidelity(figure5, table4),
            })
            if index == 0 and spec["keep_first_cache"]:
                out["kept_cache"] = cache_dir
            elif not spec["cache_dir"]:
                shutil.rmtree(cache_dir, ignore_errors=True)
    except Exception:
        out["error"] = traceback.format_exc()
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if recorder is not None:
        out["spans"] = recorder.dump()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
