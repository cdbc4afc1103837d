"""Run fingerprints: stable across rebuilds, sensitive to every input."""

import dataclasses
import hashlib

import pytest

from repro.kernels import spec
from repro.machine import MachineConfig, MachineParams
from repro.perf import (
    fingerprint_config,
    fingerprint_kernel,
    fingerprint_params,
    fingerprint_records,
    run_fingerprint,
)


def point_fingerprint(name="fft", config=None, params=None, records=None,
                      seed=0):
    s = spec(name)
    return run_fingerprint(
        s.kernel(),
        config or MachineConfig.S(),
        params or MachineParams(),
        records if records is not None else s.workload(8, 7),
        seed=seed,
    )


class TestStability:
    def test_same_point_same_fingerprint(self):
        """Two independently rebuilt identical points hash identically."""
        assert point_fingerprint() == point_fingerprint()

    @pytest.mark.parametrize("name", ["fft", "md5", "vertex-skinning"])
    def test_kernel_fingerprint_stable_across_rebuilds(self, name):
        """Two fresh builds: ``kernel()`` returns one shared, memoized
        object, so comparing it with itself would prove nothing."""
        a, b = spec(name).build(), spec(name).build()
        assert a is not b
        assert fingerprint_kernel(a) == fingerprint_kernel(b)

    def test_config_and_params_fingerprints_stable(self):
        assert fingerprint_config(MachineConfig.S_O()) == \
            fingerprint_config(MachineConfig.S_O())
        assert fingerprint_params(MachineParams()) == \
            fingerprint_params(MachineParams())

    def test_workload_fingerprint_tracks_seed(self):
        s = spec("fft")
        assert fingerprint_records(s.workload(8, 7)) == \
            fingerprint_records(s.workload(8, 7))
        assert fingerprint_records(s.workload(8, 7)) != \
            fingerprint_records(s.workload(8, 8))

    @pytest.mark.parametrize(
        "name", ["vertex-simple", "fragment-reflection", "vertex-skinning"]
    )
    def test_kernel_fingerprint_stable_across_processes(self, name):
        """Kernel construction must not depend on PYTHONHASHSEED.

        The graphics kernels once seeded their scene constants with
        ``hash(tag)``; every process built different kernels, so the
        run cache never replayed those points across processes."""
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "import sys; sys.path.insert(0, sys.argv[1]);"
            "from repro.kernels import spec;"
            "from repro.perf import fingerprint_kernel;"
            f"print(fingerprint_kernel(spec({name!r}).kernel()))"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        prints = {
            subprocess.run(
                [sys.executable, "-c", script, src],
                capture_output=True, text=True, check=True,
                env={"PYTHONHASHSEED": hashseed, "PATH": "/usr/bin:/bin"},
            ).stdout.strip()
            for hashseed in ("1", "2")
        }
        assert len(prints) == 1


#: sha256 over the sorted cache addresses of the 78 paper points
#: (Figure 5, Table 4, Table 6 at seed 0, 512/128 records, array core).
PAPER_POINTS_DIGEST = (
    "c7723cc14b91a8c38b8b38be6bca62b925f7a7bd3864a9c23763eff247774523"
)


class TestPinnedAddresses:
    def test_paper_point_addresses_are_pinned(self):
        """A change that moves any paper point's cache address (and so
        orphans every existing disk cache) must say so here."""
        from repro.harness import experiments
        from repro.kernels import all_specs
        from repro.machine.fastcore import using_core

        with using_core("array"):
            ctx = experiments.ExperimentContext(
                records=512, large_kernel_records=128, seed=0
            )
            performance = [s.name for s in all_specs(performance_only=True)]
            table6 = [row.benchmark for row in experiments.TABLE6]
            pairs = [(name, MachineConfig.baseline()) for name in performance]
            pairs += [
                (name, config)
                for name in performance + table6
                for config in experiments.TABLE5_CONFIGS
                if ctx.supports(name, config)
            ]
            fingerprints = {
                ctx.fingerprint(name, config) for name, config in pairs
            }
        assert len(fingerprints) == 78
        digest = hashlib.sha256(
            "\n".join(sorted(fingerprints)).encode("ascii")
        ).hexdigest()
        assert digest == PAPER_POINTS_DIGEST


class TestKernelMemo:
    def test_each_kernel_object_is_hashed_once(self, monkeypatch):
        """The experiment context, the claim scheduler and the window
        cache all read one hash per kernel object."""
        from repro.harness import experiments
        from repro.machine.window_cache import SHARED_WINDOW_CACHE
        from repro.perf import SweepPoint
        from repro.perf import fingerprint as fingerprint_mod
        from repro.sched import point_fingerprints

        kernels = [spec(name).kernel() for name in ("convert", "fft")]
        for kernel in kernels:
            monkeypatch.delattr(kernel, "_fingerprint", raising=False)
        hashed = []
        hash_kernel = fingerprint_mod._hash_kernel

        def spy(kernel):
            hashed.append(kernel)
            return hash_kernel(kernel)

        monkeypatch.setattr(fingerprint_mod, "_hash_kernel", spy)
        SHARED_WINDOW_CACHE.clear()
        pairs = [(kernel.name, config) for kernel in kernels
                 for config in (MachineConfig.S(), MachineConfig.S_O())]
        ctx = experiments.ExperimentContext(records=8, large_kernel_records=8)
        ctx.run_many(pairs)
        point_fingerprints([
            SweepPoint(kernel=name, config=config, params=MachineParams(),
                       records=4, workload_seed=1)
            for name, config in pairs
        ])
        assert SHARED_WINDOW_CACHE.misses > 0
        assert len(hashed) == len(kernels)
        assert all(any(h is k for h in hashed) for k in kernels)

    @pytest.mark.parametrize("core", ["array", "object"])
    def test_paper_pass_leaves_every_kernel_as_hashed(self, core):
        """No simulation mutates a kernel it was handed: after a paper
        pass, hashing each registry kernel from scratch equals its memo."""
        from repro.harness import experiments
        from repro.kernels import registry
        from repro.machine.fastcore import using_core
        from repro.perf import fingerprint as fingerprint_mod

        ctx = experiments.ExperimentContext(records=32,
                                            large_kernel_records=16)
        with using_core(core):
            experiments.figure5(ctx)
            experiments.table4(ctx)
            experiments.table6(ctx)
        for name in registry():
            kernel = spec(name).kernel()
            assert fingerprint_mod._hash_kernel(kernel) == \
                fingerprint_kernel(kernel), name


class TestSensitivity:
    def test_kernel_changes_fingerprint(self):
        assert point_fingerprint("fft") != point_fingerprint("lu")

    def test_config_changes_fingerprint(self):
        assert point_fingerprint(config=MachineConfig.S()) != \
            point_fingerprint(config=MachineConfig.S_O())

    def test_any_param_field_changes_fingerprint(self):
        base = point_fingerprint()
        assert point_fingerprint(params=MachineParams(hop_cycles=2.0)) != base
        assert point_fingerprint(params=MachineParams(rows=4, cols=4)) != base

    def test_record_stream_changes_fingerprint(self):
        s = spec("fft")
        assert point_fingerprint(records=s.workload(8, 7)) != \
            point_fingerprint(records=s.workload(16, 7))

    def test_seed_changes_fingerprint(self):
        assert point_fingerprint(seed=0) != point_fingerprint(seed=1)

    def test_distinct_configs_distinct_hashes(self):
        configs = [MachineConfig.baseline(), MachineConfig.S(),
                   MachineConfig.S_O(), MachineConfig.S_O_D(),
                   MachineConfig.M(), MachineConfig.M_D()]
        hashes = {fingerprint_config(c) for c in configs}
        assert len(hashes) == len(configs)

class TestBackendSensitivity:
    def test_default_backend_is_the_grid_part(self):
        """Legacy call sites (no backend argument) produce grid
        addresses — existing disk caches stay replayable by the grid."""
        from repro.perf import DEFAULT_BACKEND_PART

        assert DEFAULT_BACKEND_PART == "grid"
        assert point_fingerprint() == point_fingerprint()

    def test_backend_part_changes_fingerprint(self):
        s = spec("fft")
        base = run_fingerprint(
            s.kernel(), MachineConfig.S(), MachineParams(), s.workload(8, 7)
        )
        for part in ("simd:abc", "vector:abc", "stream"):
            assert run_fingerprint(
                s.kernel(), MachineConfig.S(), MachineParams(),
                s.workload(8, 7), backend=part,
            ) != base

    def test_backend_parameters_change_the_part(self):
        from repro.perf import fingerprint_backend
        from repro.simdsim import SimdParams

        assert fingerprint_backend("simd", SimdParams()) != \
            fingerprint_backend("simd", SimdParams(pes=128))
        assert fingerprint_backend("simd", SimdParams()) == \
            fingerprint_backend("simd", SimdParams())

    def test_combine_matches_run_fingerprint_with_backend(self):
        from repro.perf import combine_fingerprints

        s = spec("fft")
        kernel, records = s.kernel(), s.workload(8, 7)
        config, params = MachineConfig.S(), MachineParams()
        combined = combine_fingerprints(
            fingerprint_kernel(kernel),
            fingerprint_config(config),
            fingerprint_params(params),
            fingerprint_records(records),
            backend="vector:abc",
        )
        assert combined == run_fingerprint(
            kernel, config, params, records, backend="vector:abc"
        )
