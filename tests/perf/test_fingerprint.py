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
        a = fingerprint_kernel(spec(name).kernel())
        b = fingerprint_kernel(spec(name).kernel())
        assert a == b

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
