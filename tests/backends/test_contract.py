"""The backend contract, enforced across every registry entry.

Every registered machine model must resolve by name, simulate
deterministically, return a well-formed and identity-tagged
:class:`~repro.machine.stats.RunResult` that agrees with the
architecture-independent useful-operation count, survive the on-disk
run-cache JSON round trip, and produce fingerprints that can never
alias another backend's.  The suite is parametrized over
``backend_names()``, so a sixth registered backend is covered without
touching a test.
"""

import pytest

from repro.backends import (
    Backend,
    GridBackend,
    backend_names,
    create,
    dispatch,
    get,
    register,
    useful_ops,
)
from repro.kernels import spec
from repro.machine import GridProcessor, MachineConfig, MachineParams
from repro.machine.config import named_config
from repro.perf import (
    DEFAULT_BACKEND_PART,
    RunCache,
    SweepPoint,
    run_fingerprint,
    simulate_point,
)

ALL_BACKENDS = backend_names()


def config_for(name: str) -> MachineConfig:
    """A configuration every backend supports (stream needs the SMC)."""
    return MachineConfig.S_O() if name == "stream" else MachineConfig.baseline()


def small_point(backend: str, kernel: str = "convert") -> tuple:
    s = spec(kernel)
    k = s.kernel()
    return k, s.workload(16, 7), config_for(backend), MachineParams()


class TestRegistry:
    def test_all_five_models_registered(self):
        assert backend_names() == [
            "grid", "simd", "vector", "superscalar", "stream",
        ]

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_get_returns_shared_instance(self, name):
        backend = get(name)
        assert isinstance(backend, Backend)
        assert backend.name == name
        assert get(name) is backend

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_create_returns_fresh_instance(self, name):
        assert create(name) is not create(name)

    def test_get_passes_instances_through(self):
        backend = GridBackend()
        assert get(backend) is backend

    def test_unknown_name_lists_known_backends(self):
        with pytest.raises(KeyError, match="grid"):
            get("does-not-exist")

    def test_register_last_wins_and_clears_instance(self):
        class Shadow(GridBackend):
            """Instrumented double shadowing the grid entry."""

        original = get("grid")
        try:
            register("grid", Shadow)
            assert isinstance(get("grid"), Shadow)
        finally:
            register("grid", GridBackend)
        assert get("grid") is not original  # instance cache was cleared


class TestRunContract:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_deterministic_under_fixed_inputs(self, name):
        kernel, records, config, params = small_point(name)
        backend = get(name)
        first = dispatch(backend, kernel, records, config, params)
        second = dispatch(backend, kernel, records, config, params)
        assert first == second

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_result_is_well_formed_and_tagged(self, name):
        kernel, records, config, params = small_point(name)
        result = dispatch(get(name), kernel, records, config, params)
        assert result.kernel == "convert"
        assert result.records == len(records)
        assert result.cycles > 0
        assert result.detail["backend"] == name
        assert result.useful_ops == useful_ops(kernel, records)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_functional_outputs_match_oracle(self, name):
        from repro.isa.evaluate import evaluate_stream

        kernel, records, config, params = small_point(name)
        result = dispatch(
            get(name), kernel, records, config, params, functional=True
        )
        assert result.outputs == evaluate_stream(kernel, records)

    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_disk_cache_round_trip_is_faithful(self, name, tmp_path):
        kernel, records, config, params = small_point(name)
        result = dispatch(get(name), kernel, records, config, params)
        fp = run_fingerprint(
            kernel, config, params, records,
            backend=get(name).fingerprint_part(),
        )
        RunCache(tmp_path).put(fp, result)
        replayed = RunCache(tmp_path).get(fp)  # fresh instance: disk tier
        assert replayed == result
        assert replayed.detail["backend"] == name

    def test_stream_rejects_non_streaming_configs(self):
        kernel = spec("convert").kernel()
        backend = get("stream")
        assert not backend.supports(kernel, MachineConfig.baseline())
        assert backend.supports(kernel, MachineConfig.S())

    def test_grid_supports_matches_processor(self):
        """The backend is the single supports() implementation: the
        adapter and the raw processor can never disagree."""
        params = MachineParams(rows=2, cols=2)
        backend = get("grid")
        processor = GridProcessor(params)
        for kernel_name in ("convert", "md5", "rijndael"):
            kernel = spec(kernel_name).kernel()
            for config_name in ("baseline", "S-O-D", "M", "M-D"):
                config = named_config(config_name)
                assert backend.supports(kernel, config, params) == \
                    processor.supports(kernel, config)


class TestFingerprints:
    def test_backend_parts_are_distinct(self):
        parts = [get(name).fingerprint_part() for name in ALL_BACKENDS]
        assert len(set(parts)) == len(parts)

    def test_grid_part_is_the_legacy_default(self):
        """Addresses computed before the backend layer existed (and by
        call sites that never name a backend) are grid addresses."""
        assert get("grid").fingerprint_part() == DEFAULT_BACKEND_PART
        kernel, records, config, params = small_point("grid")
        assert run_fingerprint(kernel, config, params, records) == \
            run_fingerprint(
                kernel, config, params, records,
                backend=get("grid").fingerprint_part(),
            )

    def test_same_point_never_aliases_across_backends(self):
        kernel, records, config, params = small_point("grid")
        fps = {
            run_fingerprint(
                kernel, config, params, records,
                backend=get(name).fingerprint_part(),
            )
            for name in ALL_BACKENDS
        }
        assert len(fps) == len(ALL_BACKENDS)


class TestSweepIntegration:
    @pytest.mark.parametrize("name", ALL_BACKENDS)
    def test_simulate_point_routes_to_the_backend(self, name):
        point = SweepPoint(
            kernel="convert",
            config=config_for(name),
            params=MachineParams(),
            records=16,
            workload_seed=7,
            backend=name,
        )
        result, _ = simulate_point(point)
        assert result.detail["backend"] == name

    def test_point_backend_defaults_to_grid(self):
        point = SweepPoint(
            kernel="convert",
            config=MachineConfig.S(),
            params=MachineParams(),
            records=16,
            workload_seed=7,
        )
        assert point.backend == "grid"
        assert simulate_point(point)[0].detail["backend"] == "grid"

    def test_workers_share_the_disk_cache_across_backends(self, tmp_path):
        point = SweepPoint(
            kernel="fft",
            config=MachineConfig.baseline(),
            params=MachineParams(),
            records=16,
            workload_seed=7,
            cache_dir=str(tmp_path),
            backend="simd",
        )
        first, _ = simulate_point(point)
        cache = RunCache(tmp_path)
        # replayed from disk, not re-simulated
        assert simulate_point(point)[1] == "hit"
        fp = run_fingerprint(
            spec("fft").kernel(),
            point.config,
            point.params,
            spec("fft").workload(16, 7),
            backend=get("simd").fingerprint_part(),
        )
        assert cache.get(fp) == first


class TestExperimentContext:
    def test_second_backend_run_hits_the_cache(self, tmp_path):
        """The acceptance check: a repeated ``--backend simd`` sweep is
        served from the on-disk run cache."""
        from repro.harness import experiments

        def context():
            return experiments.ExperimentContext(
                records=16, large_kernel_records=16,
                cache_dir=tmp_path, backend="simd",
            )

        first_ctx = context()
        first = first_ctx.run("convert", MachineConfig.baseline())
        assert first_ctx.cache.stats.stores == 1

        second_ctx = context()  # fresh process-equivalent: no memory tier
        second = second_ctx.run("convert", MachineConfig.baseline())
        assert second_ctx.cache.stats.hits >= 1
        assert second_ctx.cache.stats.misses == 0
        assert second == first
        assert second.detail["backend"] == "simd"

    def test_backends_never_share_cache_entries(self, tmp_path):
        from repro.harness import experiments

        ctx = experiments.ExperimentContext(
            records=16, large_kernel_records=16, cache_dir=tmp_path,
        )
        grid = ctx.run("convert", MachineConfig.baseline())
        vector = ctx.run("convert", MachineConfig.baseline(),
                         backend="vector")
        assert grid.detail["backend"] == "grid"
        assert vector.detail["backend"] == "vector"
        assert grid.cycles != vector.cycles or grid != vector

    def test_supports_routes_through_the_backend(self):
        from repro.harness import experiments

        ctx = experiments.ExperimentContext(
            records=16, large_kernel_records=16,
        )
        assert not ctx.supports("convert", MachineConfig.baseline(),
                                backend="stream")
        assert ctx.supports("convert", MachineConfig.S(), backend="stream")
        assert ctx.supports("convert", MachineConfig.baseline())
