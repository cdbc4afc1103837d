"""RunCache: memory-tier identity, disk round-trips, corruption safety."""

import json

from repro.kernels import spec
from repro.machine import GridProcessor, MachineConfig, MachineParams
from repro.perf import RunCache, run_fingerprint, run_result_from_dict, \
    run_result_to_dict


def simulate(name="fft", config=None):
    s = spec(name)
    config = config or MachineConfig.S()
    params = MachineParams()
    records = s.workload(8, 7)
    result = GridProcessor(params).run(s.kernel(), records, config)
    key = run_fingerprint(s.kernel(), config, params, records)
    return key, result


class TestMemoryTier:
    def test_hit_returns_the_same_object(self):
        key, result = simulate()
        cache = RunCache()
        cache.put(key, result)
        assert cache.get(key) is result

    def test_miss_returns_none(self):
        cache = RunCache()
        assert cache.get("0" * 64) is None
        assert cache.stats.misses == 1

    def test_stats_accounting(self):
        key, result = simulate()
        cache = RunCache()
        cache.get(key)
        cache.put(key, result)
        cache.get(key)
        cache.get(key)
        assert cache.stats.memory_hits == 2
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 2 / 3


class TestDiskTier:
    def test_round_trip_preserves_result(self, tmp_path):
        key, result = simulate()
        RunCache(tmp_path).put(key, result)
        reread = RunCache(tmp_path).get(key)
        assert reread == result
        assert reread.window == result.window

    def test_window_timing_survives_serialization(self):
        key, result = simulate()
        assert result.window is not None
        doc = json.loads(json.dumps(run_result_to_dict(result)))
        assert run_result_from_dict(doc) == result

    def test_corrupt_file_is_a_miss(self, tmp_path):
        key, result = simulate()
        cache = RunCache(tmp_path)
        cache.put(key, result)
        cache._path(key).write_text("{ not json", encoding="utf-8")
        fresh = RunCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.misses == 1

    def test_stale_schema_is_a_miss(self, tmp_path):
        key, result = simulate()
        cache = RunCache(tmp_path)
        cache.put(key, result)
        doc = run_result_to_dict(result)
        doc["schema"] = -1
        cache._path(key).write_text(json.dumps(doc), encoding="utf-8")
        assert RunCache(tmp_path).get(key) is None

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        key, result = simulate()
        RunCache(tmp_path).put(key, result)
        cache = RunCache(tmp_path)
        first = cache.get(key)
        second = cache.get(key)
        assert first is second
        assert cache.stats.disk_hits == 1
        assert cache.stats.memory_hits == 1

    def test_extra_field_doc_is_a_miss(self, tmp_path):
        """A doc from a build whose RunResult had an extra field raises
        TypeError from ``RunResult(**doc)`` — contract: a miss."""
        key, result = simulate()
        cache = RunCache(tmp_path)
        cache.put(key, result)
        doc = run_result_to_dict(result)
        doc["field_from_the_future"] = 1
        cache._path(key).write_text(json.dumps(doc), encoding="utf-8")
        fresh = RunCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.misses == 1

    def test_missing_field_doc_is_a_miss(self, tmp_path):
        key, result = simulate()
        cache = RunCache(tmp_path)
        cache.put(key, result)
        doc = run_result_to_dict(result)
        del doc["cycles"]
        cache._path(key).write_text(json.dumps(doc), encoding="utf-8")
        fresh = RunCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.misses == 1

    def test_non_dict_json_is_a_miss(self, tmp_path):
        """A file holding a JSON array/scalar once raised AttributeError
        on ``doc.get``; it must degrade to a miss like any corruption."""
        key, result = simulate()
        cache = RunCache(tmp_path)
        cache.put(key, result)
        for payload in ("[1, 2, 3]", "42", "null", '"text"'):
            cache._path(key).write_text(payload, encoding="utf-8")
            fresh = RunCache(tmp_path)
            assert fresh.get(key) is None, payload
            assert fresh.stats.misses == 1

    def test_clear_memory_keeps_disk(self, tmp_path):
        key, result = simulate()
        cache = RunCache(tmp_path)
        cache.put(key, result)
        cache.clear_memory()
        assert len(cache) == 0
        assert cache.get(key) == result
        assert cache.stats.disk_hits == 1


class TestSerializationDeterminism:
    def test_disk_doc_bytes_stable_across_detail_order(self, tmp_path):
        """Two results identical up to ``detail`` insertion order must
        serialize byte-for-byte identically (sorted-key JSON) — ledger
        rows and cache entries are comparable as bytes."""
        import dataclasses

        key, result = simulate()
        assert len(result.detail) > 1
        shuffled = dataclasses.replace(
            result, detail=dict(reversed(list(result.detail.items())))
        )
        assert shuffled == result  # dict equality ignores order

        cache_a = RunCache(tmp_path / "a")
        cache_b = RunCache(tmp_path / "b")
        cache_a.put(key, result)
        cache_b.put(key, shuffled)
        bytes_a = cache_a._path(key).read_bytes()
        bytes_b = cache_b._path(key).read_bytes()
        assert bytes_a == bytes_b

    def test_disk_doc_keys_sorted(self, tmp_path):
        key, result = simulate()
        cache = RunCache(tmp_path)
        cache.put(key, result)
        doc = json.loads(cache._path(key).read_text(encoding="utf-8"))
        assert list(doc) == sorted(doc)
        assert list(doc["detail"]) == sorted(doc["detail"])

    def test_disk_doc_bytes_are_sorted_compact_json(self, tmp_path):
        """The stored file is exactly the sorted-key compact encoding."""
        key, result = simulate()
        cache = RunCache(tmp_path)
        cache.put(key, result)
        stored = cache._path(key).read_text(encoding="utf-8")
        assert stored == json.dumps(run_result_to_dict(result),
                                    sort_keys=True)


def backend_results():
    """Results of every backend, with and without a window and outputs."""
    from repro.backends import backend_names, get
    from repro.machine.config import named_config

    s = spec("fft")
    kernel, records, params = s.kernel(), s.workload(8, 3), MachineParams()
    results = []
    for name in backend_names():
        backend = get(name)
        for config_name in ("baseline", "S-O-D", "M"):
            config = named_config(config_name)
            if not backend.supports(kernel, config, params):
                continue
            for functional in (False, True):
                results.append(backend.run(kernel, records, config, params,
                                           functional=functional))
    assert {r.window is None for r in results} == {False, True}
    assert {r.outputs is None for r in results} == {False, True}
    return results


def container_types(value):
    """The value's nesting of container types, leaves as their type."""
    if isinstance(value, dict):
        return dict, {key: container_types(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value), [container_types(v) for v in value]
    return type(value)


class TestEncodingWithoutReflection:
    """``run_result_to_dict`` and ``copy_result`` write each field out;
    ``dataclasses.asdict`` and ``copy.deepcopy`` stay the references."""

    def test_dict_is_asdict_plus_schema(self):
        import dataclasses

        from repro.perf.fingerprint import SCHEMA_VERSION

        for result in backend_results():
            reference = dataclasses.asdict(result)
            reference["schema"] = SCHEMA_VERSION
            doc = run_result_to_dict(result)
            assert doc == reference, result
            assert container_types(doc) == container_types(reference)
            assert list(doc) == list(reference)
            assert run_result_from_dict(doc) == result

    def test_dict_shares_nothing_mutable_with_the_result(self):
        for result in backend_results():
            doc = run_result_to_dict(result)
            assert doc["detail"] is not result.detail
            if result.window is not None:
                assert doc["window"]["detail"] is not result.window.detail
            if result.outputs is not None:
                assert doc["outputs"] is not result.outputs
                assert all(a is not b for a, b in
                           zip(doc["outputs"], result.outputs))

    def test_copy_equals_deepcopy_and_shares_no_mutable_state(self):
        import copy

        from repro.perf.cache import copy_result

        for result in backend_results():
            duplicate = copy_result(result)
            assert duplicate == copy.deepcopy(result) == result
            assert duplicate.detail is not result.detail
            if result.window is not None:
                assert duplicate.window is not result.window
                assert duplicate.window.detail is not result.window.detail
            if result.outputs is not None:
                assert duplicate.outputs is not result.outputs
                assert all(a is not b for a, b in
                           zip(duplicate.outputs, result.outputs))
            duplicate.detail["poison"] = 1.0
            assert "poison" not in result.detail
