import sys
import types

import pytest

import spans
from spans import END, PARENT, PASS, PASS_ID, START, Recorder


def span(layer, start, end, parent=None, pass_id=0, value=None, name=None):
    return [layer, name or layer, start, end, parent, pass_id, 1, value]


def test_self_time_of_nested_spans():
    tree = [
        span(PASS, 0.0, 10.0),
        span("harness", 1.0, 6.0, parent=0),
        span("dispatch", 2.0, 4.0, parent=1),
        span("cache", 7.0, 9.0, parent=0),
    ]
    assert spans.self_times(tree) == [3.0, 3.0, 2.0, 2.0]
    layers = spans.per_pass(tree)[0]
    assert layers["harness"]["self_s"] == 3.0
    assert layers[PASS]["self_s"] == 3.0
    total = sum(layer["self_s"] for layer in layers.values())
    assert total == spans.pass_walls(tree)[0]


def test_spans_outside_passes_are_left_out_of_pass_metrics():
    tree = [
        span(PASS, 0.0, 2.0, pass_id=0),
        span("cache", 0.5, 1.0, parent=0, pass_id=0),
        span("service", 3.0, 4.0, pass_id=None),
        span("ledger", 3.2, 3.5, parent=2, pass_id=None),
    ]
    assert set(spans.per_pass(tree)) == {0}
    assert spans.root_seconds(tree, "service") == 1.0


def test_recorder_nests_wrapped_calls_and_numbers_passes():
    recorder = Recorder()
    inner = spans.wrap(recorder, lambda x: [x] * x, "workloads", "inner",
                       value=lambda args, result, state: len(result))
    outer = spans.wrap(recorder, lambda: inner(3), "harness", "outer")
    with recorder.span(PASS, "pass"):
        outer()
    with recorder.span(PASS, "pass"):
        inner(2)
    dumped = recorder.dump()
    assert [s[0] for s in dumped] == [PASS, "harness", "workloads",
                                      PASS, "workloads"]
    assert [s[PARENT] for s in dumped] == [None, 0, 1, None, 3]
    assert [s[PASS_ID] for s in dumped] == [0, 0, 0, 1, 1]
    assert dumped[2][-1] == 3
    per = spans.per_pass(dumped)
    assert per[1]["workloads"]["names"]["inner"] == [1, 2.0]
    for pass_id, wall in spans.pass_walls(dumped).items():
        own = sum(layer["self_s"] for layer in per[pass_id].values())
        assert own == pytest.approx(wall)


def test_wrapped_call_that_raises_closes_its_span_and_reraises():
    recorder = Recorder()
    error = ValueError("boom")

    def fails():
        raise error

    wrapped = spans.wrap(recorder, fails, "cache", "fails",
                         value=lambda args, result, state: 1.0)
    with pytest.raises(ValueError) as caught:
        with recorder.span(PASS, "pass"):
            wrapped()
    assert caught.value is error
    assert caught.traceback[-1].name == "fails"
    dumped = recorder.dump()
    assert len(dumped) == 2
    assert all(s[END] is not None and s[END] >= s[START] for s in dumped)
    assert dumped[1][-1] is None
    # The stack unwound: the next span is a root again.
    index = recorder.open("ledger", "after")
    assert recorder.spans[index][PARENT] is None


def test_dump_drops_open_spans_and_what_is_under_them():
    recorder = Recorder()
    finished = recorder.open(PASS, "pass")
    recorder.close(finished)
    recorder.open(PASS, "still running")
    recorder.close(recorder.open("cache", "child of the open span"))
    assert [s[1] for s in recorder.dump()] == ["pass"]


def test_patch_function_replaces_every_alias_under_the_prefix():
    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")
    other = types.ModuleType("elsewhere")

    def target(x):
        return x + 1

    home.target = target
    user.renamed = target
    other.target = target
    modules = {"fakepkg.home": home, "fakepkg.user": user,
               "elsewhere": other}
    sys.modules.update(modules)
    try:
        recorder = Recorder()
        spans.patch_function(recorder, home, "target", "layer", "fakepkg")
        assert home.target is not target and user.renamed is home.target
        assert other.target is target
        assert user.renamed(1) == 2
        assert recorder.dump()[0][1] == "home.target"
    finally:
        for name in modules:
            sys.modules.pop(name, None)


def test_chrome_trace_renders_complete_events():
    doc = spans.chrome_trace([{"label": "p", "spans": [
        span(PASS, 1.0, 1.5), span("cache", 1.1, 1.2, parent=0)]}])
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert [e["ts"] for e in events] == [0.0, pytest.approx(1e5)]
    assert events[0]["dur"] == pytest.approx(5e5)
