import pytest

import calibrate

REF = calibrate.REFERENCE_S


def test_scale_quotes_seconds_at_the_reference_speed():
    assert calibrate.scale(2.0, REF, REF) == pytest.approx(2.0)
    # Brackets reading twice the reference: the CPU ran at half speed.
    assert calibrate.scale(2.0, 2 * REF) == pytest.approx(1.0)
    assert calibrate.scale(2.0, REF, 3 * REF) == pytest.approx(1.0)


def test_span_leaves_brackets_out_and_scales_each_stretch():
    # A bracket read from 1.0 to 1.5 inside a span from 0.0 to 3.5.
    marks = [(1.0, 1.5, 2 * REF)]
    raw, scaled, factors = calibrate.span(0.0, 3.5, marks, REF, 2 * REF)
    assert raw == pytest.approx(3.0)
    # 1 s between readings REF and 2 REF, then 2 s between 2 REF and 2 REF.
    assert scaled == pytest.approx(1.0 / 1.5 + 2.0 / 2.0)
    assert factors == [pytest.approx(1 / 1.5)]


def test_span_without_marks_uses_the_brackets_either_side():
    raw, scaled, factors = calibrate.span(0.0, 2.0, [], REF, REF)
    assert (raw, scaled, factors) == (pytest.approx(2.0),
                                      pytest.approx(2.0), [])


def test_bracketed_dict_reads_a_bracket_after_each_item():
    marks = []
    seconds = calibrate.BracketedDict(marks)
    seconds["a"] = 0.1
    seconds["b"] = 0.2
    assert dict(seconds) == {"a": 0.1, "b": 0.2}
    assert len(marks) == 2
    assert all(start <= end and reading > 0 for start, end, reading in marks)
    assert marks[0][1] <= marks[1][0]
