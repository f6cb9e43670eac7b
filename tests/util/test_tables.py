"""ASCII table renderer."""

import pytest

from repro.util.tables import render_table


def test_basic_alignment():
    out = render_table(["name", "value"], [["a", 1.5], ["bb", 10.0]])
    lines = out.splitlines()
    assert lines[0].startswith("name")
    assert "1.50" in out
    assert "10.00" in out


def test_title_and_rule():
    out = render_table(["x"], [["y"]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert lines[1] == "="


def test_row_width_mismatch_rejected():
    with pytest.raises(ValueError):
        render_table(["a", "b"], [["only-one"]])

def test_large_numbers_get_thousands_separator():
    out = render_table(["v"], [[123456.0]])
    assert "123,456" in out


def test_small_floats_keep_precision():
    out = render_table(["v"], [[0.0123]])
    assert "0.0123" in out


def test_zero_renders_as_zero():
    out = render_table(["v"], [[0.0]])
    assert out.splitlines()[-1].strip() == "0"


def test_empty_rows_renders_header_only():
    out = render_table(["a", "b"], [])
    assert len(out.splitlines()) == 2
