"""Tests for ASCII charts."""

from repro.experiments.charts import ascii_chart


def test_chart_places_series_by_value():
    text = ascii_chart(["1", "2"], {"a": [0.0, 10.0]}, height=11,
                       y_max=10.0, y_min=0.0)
    lines = text.splitlines()
    # value 10 at top row, value 0 at bottom row
    assert "L" in lines[0]
    assert "L" in lines[10]


def test_chart_overlap_marker():
    text = ascii_chart(["x"], {"a": [5.0], "b": [5.0]}, y_max=10.0)
    assert "#" in text


def test_chart_handles_missing_points():
    text = ascii_chart(["1", "2"], {"a": [None, 3.0]})
    assert "(no data)" not in text


def test_chart_empty_series():
    assert ascii_chart(["1"], {"a": [None]}) == "(no data)"


def test_chart_legend_and_labels():
    text = ascii_chart(["1", "128"], {"Linux": [1.0, 2.0],
                                      "McKernel": [2.0, 1.0]},
                       y_label="pct")
    assert "L=Linux" in text and "m=McKernel" in text
    assert text.startswith("pct\n")
    assert "128" in text


def test_scaling_render_includes_chart():
    from repro.apps import LAMMPS
    from repro.experiments import run_scaling
    res = run_scaling(LAMMPS, node_counts=(1, 2), iterations=2)
    text = res.render()
    assert "% of Linux" in text
    assert "L=Linux" in text
