"""Tests for the ASCII and SVG visualizations."""

import pytest

from repro.sim.config import DAY_S, SimulationConfig
from repro.sim.world import World
from repro.viz.ascii import render_field, render_series
from repro.viz.svg import field_svg, series_svg, write_svg


@pytest.fixture(scope="module")
def snapshot():
    cfg = SimulationConfig.small(sim_time_s=0.2 * DAY_S, seed=4)
    w = World(cfg)
    w.state.sim.run_until(cfg.sim_time_s / 2)
    return w.snapshot(), cfg


class TestAsciiField:
    def test_renders_grid_with_markers(self, snapshot):
        snap, cfg = snapshot
        out = render_field(snap, cfg.side_length_m, width=50, height=25)
        lines = out.splitlines()
        assert lines[0].startswith("+")
        assert len(lines) == 25 + 3  # grid + borders + legend
        assert "B" in out  # base station
        assert "T" in out  # targets
        assert "." in out or "o" in out

    def test_no_legend(self, snapshot):
        snap, cfg = snapshot
        out = render_field(snap, cfg.side_length_m, legend=False)
        assert "vehicle" not in out

    def test_too_small_grid(self, snapshot):
        snap, cfg = snapshot
        with pytest.raises(ValueError):
            render_field(snap, cfg.side_length_m, width=1)


class TestAsciiSeries:
    def test_basic_chart(self):
        out = render_series(
            {"a": ([0, 1, 2], [0.0, 1.0, 4.0]), "b": ([0, 1, 2], [4.0, 1.0, 0.0])},
            title="demo",
        )
        assert "demo" in out
        assert "* a" in out and "+ b" in out

    def test_flat_series(self):
        out = render_series({"flat": ([0, 1], [2.0, 2.0])})
        assert "flat" in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_series({})


class TestSvg:
    def test_field_svg_wellformed(self, snapshot):
        snap, cfg = snapshot
        svg = field_svg(snap, cfg.side_length_m, sensing_range=cfg.sensing_range_m, title="t")
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "<circle" in svg and "<rect" in svg

    def test_field_svg_parses_as_xml(self, snapshot):
        import xml.etree.ElementTree as ET

        snap, cfg = snapshot
        ET.fromstring(field_svg(snap, cfg.side_length_m))

    def test_series_svg_parses_as_xml(self):
        import xml.etree.ElementTree as ET

        svg = series_svg(
            {"greedy": ([0, 0.5, 1.0], [3.1, 2.9, 2.4])},
            title="Fig 6a",
            x_label="ERP",
            y_label="MJ",
        )
        ET.fromstring(svg)
        assert "Fig 6a" in svg and "ERP" in svg

    def test_series_svg_escapes(self):
        svg = series_svg({"a<b": ([0, 1], [0, 1])}, title="x & y")
        assert "a&lt;b" in svg and "x &amp; y" in svg

    def test_write_svg(self, tmp_path):
        path = tmp_path / "chart.svg"
        write_svg(path, series_svg({"s": ([0, 1], [1, 2])}))
        assert path.read_text().startswith("<svg")

    def test_validation(self, snapshot):
        snap, cfg = snapshot
        with pytest.raises(ValueError):
            field_svg(snap, cfg.side_length_m, size_px=10)
        with pytest.raises(ValueError):
            series_svg({})
