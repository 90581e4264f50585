"""Unit tests for the text/ASCII rendering of figure results."""

from collections import Counter

import pytest

from repro.experiments.figures.base import FigureConfig, FigureResult, Series
from repro.experiments.report import (
    render_ascii_chart,
    render_figure,
    render_runner_stats,
)
from repro.experiments.runner import RunnerStats


@pytest.fixture
def result():
    return FigureResult(
        figure_id="figT",
        title="test figure",
        series=[
            Series("alpha", [(0.0, 0.0), (1.0, 1.0)], "x", "y"),
            Series("beta", [(0.0, 1.0), (1.0, 0.0)], "x", "y"),
        ],
        summaries={"alpha": {"n": 2.0, "mean": 0.5}},
        notes=["alpha rises", "beta falls"],
    )


class TestRenderFigure:
    def test_contains_all_sections(self, result):
        text = render_figure(result)
        assert "figT: test figure" in text
        assert "-- alpha" in text and "-- beta" in text
        assert "summaries" in text and "mean=0.500" in text
        assert "alpha rises" in text
        assert "o=alpha" in text  # the chart legend

    def test_chart_can_be_disabled(self, result):
        text = render_figure(result, chart=False)
        assert "o=alpha" not in text
        assert "-- alpha" in text

    def test_result_render_method(self, result):
        assert result.render() == render_figure(result)

    def test_series_by_name(self, result):
        assert result.series_by_name("beta").points[0] == (0.0, 1.0)
        with pytest.raises(KeyError):
            result.series_by_name("gamma")


class TestAsciiChart:
    def test_markers_land_at_extremes(self):
        chart = render_ascii_chart(
            [Series("s", [(0.0, 0.0), (10.0, 5.0)], "x", "y")],
            width=20,
            height=6,
        )
        lines = chart.splitlines()
        assert lines[0].endswith("o")  # top-right: the maximum point
        assert "5.00" in lines[0]
        assert "0.00" in lines[5]

    def test_empty_series_handled(self):
        assert render_ascii_chart([]) == "(no data points)"

    def test_degenerate_single_point(self):
        chart = render_ascii_chart([Series("s", [(1.0, 1.0)], "x", "y")])
        assert "o" in chart

    def test_many_series_cycle_markers(self):
        series = [
            Series(f"s{i}", [(float(i), float(i))], "x", "y") for i in range(10)
        ]
        chart = render_ascii_chart(series)
        assert "o=s0" in chart and "o=s8" in chart  # marker cycle wraps


class TestFigureConfigDefaults:
    def test_defaults_are_bench_scale(self):
        config = FigureConfig()
        assert config.placements < 10
        assert config.failures_per_placement < 100
        assert config.n_sensors == 10


class TestRenderRunnerStats:
    def test_reports_caches_convergence_and_times(self):
        stats = RunnerStats(
            workers=2,
            placements=4,
            records=40,
            scenarios_sampled=50,
            scenarios_rejected=10,
            cache=Counter(
                trace_cache_entries=100,
                trace_cache_hits=75,
                trace_cache_misses=25,
                trace_cache_evictions=5,
                routing_cache_entries=20,
                routing_cache_hits=30,
                routing_cache_misses=10,
                routing_cache_evictions=2,
                full_converges=4,
                incremental_converges=36,
                prefixes_converged=120,
                prefixes_reused=280,
            ),
            setup_seconds=4.0,
            scenario_seconds=8.0,
            wall_seconds=6.0,
        )
        text = render_runner_stats(stats)
        assert "trace cache:" in text and "(hit-rate=0.75)" in text
        assert "routing cache:" in text and "evictions=2" in text
        assert "convergence: full=4  incremental=36" in text
        assert "(reuse-rate=0.70)" in text
        # Phase times are aggregate CPU seconds; wall is reported apart.
        assert "setup-cpu=4.00s" in text
        assert "aggregate CPU seconds across 2 worker(s)" in text
        assert "wall=6.00s" in text and "(cpu/wall=2.00x)" in text

    def test_zero_denominators_render_as_zero_rates(self):
        text = render_runner_stats(RunnerStats())
        assert "(hit-rate=0.00)" in text
        assert "(reuse-rate=0.00)" in text
        assert "(cpu/wall=0.00x)" in text
