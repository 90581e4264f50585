"""Benchmark the degradation-curve sweep: quality vs measurement fault rate."""

from repro.experiments.figures import degradation

from conftest import run_once


def test_degradation_curves(benchmark, bench_config, record_figure):
    result = run_once(benchmark, lambda: degradation.run(bench_config))
    record_figure(result)
    stats = result.runner_stats
    # The sweep injected real faults and every run still completed.
    assert stats.degradation.any_faults_seen()
    assert stats.records > 0
    for label in ("tomo", "nd-edge", "nd-bgpigp", "nd-lg"):
        sens = dict(result.series_by_name(f"{label}/sensitivity").points)
        # Clean measurements first: rate 0 is the undegraded baseline...
        assert sens[0.0] > 0.0
        # ...and heavy faults cannot *improve* on it.
        assert sens[0.5] <= sens[0.0]
