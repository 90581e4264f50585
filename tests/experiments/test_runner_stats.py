"""Unit tests for the experiment runner, scoring helpers and statistics."""

import random

import pytest

from repro.core.diagnoser import NetDiagnoser
from repro.errors import ReproError
from repro.experiments.jobs import ResearchTopoFactory, StubPlacement
from repro.experiments.runner import (
    PlacementStats,
    RunnerStats,
    build_placement_jobs,
    choose_blocked_ases,
    covered_ases,
    ground_truth_ases,
    ground_truth_links,
    run_scenario,
)
from repro.experiments.stats import binned_means, cdf, mean, ratio, summarize
from repro.netsim.events import LinkFailureEvent


class TestGroundTruth:
    def test_ground_truth_links_are_physical(self, research_session):
        lid = research_session.sampler.probed_links[0]
        event = LinkFailureEvent((lid,))
        truth = ground_truth_links(research_session.net, event)
        assert len(truth) == 1
        link = research_session.net.link(lid)
        token = next(iter(truth))
        assert {token.lo, token.hi} == {
            research_session.net.router(link.a).address,
            research_session.net.router(link.b).address,
        }

    def test_ground_truth_ases(self, research_session):
        lid = research_session.sampler.probed_inter_links[0]
        truth = ground_truth_ases(research_session.net, LinkFailureEvent((lid,)))
        assert truth == frozenset(research_session.net.link_asns(lid))


class TestCoverage:
    def test_covered_ases_include_sensor_ases(self, research_session):
        covered = covered_ases(research_session, research_session.base_state)
        sensor_asns = {
            research_session.net.asn_of_router(s.router_id)
            for s in research_session.sensors
        }
        assert sensor_asns <= covered

    def test_blocked_choice_respects_protections(self, research_session):
        rng = random.Random(1)
        asx = research_session.topo.core_asns[0]
        blocked = choose_blocked_ases(
            research_session, 1.0, rng, protected=frozenset({asx})
        )
        assert asx not in blocked
        sensor_asns = {
            research_session.net.asn_of_router(s.router_id)
            for s in research_session.sensors
        }
        assert not blocked & sensor_asns

    def test_blocked_choice_honors_multi_as_protected_set(
        self, research_session
    ):
        rng = random.Random(2)
        protected = frozenset(
            covered_ases(research_session, research_session.base_state)
        )
        # Protecting the whole covered set leaves nothing to block, even
        # at fraction 1.0 — AS-X never hides from itself, however large
        # the protected set grows.
        assert (
            choose_blocked_ases(research_session, 1.0, rng, protected=protected)
            == frozenset()
        )

    def test_blocked_fraction_zero_is_empty(self, research_session):
        assert (
            choose_blocked_ases(research_session, 0.0, random.Random(1))
            == frozenset()
        )


class TestRunScenario:
    def test_record_carries_scores_for_every_diagnoser(self, research_session):
        scenario = research_session.sampler.sample("link-1")
        record = run_scenario(
            research_session,
            scenario,
            {
                "tomo": NetDiagnoser("tomo"),
                "nd-edge": NetDiagnoser("nd-edge"),
            },
        )
        assert set(record.scores) == {"tomo", "nd-edge"}
        assert record.kind == "link-1"
        assert 0.0 < record.diagnosability <= 1.0
        assert record.n_failed_pairs > 0
        for score in record.scores.values():
            assert 0.0 <= score.link.sensitivity <= 1.0
            assert 0.0 <= score.link.specificity <= 1.0
            assert 0.0 <= score.as_level.sensitivity <= 1.0
            assert score.hypothesis_size >= score.physical_hypothesis_size >= 0

    def test_control_plane_diagnoser_gets_its_view(self, research_session):
        scenario = research_session.sampler.sample("link-1")
        record = run_scenario(
            research_session,
            scenario,
            {"nd-bgpigp": NetDiagnoser("nd-bgpigp")},
            asx=research_session.topo.core_asns[0],
        )
        assert "nd-bgpigp" in record.scores


class TestStats:
    def test_mean_and_empty(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ReproError):
            mean([])

    def test_cdf_shape(self):
        points = cdf([0.5, 0.0, 0.5, 1.0])
        assert points == [(0.0, 0.25), (0.5, 0.75), (1.0, 1.0)]
        with pytest.raises(ReproError):
            cdf([])

    def test_summarize_extreme_masses(self):
        summary = summarize([0.0, 0.0, 1.0, 0.5])
        assert summary["frac_zero"] == 0.5
        assert summary["frac_one"] == 0.25
        assert summary["n"] == 4.0
        assert 0.0 <= summary["p10"] <= summary["p50"] <= summary["p90"] <= 1.0

    def test_binned_means_trend(self):
        points = [(0.0, 0.0), (0.1, 0.2), (0.9, 0.8), (1.0, 1.0)]
        trend = binned_means(points, bins=2)
        assert len(trend) == 2
        assert trend[0][1] < trend[1][1]

    def test_binned_means_degenerate_x(self):
        assert binned_means([(0.5, 1.0), (0.5, 0.0)]) == [(0.5, 0.5)]

    def test_ratio_tolerates_zero_denominator(self):
        assert ratio(3.0, 4.0) == 0.75
        assert ratio(3.0, 0.0) == 0.0


class TestStatsAccounting:
    def test_placement_keeps_cache_stats_snapshot(self):
        job = build_placement_jobs(
            topo_factory=ResearchTopoFactory(topo_seed=7, n_tier2=4, n_stub=16),
            placement_fn=StubPlacement(5),
            kinds=("link-1",),
            diagnosers={"tomo": NetDiagnoser("tomo")},
            placements=1,
            failures_per_placement=1,
            seed=0,
        )[0]
        stats = job.run().stats
        # The placement keeps the session's cache_stats() snapshot as is:
        # the cache and convergence counter names live in the simulator.
        assert {
            "trace_cache_hits",
            "routing_cache_evictions",
            "prefixes_reused",
        } <= set(stats.cache)
        assert stats.cache["trace_cache_misses"] > 0
        assert all(isinstance(value, int) for value in stats.cache.values())
        assert not hasattr(stats, "trace_cache_hits")

    def test_absorb_sums_cache_and_convergence_counters(self):
        total = RunnerStats(workers=2)
        for index in range(2):
            placement = PlacementStats(
                placement_index=index,
                records=5,
                cache={
                    "trace_cache_hits": 10,
                    "trace_cache_evictions": 1,
                    "routing_cache_misses": 3,
                    "full_converges": 1,
                    "incremental_converges": 4,
                    "prefixes_converged": 20,
                    "prefixes_reused": 60,
                },
                setup_seconds=1.5,
                scenario_seconds=2.5,
            )
            total.absorb(placement)
        assert total.placements == 2
        assert total.records == 10
        assert total.cache["trace_cache_hits"] == 20
        assert total.cache["trace_cache_evictions"] == 2
        assert total.cache["routing_cache_misses"] == 6
        assert total.cache["full_converges"] == 2
        assert total.cache["incremental_converges"] == 8
        assert total.cache["prefixes_converged"] == 40
        assert total.cache["prefixes_reused"] == 120
        # Phase times sum across placements: aggregate CPU seconds, while
        # wall_seconds stays whatever the batch caller measured.
        assert total.setup_seconds == 3.0
        assert total.scenario_seconds == 5.0
        assert total.wall_seconds == 0.0
        assert len(total.per_placement) == 2


class TestEnsembleAccounting:
    """Ensemble verdict tallies on the degradation/runner stats path."""

    def test_degradation_report_records_verdicts_without_degrading(self):
        from repro.faults.report import DegradationReport

        report = DegradationReport()
        report.record_ensemble_verdict("agree")
        report.record_ensemble_verdict("partial")
        report.record_ensemble_verdict("conflict")
        assert report.ensemble_agreements == 1
        assert report.ensemble_partials == 1
        assert report.ensemble_conflicts == 1
        # Observations, not faults: an agreeing ensemble is not degraded.
        assert not report.is_degraded()

    def test_unknown_verdict_raises_typed_error(self):
        from repro.errors import EmpathyError
        from repro.faults.report import DegradationReport

        with pytest.raises(EmpathyError):
            DegradationReport().record_ensemble_verdict("shrug")

    def test_runner_stats_fold_and_disagreement_view(self):
        from repro.experiments.runner import PlacementStats, RunnerStats
        from repro.faults.report import DegradationReport

        report = DegradationReport()
        report.record_ensemble_verdict("agree")
        report.record_ensemble_verdict("conflict")
        placement = PlacementStats(placement_index=0)
        placement.degradation.merge(report)
        stats = RunnerStats()
        stats.absorb(placement)
        assert stats.degradation.any_ensemble_seen()
        assert not stats.degradation.any_faults_seen()
        tally = stats.degradation.ensemble_disagreement()
        assert tally.as_dict() == {"agree": 1, "partial": 0, "conflict": 1}
        assert tally.agreement_rate() == pytest.approx(0.5)

    def test_render_surfaces_the_ensemble_line(self):
        from repro.experiments.report import render_runner_stats
        from repro.experiments.runner import RunnerStats
        from repro.faults.report import DegradationReport

        stats = RunnerStats()
        quiet = render_runner_stats(stats)
        assert "ensemble:" not in quiet

        from repro.experiments.runner import PlacementStats

        report = DegradationReport()
        report.record_ensemble_verdict("agree")
        placement = PlacementStats(placement_index=0)
        placement.degradation.merge(report)
        stats.absorb(placement)
        text = render_runner_stats(stats)
        assert "-- runner stats" in text
        assert "ensemble: agree=1  partial=0  conflict=0" in text
        assert "agreement-rate=1.00" in text
