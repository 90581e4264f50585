"""Unit tests for the token view, frozen snapshot stores and the
per-snapshot edge-input memo."""

import pickle

import pytest

from repro.core.linkspace import UNKNOWN_TAG, LogicalLink, UhNode, ip_link
from repro.core.logical import TokenView, logicalize
from repro.core.nd_edge import build_edge_inputs
from repro.core.pathset import (
    EPOCH_POST,
    EPOCH_PRE,
    MeasurementSnapshot,
    PathStore,
    ProbePath,
)
from repro.core.consistency import exclude_sensor_reports
from repro.errors import DiagnosisError

ASN_OF = {
    "10.0.16.1": 1,
    "10.0.16.99": 1,
    "10.0.32.1": 2,
    "10.0.48.1": 3,
    "10.0.48.99": 3,
    "10.0.64.99": 4,
}.get

S1, S3, S4 = "10.0.16.99", "10.0.48.99", "10.0.64.99"


def probe(src, dst, mids, reached=True, epoch=EPOCH_PRE):
    hops = (src,) + tuple(mids) + ((dst,) if reached else ())
    return ProbePath(src=src, dst=dst, hops=hops, reached=reached, epoch=epoch)


def snapshot(pairs_after, view=None):
    """One snapshot over S1->S3 and S1->S4 with the given T+ paths."""
    before, after = PathStore(), PathStore()
    before.add(probe(S1, S3, ["10.0.16.1", "10.0.32.1", "10.0.48.1"]))
    before.add(probe(S1, S4, ["10.0.16.1", "10.0.32.1"]))
    for path in pairs_after:
        after.add(path)
    return MeasurementSnapshot(before=before, after=after, asn_of=ASN_OF, view=view)


def failed_snapshot(view=None):
    return snapshot(
        [
            probe(S1, S3, ["10.0.16.1"], reached=False, epoch=EPOCH_POST),
            probe(S1, S4, ["10.0.16.1", "10.0.32.1"], epoch=EPOCH_POST),
        ],
        view=view,
    )


class TestTokenView:
    def test_links_cached_by_hop_content(self):
        view = TokenView(ASN_OF)
        path = probe(S1, S3, ["10.0.16.1", "10.0.32.1", "10.0.48.1"])
        twin = probe(S1, S3, ["10.0.16.1", "10.0.32.1", "10.0.48.1"])
        assert path is not twin
        links = view.physical(path)
        assert links == path.links()
        assert view.physical(twin) is links
        assert (view.hits, view.misses) == (1, 1)

    def test_logical_matches_logicalize_and_is_shared(self):
        view = TokenView(ASN_OF)
        path = probe(S1, S3, ["10.0.16.1", "10.0.32.1", "10.0.48.1"])
        tokens = view.logical(path)
        assert tokens == logicalize(path, ASN_OF)
        twin = probe(S1, S3, ["10.0.16.1", "10.0.32.1", "10.0.48.1"])
        assert view.logical(twin) is tokens

    def test_reached_flag_is_part_of_the_key(self):
        """Same hops, different ``reached``: the terminal tag differs."""
        view = TokenView(ASN_OF)
        reached = ProbePath(S1, "10.0.32.1", (S1, "10.0.16.1", "10.0.32.1"), True)
        truncated = ProbePath(S1, S3, (S1, "10.0.16.1", "10.0.32.1"), False)
        assert view.logical(reached) != view.logical(truncated)
        assert view.logical(truncated)[-1] == LogicalLink(
            "10.0.16.1", "10.0.32.1", tag=UNKNOWN_TAG
        )
        assert view.logical(reached) == logicalize(reached, ASN_OF)
        assert view.logical(truncated) == logicalize(truncated, ASN_OF)

    def test_stars_at_one_position_never_share_an_entry(self):
        """A UH hop names its pair and epoch, so equal-looking traces of
        different pairs or epochs expand to distinct tokens."""
        view = TokenView(ASN_OF)
        paths = [
            ProbePath(src, dst, (src, UhNode(src, dst, epoch, 1), dst), True, epoch)
            for src, dst in ((S1, S3), (S1, S4))
            for epoch in (EPOCH_PRE, EPOCH_POST)
        ]
        expansions = [view.logical(path) for path in paths]
        assert view.misses == len(paths)
        assert len(set(expansions)) == len(paths)
        for path, tokens in zip(paths, expansions):
            assert tokens == logicalize(path, ASN_OF)
            assert tokens[0] == ip_link(path.src, path.hops[1])

    def test_capacity_bounds_entries(self):
        view = TokenView(ASN_OF, capacity=2)
        for index in range(1, 6):
            view.physical(ProbePath(S1, S3, (S1, f"10.0.16.{index}"), False))
        assert len(view) == 2


class TestSnapshotStores:
    def test_wrapped_store_refuses_add(self):
        snap = failed_snapshot()
        extra = probe(S3, S1, ["10.0.48.1"])
        with pytest.raises(DiagnosisError, match="belongs to a snapshot"):
            snap.before.add(extra)
        with pytest.raises(DiagnosisError, match="belongs to a snapshot"):
            snap.after.add(probe(S3, S1, ["10.0.48.1"], epoch=EPOCH_POST))
        assert S3 not in {src for src, _dst in snap.before.pairs()}

    def test_unwrapped_store_still_accepts_add(self):
        store = PathStore()
        store.add(probe(S1, S3, []))
        assert len(store) == 1 and not store.frozen

    def test_shared_view_must_use_the_snapshot_mapping(self):
        with pytest.raises(DiagnosisError, match="asn_of"):
            failed_snapshot(view=TokenView(lambda _address: None))

    def test_pickle_drops_the_view_and_memos(self):
        view = TokenView(ASN_OF)
        snap = failed_snapshot(view=view)
        build_edge_inputs(snap)
        assert len(view) and snap.edge_inputs_memo
        restored = pickle.loads(pickle.dumps(snap))
        assert b"TokenView" not in pickle.dumps(snap)
        assert restored.view is not view and len(restored.view) == 0
        assert restored.edge_inputs_memo == {}
        assert restored.before.frozen and restored.after.frozen
        assert restored.failed_pairs() == snap.failed_pairs()
        assert build_edge_inputs(restored).failure_sets == (
            build_edge_inputs(snap).failure_sets
        )

    def test_view_takes_no_part_in_equality_or_repr(self):
        snap = failed_snapshot()
        other = MeasurementSnapshot(
            before=snap.before, after=snap.after, asn_of=ASN_OF
        )
        assert snap == other
        assert "view" not in repr(snap)


class TestEdgeInputsMemo:
    def test_one_build_per_flag_combination(self):
        snap = failed_snapshot()
        inputs = build_edge_inputs(snap)
        assert build_edge_inputs(snap) is inputs
        assert build_edge_inputs(snap, use_partial_traces=True) is not inputs
        assert set(snap.edge_inputs_memo) == {(False, False), (True, False)}

    def test_edge_inputs_are_read_only(self):
        inputs = build_edge_inputs(failed_snapshot())
        with pytest.raises(AttributeError):
            inputs.graph = None

    def test_re_diagnosis_child_shares_the_view(self):
        snap = failed_snapshot()
        build_edge_inputs(snap)
        child = exclude_sensor_reports(snap, S3)
        assert child.view is snap.view
        misses = snap.view.misses
        build_edge_inputs(child)
        assert snap.view.misses == misses  # every path already expanded
