"""Cross-shard merging: one global episode story over N shards.

Sharding partitions *pairs*, not *failures*.  A core-link failure alarms
pairs whose destinations hash to different shards, and the
identifiability literature (Bartolini et al., arXiv:1903.10636; Ma et
al., arXiv:1509.06333) is blunt about what happens if each shard then
diagnoses alone: a shard that sees only a slice of the probe paths
crossing the suspect links can neither localise the failure nor even
know its verdict is under-determined.  So the engine never diagnoses
per shard.  Shards own the *ingest-side* state (window slots, pair alarm
debounce — both cleanly per-pair); the snapshot is assembled over every
shard window (:func:`~repro.stream.window.assemble_snapshot`), and
:class:`CrossShardMerger` feeds the union of the shards' alarmed pairs
into one global :class:`~repro.stream.episodes.EpisodeLifecycle` per
tick, so episode ids, open/update/close edges and blast radii are
exactly the single-shard ones.  It also counts how many episodes
actually spanned shards — the number that justifies all of this.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.stream.episodes import EpisodeLifecycle, EpisodeTransition

__all__ = ["CrossShardMerger"]

Pair = Tuple[str, str]


class CrossShardMerger:
    """One global episode lifecycle fed by every shard's alarms.

    Each tick the engine hands over the per-shard alarmed-pair
    tuples; the merger unions them (disjoint by construction — a pair
    alarms only on its owning shard) and advances the single lifecycle.
    Because :class:`PairAlarmTracker` partitions losslessly, the union
    equals the single-tracker alarmed set, and so the transitions are
    identical to single-shard replay.
    """

    def __init__(self) -> None:
        self.lifecycle = EpisodeLifecycle()
        self.cross_shard_episodes = 0
        self._open_span: int = 0

    def advance(
        self, tick: int, shard_alarms: Sequence[Tuple[Pair, ...]]
    ) -> List[EpisodeTransition]:
        """Merge this tick's shard alarms and advance the lifecycle."""
        merged: List[Pair] = []
        contributing = 0
        for alarmed in shard_alarms:
            if alarmed:
                contributing += 1
            merged.extend(alarmed)
        transitions = self.lifecycle.advance(tick, merged)
        # An episode "spans shards" if at any point while it was open,
        # more than one shard contributed alarmed pairs.  Count each
        # such episode once, at the first tick the span is observed.
        if self.lifecycle.open_episode is not None:
            if contributing > 1 and self._open_span <= 1:
                self.cross_shard_episodes += 1
            self._open_span = max(self._open_span, contributing)
        else:
            self._open_span = 0
        return transitions

    @property
    def episodes(self):
        return self.lifecycle.episodes

    @property
    def open_episode(self):
        return self.lifecycle.open_episode

    def counters(self) -> Dict[str, int]:
        counts = self.lifecycle.counters()
        counts["cross_shard_episodes"] = self.cross_shard_episodes
        return counts
