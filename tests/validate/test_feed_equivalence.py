"""Batch and stream feed screening agree message for message.

The batch pipeline screens a whole control-plane feed at once
(:meth:`repro.validate.Validator.screen_feed`); the stream ingestor
screens the same messages one at a time as they arrive.  On any feed —
duplicates and backwards ``seq`` values included — the two must keep
the same messages, drop as many as :func:`repro.validate.check_feed`
reports, and under ``strict`` stop at the same first offending record.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.control_plane import IgpLinkDownObservation, WithdrawalObservation
from repro.core.pathset import EPOCH_POST, EPOCH_PRE
from repro.errors import ValidationError
from repro.stream import IgpLinkDownEvent, StreamIngestor, WithdrawalEvent
from repro.validate import QUARANTINE, STRICT, Validator, check_feed

ADDRESSES = ("10.0.1.1", "10.0.2.2", "10.0.3.3")
PREFIXES = ("10.0.8.0/24", "10.0.9.0/24")


def asn_of(address):
    return 64500


def _observation(kind, a, b, seq):
    if kind == "igp":
        return IgpLinkDownObservation(
            address_a=ADDRESSES[a], address_b=ADDRESSES[b], seq=seq
        )
    return WithdrawalObservation(
        prefix=PREFIXES[a % len(PREFIXES)],
        at_address=ADDRESSES[b],
        from_address=ADDRESSES[a],
        from_asn=64501,
        seq=seq,
    )


@st.composite
def feeds(draw):
    """A feed of one kind drawn from a tiny message space, so exact
    duplicates and backwards sequence numbers are common."""
    kind = draw(st.sampled_from(("igp", "bgp")))
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2), st.integers(0, 2), st.integers(-1, 5)
            ),
            max_size=14,
        )
    )
    return kind, [_observation(kind, a, b, seq) for a, b, seq in entries]


def _event(kind, index, observation):
    cls = IgpLinkDownEvent if kind == "igp" else WithdrawalEvent
    return cls(tick=0, seq=index, observation=observation)


def _ingestor(policy):
    return StreamIngestor(
        asn_of, policy, expected_epochs=(EPOCH_PRE, EPOCH_POST)
    )


@settings(max_examples=300, deadline=None)
@given(feeds())
def test_batch_quarantine_keeps_what_the_stream_admits(feed):
    kind, messages = feed
    batch = Validator(QUARANTINE).screen_feed(messages, kind)
    screen = _ingestor(QUARANTINE)
    admitted = tuple(
        message
        for index, message in enumerate(messages)
        if screen.ingest(_event(kind, index, message)) is not None
    )
    assert batch == admitted
    assert len(messages) - len(batch) == len(check_feed(messages, kind))
    assert screen.events_quarantined == len(check_feed(messages, kind))


@settings(max_examples=300, deadline=None)
@given(feeds())
def test_strict_stops_at_the_same_first_record(feed):
    kind, messages = feed
    violations = check_feed(messages, kind)
    batch_error = None
    try:
        Validator(STRICT).screen_feed(messages, kind)
    except ValidationError as error:
        batch_error = error
    assert (batch_error is None) == (not violations)

    screen = _ingestor(STRICT)
    stream_error, stopped_at = None, None
    for index, message in enumerate(messages):
        try:
            screen.ingest(_event(kind, index, message))
        except ValidationError as error:
            stream_error, stopped_at = error, index
            break
    if batch_error is None:
        assert stream_error is None
        return
    assert stream_error is not None
    assert stream_error.invariant == batch_error.invariant
    position = re.search(r"#(\d+)", batch_error.record)
    assert position is not None and int(position.group(1)) == stopped_at


def test_feed_kinds_are_independent_in_batch_and_stream():
    bgp = _observation("bgp", 0, 1, 4)
    igp = _observation("igp", 0, 1, 0)
    assert check_feed([bgp], "bgp") == ()
    assert check_feed([igp], "igp") == ()
    screen = _ingestor(STRICT)
    assert screen.ingest(_event("bgp", 0, bgp)) is not None
    assert screen.ingest(_event("igp", 1, igp)) is not None


@pytest.mark.parametrize("kind", ["igp", "bgp"])
def test_duplicate_of_a_misordered_message_is_dropped_once(kind):
    first = _observation(kind, 0, 1, 3)
    late = _observation(kind, 1, 2, 1)
    feed = [first, late, late]
    assert len(check_feed(feed, kind)) == 2
    assert Validator(QUARANTINE).screen_feed(feed, kind) == (first,)
