"""Unit tests for the posted/unexpected queue pair."""

import pytest

from repro.mpich2.queues import Envelope, PostedQueue, UnexpectedQueue
from repro.mpich2.request import ANY_SOURCE, ANY_TAG, MPIRequest
from repro.simulator import Simulator


def make_recv(sim, src, tag):
    return MPIRequest(sim, "recv", src, tag)


def test_posted_queue_matches_exact():
    sim = Simulator()
    q = PostedQueue()
    req = make_recv(sim, 3, "t")
    q.post(req)
    assert q.match(3, "t") is req
    assert len(q) == 0


def test_posted_queue_no_match_wrong_src_or_tag():
    sim = Simulator()
    q = PostedQueue()
    q.post(make_recv(sim, 3, "t"))
    assert q.match(4, "t") is None
    assert q.match(3, "u") is None
    assert len(q) == 1


def test_posted_queue_fifo_among_matches():
    sim = Simulator()
    q = PostedQueue()
    first = make_recv(sim, 1, "t")
    second = make_recv(sim, 1, "t")
    q.post(first)
    q.post(second)
    assert q.match(1, "t") is first
    assert q.match(1, "t") is second


def test_posted_queue_any_source_matches():
    sim = Simulator()
    q = PostedQueue()
    req = make_recv(sim, ANY_SOURCE, "t")
    q.post(req)
    assert q.match(7, "t") is req


def test_posted_queue_any_tag_matches():
    sim = Simulator()
    q = PostedQueue()
    req = make_recv(sim, 2, ANY_TAG)
    q.post(req)
    assert q.match(2, "whatever") is req


def test_posted_queue_earlier_specific_wins_over_later_wildcard():
    sim = Simulator()
    q = PostedQueue()
    specific = make_recv(sim, 1, "t")
    wildcard = make_recv(sim, ANY_SOURCE, "t")
    q.post(specific)
    q.post(wildcard)
    assert q.match(1, "t") is specific
    assert q.match(2, "t") is wildcard


def test_posted_queue_rejects_send_requests():
    sim = Simulator()
    q = PostedQueue()
    with pytest.raises(ValueError):
        q.post(MPIRequest(sim, "send", 0, "t"))


def test_posted_queue_remove():
    sim = Simulator()
    q = PostedQueue()
    req = make_recv(sim, 1, "t")
    q.post(req)
    assert q.remove(req) is True
    assert q.remove(req) is False
    assert q.match(1, "t") is None


def test_unexpected_queue_match_consumes():
    q = UnexpectedQueue()
    env = Envelope(src=2, tag="t", size=10)
    q.add(env)
    assert len(q) == 1
    assert q.match(2, "t") is env
    assert len(q) == 0


def test_unexpected_queue_wildcard_lookup():
    q = UnexpectedQueue()
    e1 = Envelope(src=5, tag="a", size=1)
    e2 = Envelope(src=6, tag="a", size=2)
    q.add(e1)
    q.add(e2)
    assert q.match(ANY_SOURCE, "a") is e1  # arrival order
    assert q.match(ANY_SOURCE, "a") is e2


def test_unexpected_queue_no_match():
    q = UnexpectedQueue()
    q.add(Envelope(src=1, tag="x", size=1))
    assert q.match(1, "y") is None
    assert q.match(2, "x") is None
