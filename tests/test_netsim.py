"""Deterministic lossy channel and event queue: retry schedule,
same-instant order, allow-lists and exhaustion accounting. The cross-partition bridge is a plain send from
the scenario engine; its dead-letter path is pinned by the golden runs
at drop 0.7 with three attempts."""

import random
import weakref
from collections import Counter

import pytest

from avledger.errors import ClockViolation
from avledger.netsim import Network

ALMOST_ALWAYS_DROP = 1.0 - 1e-9


def _collector():
    inbox = []
    return inbox, lambda env: inbox.append(env)


def test_lossless_send_delivers_immediately():
    net = Network(rng=random.Random(0), drop_prob=0.0)
    inbox, handler = _collector()
    net.register_endpoint("dest", handler)
    record = net.send_with_retry("alice", "dest", {"n": 1})
    assert record.status == "delivered"
    assert record.delivered_at == 0.0
    assert record.attempts == [(0.0, True)]
    assert [env.payload for env in inbox] == [{"n": 1}]


def test_retry_schedule_matches_channel_replay():
    """The channel draws exactly once per attempt; replaying the same rng
    reproduces the attempt-by-attempt outcomes and their spacing.
    """
    seed, p, interval, budget = 99, 0.7, 30.0, 6
    oracle = random.Random(seed)
    expected = []
    t = 0.0
    for _ in range(budget):
        delivered = oracle.random() >= p
        expected.append((t, delivered))
        if delivered:
            break
        t += interval
    net = Network(rng=random.Random(seed), drop_prob=p, retry_interval=interval, max_attempts=budget)
    inbox, handler = _collector()
    net.register_endpoint("dest", handler)
    record = net.send_with_retry("alice", "dest", "payload")
    net.run_until_quiet()
    assert record.attempts == expected
    delivered = expected[-1][1]
    assert record.status == ("delivered" if delivered else "undeliverable")
    assert len(inbox) == (1 if delivered else 0)


def test_exhausted_budget_is_undeliverable_not_raised():
    net = Network(
        rng=random.Random(1), drop_prob=ALMOST_ALWAYS_DROP, retry_interval=10.0, max_attempts=4
    )
    dead = []
    net.on_dead = dead.append
    inbox, handler = _collector()
    net.register_endpoint("dest", handler)
    record = net.send_with_retry("alice", "dest", "x")
    net.run_until_quiet()
    assert record.status == "undeliverable"
    assert record.exhausted and not record.refused
    assert [at for at, ok in record.attempts] == [0.0, 10.0, 20.0, 30.0]
    assert all(not ok for _, ok in record.attempts)
    assert dead == [record]
    assert inbox == []


def test_unknown_destination_refused():
    net = Network(rng=random.Random(2), drop_prob=0.0)
    dead = []
    net.on_dead = dead.append
    record = net.send_with_retry("alice", "nowhere", "x")
    assert record.status == "refused"
    assert dead == [record]


def test_allow_list_refuses_outsiders():
    net = Network(rng=random.Random(3), drop_prob=0.0)
    inbox, handler = _collector()
    net.register_endpoint("validators", handler, allowed_senders={"member"})
    ok = net.send_with_retry("member", "validators", "in")
    barred = net.send_with_retry("stranger", "validators", "out")
    assert ok.status == "delivered"
    assert barred.status == "refused"
    assert [env.payload for env in inbox] == ["in"]


def test_advance_fires_due_retries_in_order():
    net = Network(
        rng=random.Random(4), drop_prob=ALMOST_ALWAYS_DROP, retry_interval=15.0, max_attempts=3
    )
    inbox, handler = _collector()
    net.register_endpoint("dest", handler)
    a = net.send_with_retry("s", "dest", "a")
    net.advance(5.0)
    b = net.send_with_retry("s", "dest", "b")
    net.advance(15.0)  # now 20.0: fires a@15 and b@20
    assert [at for at, _ in a.attempts] == [0.0, 15.0]
    assert [at for at, _ in b.attempts] == [5.0, 20.0]
    assert a.status == b.status == "pending"
    net.run_until_quiet()
    assert a.status == b.status == "undeliverable"


class _Draws:
    """A channel rng that returns scripted draws: below drop_prob loses
    the attempt, at or above it delivers."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


def test_one_instant_fires_attempts_then_each_timer_with_its_sends():
    net = Network(rng=_Draws([0.0, 0.9, 0.9]), drop_prob=0.5, retry_interval=10.0)
    log = []
    net.register_endpoint("dest", lambda env: log.append((env.payload, net.now)))

    def timer(name, send=None):
        def fire():
            log.append((name, net.now))
            if send:
                net.send_with_retry("s", "dest", send)

        return fire

    # A retry and a timer due at 10: the attempt fires first, though the
    # timer was queued before the send.
    net.schedule(10.0, timer("t1"))
    net.send_with_retry("s", "dest", "a")  # lost at 0, retried at 10
    # Two timers due at 20: the first one's send fires before the second.
    net.schedule(20.0, timer("t2", send="b"))
    net.schedule(20.0, timer("t3"))
    net.run_until_quiet()
    assert log == [("a", 10.0), ("t1", 10.0), ("t2", 20.0), ("b", 20.0), ("t3", 20.0)]

    # A timer scheduled in the past fires at the current time.
    net.advance(10.0)
    net.schedule(5.0, timer("late"))
    net.run_until_quiet()
    assert log[-1] == ("late", 30.0) and net.now == 30.0

    # A timer fires at exactly its due time, though 2.278 + (6.534 - 2.278)
    # rounds to 6.534000000000001.
    net = Network(rng=random.Random(0))
    net.advance(2.278)
    net.schedule(6.534, timer("exact"))
    net.run_until_quiet()
    assert log[-1] == ("exact", 6.534)


def test_clock_never_moves_backwards():
    net = Network(rng=random.Random(5))
    net.advance(10.0)
    with pytest.raises(ClockViolation):
        net.advance(-0.5)
    assert net.now == 10.0


def test_identical_seeds_replay_identically():
    def trace(seed):
        net = Network(rng=random.Random(seed), drop_prob=0.4, retry_interval=7.0, max_attempts=5)
        _, handler = _collector()
        net.register_endpoint("dest", handler)
        records = []
        for i in range(20):
            records.append(net.send_with_retry("s", "dest", i))
            net.advance(3.0)
        net.run_until_quiet()
        return [(r.envelope.msg_id, r.status, tuple(r.attempts)) for r in records]

    assert trace(77) == trace(77)
    assert trace(77) != trace(78)


def test_counts_match_the_statuses_of_the_returned_records():
    net = Network(rng=random.Random(8), drop_prob=0.5, retry_interval=5.0, max_attempts=2)
    _, handler = _collector()
    net.register_endpoint("dest", handler, allowed_senders={"member"})
    records = [
        net.send_with_retry(sender, dest, i)
        for i, (sender, dest) in enumerate(
            [("member", "dest"), ("stranger", "dest"), ("member", "nowhere")] * 10
        )
    ]

    def counts():
        return (net.sends, net.delivered, net.undeliverable, net.refused)

    def statuses():
        got = Counter(r.status for r in records)
        return (len(records), got["delivered"], got["undeliverable"], got["refused"])

    assert counts() == statuses() and any(r.status == "pending" for r in records)
    net.run_until_quiet()
    assert counts() == statuses()
    assert net.sends == net.delivered + net.undeliverable + net.refused


def test_an_ended_send_is_not_kept():
    net = Network(rng=random.Random(9), drop_prob=0.0)
    _, handler = _collector()
    net.register_endpoint("dest", handler)
    sent = weakref.ref(net.send_with_retry("s", "dest", "x"))
    assert sent() is None and net.delivered == 1


def test_constructor_and_send_validate_parameters():
    with pytest.raises(ValueError):
        Network(rng=random.Random(0), drop_prob=1.0)
    with pytest.raises(ValueError):
        Network(rng=random.Random(0), drop_prob=1.5)
    with pytest.raises(ValueError):
        Network(rng=random.Random(0), max_attempts=0)
    with pytest.raises(ValueError):
        Network(rng=random.Random(0), retry_interval=-1.0)
