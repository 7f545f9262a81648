"""Deterministic lossy channel and event queue: retry schedule,
same-instant order, allow-lists and exhaustion accounting, observed only
as the engine sees them: handler calls at net.now, on_dead payloads, the
four end-of-send counters, and a recording rng that logs net.now at each
draw (each attempt draws exactly once). The cross-partition bridge is a
plain send from the scenario engine; its dead-letter path is pinned by
the golden runs at drop 0.7 with three attempts."""

import random
import weakref

import pytest

from avledger.netsim import Network

ALMOST_ALWAYS_DROP = 1.0 - 1e-9


class _RecordingRng:
    """A channel rng that logs (net.now, draw) at each draw of the rng it
    wraps; a draw below drop_prob loses the attempt."""

    def __init__(self, inner):
        self._inner = inner
        self.net = None
        self.log = []

    def random(self):
        draw = self._inner.random()
        self.log.append((self.net.now, draw))
        return draw


class _Draws:
    """Scripted draws, in order."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


def _network(inner, allowed=None, **kwargs):
    """A network over a recording rng, with "dest" registered (allow-list
    `allowed`) and every handler call and dead payload logged with the
    instant it happened."""
    rng = _RecordingRng(inner)
    net = Network(rng=rng, **kwargs)
    rng.net = net
    inbox, dead = [], []
    net.register_endpoint("dest", lambda payload: inbox.append((payload, net.now)), allowed)
    net.on_dead = lambda payload: dead.append((payload, net.now))
    return net, rng, inbox, dead


def _counts(net):
    return (net.sends, net.delivered, net.undeliverable, net.refused)


def test_lossless_send_delivers_immediately():
    net, rng, inbox, dead = _network(random.Random(0), drop_prob=0.0)
    net.advance(4.0)
    net.send_with_retry("alice", "dest", {"n": 1})
    net.run_until_quiet()
    assert inbox == [({"n": 1}, 4.0)]
    assert [at for at, _ in rng.log] == [4.0]
    assert dead == [] and _counts(net) == (1, 1, 0, 0)


def test_a_send_outside_a_drain_fires_at_the_next_one():
    net, rng, inbox, _ = _network(random.Random(0), drop_prob=0.0)
    net.send_with_retry("alice", "dest", "a")
    assert inbox == [] and rng.log == [] and _counts(net) == (1, 0, 0, 0)
    net.advance(0.0)
    assert inbox == [("a", 0.0)]
    net.advance(5.0)
    net.send_with_retry("alice", "dest", "b")
    assert inbox == [("a", 0.0)] and _counts(net) == (2, 1, 0, 0)
    net.run_until_quiet()
    assert inbox == [("a", 0.0), ("b", 5.0)] and net.now == 5.0


def test_retry_schedule_matches_channel_replay():
    """Replaying the same rng reproduces the attempt-by-attempt outcomes
    and their spacing."""
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
    net, rng, inbox, dead = _network(
        random.Random(seed), drop_prob=p, retry_interval=interval, max_attempts=budget
    )
    net.send_with_retry("alice", "dest", "payload")
    net.run_until_quiet()
    assert [(at, draw >= p) for at, draw in rng.log] == expected
    ended = [("payload", expected[-1][0])]
    if expected[-1][1]:
        assert (inbox, dead, _counts(net)) == (ended, [], (1, 1, 0, 0))
    else:
        assert (inbox, dead, _counts(net)) == ([], ended, (1, 0, 1, 0))


def test_exhausted_budget_is_undeliverable_not_raised():
    net, rng, inbox, dead = _network(
        random.Random(1), drop_prob=ALMOST_ALWAYS_DROP, retry_interval=10.0, max_attempts=4
    )
    net.send_with_retry("alice", "dest", "x")
    net.run_until_quiet()
    assert [at for at, _ in rng.log] == [0.0, 10.0, 20.0, 30.0]
    assert all(draw < ALMOST_ALWAYS_DROP for _, draw in rng.log)
    assert dead == [("x", 30.0)]
    assert inbox == [] and _counts(net) == (1, 0, 1, 0)


def test_unknown_destination_refused():
    net, rng, _, dead = _network(random.Random(2), drop_prob=0.0)
    net.send_with_retry("alice", "nowhere", "x")
    net.run_until_quiet()
    assert dead == [("x", 0.0)] and len(rng.log) == 1
    assert _counts(net) == (1, 0, 0, 1)


def test_allow_list_refuses_outsiders():
    net, _, inbox, dead = _network(random.Random(3), drop_prob=0.0, allowed={"member"})
    net.send_with_retry("member", "dest", "in")
    net.send_with_retry("stranger", "dest", "out")
    net.run_until_quiet()
    assert inbox == [("in", 0.0)]
    assert dead == [("out", 0.0)]
    assert _counts(net) == (2, 1, 0, 1)


def test_advance_fires_due_retries_in_order():
    net, rng, _, dead = _network(
        random.Random(4), drop_prob=ALMOST_ALWAYS_DROP, retry_interval=15.0, max_attempts=3
    )
    net.send_with_retry("s", "dest", "a")
    net.advance(5.0)
    net.send_with_retry("s", "dest", "b")
    net.advance(15.0)  # now 20.0: fires b@5, a@15 and b@20
    assert [at for at, _ in rng.log] == [0.0, 5.0, 15.0, 20.0]
    assert dead == [] and _counts(net) == (2, 0, 0, 0)
    net.run_until_quiet()
    assert [at for at, _ in rng.log][4:] == [30.0, 35.0]
    assert dead == [("a", 30.0), ("b", 35.0)] and _counts(net) == (2, 0, 2, 0)


def _timer(net, log, name, send=None):
    def fire():
        log.append((name, net.now))
        if send:
            net.send_with_retry("s", "dest", send)

    return fire


def test_one_instant_fires_attempts_then_each_timer_with_its_sends():
    net = Network(rng=_Draws([0.0, 0.9, 0.9]), drop_prob=0.5, retry_interval=10.0)
    log = []
    net.register_endpoint("dest", lambda payload: log.append((payload, net.now)))
    # A retry and a timer due at 10: the attempt fires first, though the
    # timer was queued before the send.
    net.schedule(10.0, _timer(net, log, "t1"))
    net.send_with_retry("s", "dest", "a")  # lost at 0, retried at 10
    # Two timers due at 20: the first one's send fires before the second.
    net.schedule(20.0, _timer(net, log, "t2", send="b"))
    net.schedule(20.0, _timer(net, log, "t3"))
    net.run_until_quiet()
    assert log == [("a", 10.0), ("t1", 10.0), ("t2", 20.0), ("b", 20.0), ("t3", 20.0)]


def test_a_timer_fires_at_now_if_past_and_else_at_exactly_its_due_time():
    net = Network(rng=random.Random(0))
    log = []
    net.advance(30.0)
    net.schedule(5.0, _timer(net, log, "late"))
    net.run_until_quiet()
    assert log == [("late", 30.0)] and net.now == 30.0

    # A timer fires at exactly its due time, though 2.278 + (6.534 - 2.278)
    # rounds to 6.534000000000001.
    net = Network(rng=random.Random(0))
    net.advance(2.278)
    net.schedule(6.534, _timer(net, log, "exact"))
    net.run_until_quiet()
    assert log[-1] == ("exact", 6.534)


def test_clock_never_moves_backwards():
    net = Network(rng=random.Random(5))
    net.advance(10.0)
    with pytest.raises(ValueError):
        net.advance(-0.5)
    assert net.now == 10.0


def test_identical_seeds_replay_identically():
    def trace(seed):
        net, rng, inbox, dead = _network(
            random.Random(seed), drop_prob=0.4, retry_interval=7.0, max_attempts=5
        )
        for i in range(20):
            net.send_with_retry("s", "dest", i)
            net.advance(3.0)
        net.run_until_quiet()
        return rng.log, inbox, dead, _counts(net)

    assert trace(77) == trace(77)
    assert trace(77) != trace(78)


def test_counters_match_how_the_sends_ended():
    p = 0.5
    net, rng, inbox, _ = _network(
        random.Random(8), drop_prob=p, retry_interval=5.0, max_attempts=2, allowed={"member"}
    )
    ended = []
    # on_dead runs right after its attempt's draw: a carried draw means
    # the send was refused at the door, a lost one that it ran out.
    net.on_dead = lambda payload: ended.append(rng.log[-1][1] >= p)
    for i, (sender, dest) in enumerate([("member", "dest"), ("stranger", "dest"), ("member", "nowhere")] * 10):
        net.send_with_retry(sender, dest, i)

    def seen():
        return (30, len(inbox), ended.count(False), ended.count(True))

    net.advance(0.0)
    assert _counts(net) == seen() and net.delivered + net.undeliverable + net.refused < net.sends
    net.run_until_quiet()
    assert _counts(net) == seen()
    assert net.sends == net.delivered + net.undeliverable + net.refused


class _Payload:
    pass


def test_an_ended_send_is_not_kept():
    for dest, drop_prob, ended in [
        ("dest", 0.0, (1, 0, 0)),
        ("nowhere", 0.0, (0, 0, 1)),
        ("dest", ALMOST_ALWAYS_DROP, (0, 1, 0)),
    ]:
        net = Network(rng=random.Random(9), drop_prob=drop_prob, max_attempts=2)
        net.register_endpoint("dest", lambda payload: None)
        net.on_dead = lambda payload: None
        payload = _Payload()
        sent = weakref.ref(payload)
        net.send_with_retry("s", dest, payload)
        del payload
        net.run_until_quiet()
        assert sent() is None, dest
        assert (net.delivered, net.undeliverable, net.refused) == ended


def test_constructor_and_send_validate_parameters():
    with pytest.raises(ValueError):
        Network(rng=random.Random(0), drop_prob=1.0)
    with pytest.raises(ValueError):
        Network(rng=random.Random(0), drop_prob=1.5)
    with pytest.raises(ValueError):
        Network(rng=random.Random(0), max_attempts=0)
    with pytest.raises(ValueError):
        Network(rng=random.Random(0), retry_interval=-1.0)
