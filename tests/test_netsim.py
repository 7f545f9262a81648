"""Deterministic lossy channel: retry schedule, allow-lists, exhaustion
accounting, and the cross-partition forwarding bridge."""

import random

import pytest

from avledger.errors import ClockViolation, NotCommitted
from avledger.netsim import (
    BRIDGE_SENDER,
    Network,
    SimClock,
    forward_evidence_request,
)
from avledger.txmodel import Partition

from worldkit import make_edata, make_est, make_ret, make_world

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
    assert net.next_due() == 15.0
    net.advance(15.0)  # now 20.0: fires a@15 and b@20
    assert [at for at, _ in a.attempts] == [0.0, 15.0]
    assert [at for at, _ in b.attempts] == [5.0, 20.0]
    assert net.has_pending()
    net.run_until_quiet()
    assert not net.has_pending()
    assert a.status == b.status == "undeliverable"


def test_clock_never_moves_backwards():
    net = Network(rng=random.Random(5))
    net.advance(10.0)
    with pytest.raises(ClockViolation):
        net.advance(-0.5)
    assert net.clock.now == 10.0


def test_identical_seeds_replay_identically():
    def trace(seed):
        net = Network(rng=random.Random(seed), drop_prob=0.4, retry_interval=7.0, max_attempts=5)
        _, handler = _collector()
        net.register_endpoint("dest", handler)
        for i in range(20):
            net.send_with_retry("s", "dest", i)
            net.advance(3.0)
        net.run_until_quiet()
        return [(r.envelope.msg_id, r.status, tuple(r.attempts)) for r in net.records]

    assert trace(77) == trace(77)
    assert trace(77) != trace(78)


def test_constructor_and_send_validate_parameters():
    with pytest.raises(ValueError):
        Network(rng=random.Random(0), drop_prob=1.0)
    with pytest.raises(ValueError):
        Network(rng=random.Random(0), drop_prob=1.5)
    with pytest.raises(ValueError):
        Network(rng=random.Random(0), max_attempts=0)
    with pytest.raises(ValueError):
        Network(rng=random.Random(0), retry_interval=-1.0)


# --- bridge -------------------------------------------------------------------

def test_forward_requires_a_committed_evidence_request():
    world = make_world(seed=60)
    net = Network(rng=random.Random(6), drop_prob=0.0)
    p1 = world.ledger()
    est = make_est(world)
    with pytest.raises(NotCommitted):
        forward_evidence_request(net, est, p1)
    ret = make_ret(world, make_edata(world, 1000.0))
    with pytest.raises(NotCommitted):
        forward_evidence_request(net, ret, p1)  # built but never committed


def test_forward_carries_transaction_to_decision_partition():
    world = make_world(seed=61)
    net = Network(rng=random.Random(7), drop_prob=0.0)
    inbox, handler = _collector()
    net.register_endpoint("P2", handler, allowed_senders={BRIDGE_SENDER})
    p1 = world.ledger()
    ret = make_ret(world, make_edata(world, 1000.0))
    p1.append_validated(ret)
    receipt = forward_evidence_request(net, ret, p1)
    assert receipt.p1_tid == ret.tid
    assert receipt.delivery.status == "delivered"
    assert receipt.p2_outcome is None  # filled only once the P2 round runs
    assert len(inbox) == 1
    assert inbox[0].payload is ret
    assert inbox[0].sender == BRIDGE_SENDER
