"""Ledger fold behavior, sealing, persistence, and tamper evidence at the
chain-verification level.
"""

import dataclasses
import errno
import hashlib
import os
import signal
import threading

import pytest
from hypothesis import given, strategies as st

from avledger.adjudicator import staged_evidence_tids
from avledger.errors import InvalidGenesis, LedgerFormatError, UniquenessViolation
from avledger.identity import generate_keypair, issue_certificate
from avledger.ledger import (
    PartitionLedger,
    chain_faults,
    fold_ids,
    fold_step,
    load_ledger,
    make_genesis,
    save_ledger,
)
from avledger import forks, identity
from avledger import ledger as ledger_module
from avledger.scenarios import ScenarioEngine, make_benign_config
from avledger.txmodel import EventTrigger, Partition, TxKind
from avledger.validation import Reason, RoundOutcome

from worldkit import (
    CountingChecks,
    append_by_hand,
    commit,
    fill_ledger,
    make_edata,
    make_est,
    make_et,
    make_mt,
    make_pet,
    make_ret,
    make_ut,
    make_world,
    vehicle_credentials,
    verify_transaction,
)

WORLD = make_world(seed=555)


def reference_fold(seed: bytes, tids) -> bytes:
    acc = seed
    for tid in tids:
        acc = hashlib.sha256(tid + acc).digest()
    return acc


def test_fold_step_is_hash_of_tid_then_acc():
    tid, acc = b"\x01" * 32, b"\x02" * 32
    assert fold_step(tid, acc) == hashlib.sha256(tid + acc).digest()
    assert fold_ids(acc, [tid, tid]) == reference_fold(acc, [tid, tid])


@given(st.lists(st.binary(min_size=32, max_size=32), max_size=12))
def test_fold_ids_matches_reference(tids):
    seed = b"\x09" * 32
    assert fold_ids(seed, tids) == reference_fold(seed, tids)


def test_empty_current_block_folds_to_previous_id():
    ledger = WORLD.ledger()
    assert ledger.cblock_id == WORLD.p1.block_id
    assert ledger.sealed_tip() == WORLD.p1.block_id


def test_append_advances_fold_and_seals_at_capacity():
    world = make_world(seed=10)
    ledger = world.ledger(b_max=3)
    txs = fill_ledger(world, ledger, 7)
    assert ledger.records == txs
    # Conservation: committed == b_max * sealed blocks + open.
    assert ledger.sealed == 3 * 2 and ledger.open_transactions() == txs[6:]
    assert len(ledger.tid_index) == 3 * 2 + 1
    # Each stored fold value is the left fold of every tid up to it, and
    # a block's id is the value after its last record.
    assert ledger.folds == [reference_fold(ledger.genesis.block_id, [t.tid for t in txs[:i + 1]]) for i in range(7)]
    expected_b0 = reference_fold(ledger.genesis.block_id, [t.tid for t in txs[:3]])
    expected_b1 = reference_fold(expected_b0, [t.tid for t in txs[3:6]])
    assert ledger.block_ids() == [expected_b0, expected_b1]
    assert ledger.sealed_tip() == expected_b1
    assert ledger.cblock_id == reference_fold(expected_b1, [txs[6].tid])


def test_append_changes_cblock_id_every_time():
    world = make_world(seed=11)
    ledger = world.ledger()
    seen = {ledger.cblock_id}
    for i in range(6):
        append_by_hand(ledger, make_est(world, at=1000.0 + i))
        assert ledger.cblock_id not in seen
        seen.add(ledger.cblock_id)
    assert len(seen) == 7


def test_duplicate_append_rejected():
    world = make_world(seed=12)
    ledger = world.ledger()
    tx = make_est(world)
    append_by_hand(ledger, tx)
    with pytest.raises(UniquenessViolation):
        append_by_hand(ledger, tx)


def test_maybe_seal_below_capacity_returns_none():
    world = make_world(seed=13)
    ledger = world.ledger(b_max=4)
    fill_ledger(world, ledger, 3)
    assert ledger.maybe_seal() is None
    assert ledger.block_ids() == [] and ledger.sealed == 0
    # The fourth append seals the block; the open block after it has room.
    append_by_hand(ledger, make_est(world, at=2000.0))
    assert ledger.block_ids() == [ledger.cblock_id] and ledger.sealed == 4
    ledger.maybe_seal()
    assert ledger.sealed == 4


def test_genesis_requires_ca_and_validator():
    with pytest.raises(InvalidGenesis):
        make_genesis(Partition.OPERATIONAL, [], WORLD.p1.membership)
    no_validators = tuple(
        dataclasses.replace(m, validator=False) for m in WORLD.p1.membership
    )
    with pytest.raises(InvalidGenesis):
        make_genesis(Partition.OPERATIONAL, [WORLD.root], no_validators)


def test_genesis_id_covers_the_block_capacity():
    p1 = WORLD.p1
    assert p1.b_max == 8
    ids = {make_genesis(p1.partition, p1.ca_certificates, p1.membership, b).block_id for b in (1, 2, 8)}
    assert len(ids) == 3 and p1.block_id in ids
    assert WORLD.ledger(b_max=3).b_max == 3
    with pytest.raises(InvalidGenesis, match="block capacity"):
        make_genesis(p1.partition, p1.ca_certificates, p1.membership, 0)


# --- queries ------------------------------------------------------------------

def test_query_filters():
    world = make_world(seed=14)
    ledger = world.ledger()
    creds = vehicle_credentials(world, 1000.0)
    est = make_est(world, at=1000.0, creds=creds)
    pet = make_pet(world, at=1050.0, creds=creds)
    ut = make_ut(world, at=1100.0, creds=creds)
    et = make_et(world, ut.tid, creds, at=1200.0)
    other_est = make_est(world, at=1300.0)
    for tx in (est, pet, ut, et, other_est):
        append_by_hand(ledger, tx)
    assert ledger.query(kind=TxKind.EVENT_SAFETY) == [est, other_est]
    assert ledger.query(cert_id=creds[1].cert_id) == [est, pet, ut, et]
    assert ledger.query(kind=TxKind.EVENT_SAFETY, cert_id=creds[1].cert_id) == [est]


def _brute_query(ledger, kind, cert_id):
    return [
        tx
        for tx in ledger.all_transactions()
        if (kind is None or tx.kind is kind) and (cert_id is None or tx.cert.cert_id == cert_id)
    ]


def _assert_query_matches_scan(ledger):
    rows = ledger.all_transactions()
    certs = [None, b"\x00" * 32] + sorted({tx.cert.cert_id for tx in rows})
    for kind in [None, *TxKind]:
        for cert_id in certs:
            got = ledger.query(kind=kind, cert_id=cert_id)
            want = _brute_query(ledger, kind, cert_id)
            # The same objects the blocks hold, in commit order.
            assert [id(tx) for tx in got] == [id(tx) for tx in want], (kind, cert_id)


def _consensus_replica(seed=16, b_max=3, indexed=False):
    """One P1 replica built by consensus: every P1 kind, one vehicle
    certificate shared by several records, and an open block after two
    sealed ones. Unindexed, it is first queried by kind by the caller, so
    its index is built from the whole chain; indexed, it was queried by
    kind halfway, so the commits after that kept its index current."""
    world = make_world(seed=seed)
    replicas = world.replicas(Partition.OPERATIONAL, b_max=b_max)
    creds = vehicle_credentials(world, 1000.0)
    ut = make_ut(world, at=1100.0, creds=creds)
    txs = [
        make_est(world, at=1000.0, creds=creds),
        make_pet(world, at=1050.0, creds=creds),
        ut,
        make_mt(world, at=1060.0),
        make_ret(world, make_edata(world, 1050.0), at=1070.0),
        make_est(world, at=1080.0),
        make_et(world, ut.tid, creds, at=1200.0),
        make_est(world, at=1210.0, creds=creds),
        make_est(world, at=1220.0, creds=creds),
    ]
    ledger = replicas["st-0"]
    for i, tx in enumerate(txs):
        if indexed and i == 4:
            assert ledger.query(kind=TxKind.EVENT_SAFETY) == txs[:1]
        assert commit(replicas, tx).outcome is RoundOutcome.COMMITTED
    assert (ledger._rows is not None) is indexed
    return ledger


INDEXED = (False, True)


def test_query_matches_a_scan_on_a_consensus_ledger():
    for indexed in INDEXED:
        ledger = _consensus_replica(indexed=indexed)
        assert len(ledger.block_ids()) == 3 and not ledger.open_transactions()
        _assert_query_matches_scan(ledger)


def _loaded_with_a_duplicate_tid(tmp_path):
    """The consensus replica saved with its first EST appended twice (a
    file may hold a tid twice) and loaded back; returns (ledger, EST)."""
    ledger = _consensus_replica(b_max=4)
    est = ledger.query(kind=TxKind.EVENT_SAFETY)[0]
    ledger.append_claimed(est, b"\x00" * 32)
    path = tmp_path / "dup.avl"
    save_ledger(ledger, str(path))
    return load_ledger(str(path)), est


def test_query_keeps_duplicates_of_a_loaded_file(tmp_path):
    loaded, est = _loaded_with_a_duplicate_tid(tmp_path)
    assert [tx.tid for tx in loaded.all_transactions()].count(est.tid) == 2
    assert len(loaded.query(cert_id=est.cert.cert_id, kind=TxKind.EVENT_SAFETY)) == 4
    _assert_query_matches_scan(loaded)


def test_query_drops_what_remove_open_removed(tmp_path):
    for indexed in INDEXED:
        ledger = _consensus_replica(b_max=16, indexed=indexed)
        open_txs = ledger.open_transactions()
        victim = open_txs[7]  # earlier and later open-block records share its cert and its kind
        ledger.remove_open(victim.tid)
        assert ledger._rows is None
        assert victim not in ledger.query(cert_id=victim.cert.cert_id)
        assert victim not in ledger.query(kind=victim.kind)
        _assert_query_matches_scan(ledger)

    # With a tid held twice, the first open-block copy goes and the second
    # stays where it was.
    twice = open_txs[1]
    ledger.append_claimed(twice, b"\x00" * 32)
    _assert_query_matches_scan(ledger)
    path = tmp_path / "dup.avl"
    save_ledger(ledger, str(path))
    loaded = load_ledger(str(path))
    loaded.remove_open(twice.tid)
    assert [tx.tid for tx in loaded.all_transactions()].count(twice.tid) == 1
    assert loaded.all_transactions()[-1].tid == twice.tid
    _assert_query_matches_scan(loaded)


def test_every_query_path_returns_a_new_list():
    for indexed in INDEXED:
        ledger = _consensus_replica(b_max=4, indexed=indexed)
        et = ledger.query(kind=TxKind.EXECUTION)[0]
        keys = [{}, {"kind": et.kind}, {"cert_id": et.cert.cert_id}, {"kind": et.kind, "cert_id": et.cert.cert_id}]
        for args in keys:
            first = ledger.query(**args)
            assert et in first, args
            want = [id(tx) for tx in first]
            first.append(et)
            assert [id(tx) for tx in ledger.query(**args)] == want, args
            ledger.query(**args).clear()
            assert [id(tx) for tx in ledger.query(**args)] == want, args
        _assert_query_matches_scan(ledger)


# A vehicle's EST history has one implementation: the adjudicator's
# windowed read of hard brakes under its certificates.
EST_WINDOWS = [(1e9, 1e9), (1210.0, 200.0), (1220.0, 10.0), (1000.0, 0.0), (1000.0, 1.0)]


def _brute_est_history(ledger, cert_ids, collision_at, window_secs):
    rows = [
        tx
        for tx in ledger.all_transactions()
        if tx.kind is TxKind.EVENT_SAFETY
        and tx.cert.cert_id in cert_ids
        and tx.body.esm.trigger is EventTrigger.HARD_BRAKE
        and collision_at - window_secs <= tx.body.ts < collision_at
    ]
    rows.sort(key=lambda tx: (tx.body.ts, tx.tid))
    return [tx.tid for tx in rows]


def _assert_est_history_matches_scan(ledger):
    certs = sorted({tx.cert.cert_id for tx in ledger.all_transactions()})
    unknown = b"\x00" * 32
    assert unknown not in certs
    for cert_ids in [[], *([c] for c in certs), certs, [unknown, *certs[:2]]]:
        cert_ids = frozenset(cert_ids)
        for window in EST_WINDOWS:
            got = staged_evidence_tids(ledger, cert_ids, *window)
            assert got == _brute_est_history(ledger, cert_ids, *window), (cert_ids, window)


def test_est_history_matches_a_scan_on_a_consensus_ledger():
    for indexed in INDEXED:
        ledger = _consensus_replica(indexed=indexed)
        every_cert = frozenset(tx.cert.cert_id for tx in ledger.all_transactions())
        assert len(staged_evidence_tids(ledger, every_cert, *EST_WINDOWS[0])) == 4
        _assert_est_history_matches_scan(ledger)


def test_est_history_keeps_duplicates_of_a_loaded_file(tmp_path):
    loaded, est = _loaded_with_a_duplicate_tid(tmp_path)
    history = staged_evidence_tids(loaded, frozenset([est.cert.cert_id]), *EST_WINDOWS[0])
    assert history.count(est.tid) == 2
    _assert_est_history_matches_scan(loaded)


# --- chain verification -------------------------------------------------------

def _sealed_ledger(seed=15, n=10, b_max=4):
    world = make_world(seed=seed)
    ledger = world.ledger(b_max=b_max)
    txs = fill_ledger(world, ledger, n)
    return world, ledger, txs


def test_intact_chain_verifies():
    _, ledger, _ = _sealed_ledger()
    assert chain_faults(ledger) == []


def test_mutated_committed_body_detected():
    _, ledger, _ = _sealed_ledger()
    victim = ledger.records[1]
    forged_body = dataclasses.replace(victim.body, ts=victim.body.ts + 60.0)
    ledger.records[1] = dataclasses.replace(victim, body=forged_body)
    faults = chain_faults(ledger)
    assert any("does not match its contents" in f for f in faults)
    assert chain_faults(ledger)


def test_removed_committed_transaction_detected():
    _, ledger, _ = _sealed_ledger()
    del ledger.records[0], ledger.folds[0]
    assert chain_faults(ledger)


def _fold_offsets(data: bytes) -> list[int]:
    """Where each record's stored fold value starts in a saved file."""
    pos = 6 + 4 + int.from_bytes(data[6:10], "big")  # magic, version, genesis
    offsets = []
    while pos < len(data) - ledger_module.TRAILER_SIZE:
        pos += 4 + int.from_bytes(data[pos:pos + 4], "big")
        offsets.append(pos)
        pos += 32
    return offsets


def test_an_overwritten_fold_value_in_a_saved_file_is_named(tmp_path):
    """The file-level form of a broken block link. A sealed block's id is
    the fold value after its last record, and the next block's fold
    restarts from it; so a value overwritten there is a mismatch, a block
    id that does not match, and a mismatch at every record of the next
    block. Overwritten mid-block, it is one mismatch."""
    ledger = ScenarioEngine(make_benign_config(0)).run().ledgers["P1"]
    assert (len(ledger.records), ledger.sealed, ledger.b_max) == (13, 8, 8)
    path, data = _saved_bytes(ledger, tmp_path)
    offsets = _fold_offsets(data)
    assert len(offsets) == 13

    def faults_with_fold_overwritten(index):
        at = offsets[index]
        path.write_bytes(data[:at] + b"\x00" * 32 + data[at + 32:])
        return chain_faults(load_ledger(str(path)))

    assert faults_with_fold_overwritten(7) == [
        "block 0 tx 7: fold value mismatch",
        "block 0: block id does not match recomputed fold",
        *(f"current tx {pos}: fold value mismatch" for pos in range(5)),
    ]
    assert faults_with_fold_overwritten(3) == ["block 0 tx 3: fold value mismatch"]
    assert faults_with_fold_overwritten(10) == ["current tx 2: fold value mismatch"]


def test_forged_fold_trail_detected():
    _, ledger, _ = _sealed_ledger()
    ledger.folds[-1] = b"\xff" * 32
    assert any("fold value mismatch" in f for f in chain_faults(ledger))


def test_duplicate_committed_tid_detected():
    _, ledger, _ = _sealed_ledger()
    ledger.records[1] = ledger.records[0]
    assert any("duplicate tid" in f for f in chain_faults(ledger))


def test_stripped_signature_detected():
    _, ledger, _ = _sealed_ledger()
    victim = ledger.records[6]  # block 1, position 2
    ledger.records[6] = dataclasses.replace(victim, signatures=())
    assert any("signer set incomplete" in f for f in chain_faults(ledger))


def test_faults_report_every_bad_position():
    _, ledger, _ = _sealed_ledger()
    for pos in (0, 3):
        victim = ledger.records[pos]
        forged = dataclasses.replace(victim.body, ts=victim.body.ts + 1.0)
        ledger.records[pos] = dataclasses.replace(victim, body=forged)
    faults = chain_faults(ledger)
    assert sum("does not match its contents" in f for f in faults) == 2


# Records consensus rejects but a signature-only audit would pass: each is
# (partition, builder, the reason consensus gives).
def _foreign_ca_mt(world):
    foreign_ca = generate_keypair(world.rng)
    [cert] = issue_certificate(foreign_ca, [generate_keypair(world.rng).public_key], 1000.0, 300.0, world.rng)
    return make_mt(world, at=1000.0, cert=cert)


PARITY_CASES = {
    "mt-foreign-ca": (Partition.OPERATIONAL, _foreign_ca_mt, Reason.BAD_SIGNATURE),
    "mt-outside-window": (
        Partition.OPERATIONAL,
        lambda world: make_mt(world, at=2000.0, cert=vehicle_credentials(world, 1000.0)[1]),
        Reason.EXPIRED_CERT,
    ),
    "ret-outside-window": (
        Partition.OPERATIONAL,
        lambda world: make_ret(
            world, make_edata(world, 2000.0), at=2010.0, cert=vehicle_credentials(world, 1000.0)[1]
        ),
        Reason.EXPIRED_CERT,
    ),
    "et-parent-not-on-chain": (
        Partition.OPERATIONAL,
        lambda world: make_et(world, b"\x42" * 32, vehicle_credentials(world, 1000.0), at=1100.0),
        Reason.INCOMPLETE,
    ),
    "est-in-p2": (Partition.DECISIONAL, lambda world: make_est(world, at=1000.0), Reason.UNAUTHORIZED),
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_chain_faults_judge_by_the_consensus_rule(case):
    partition, build, reason = PARITY_CASES[case]
    world = make_world(seed=19)
    tx = build(world)
    assert verify_transaction(tx, world.ledger(partition)) is reason
    ledger = world.ledger(partition, b_max=4)
    if partition is Partition.OPERATIONAL:
        fill_ledger(world, ledger, 2)  # honest neighbours stay fault-free
    append_by_hand(ledger, tx)
    faults = chain_faults(ledger)
    assert len(faults) == 1 and tx.tid.hex()[:16] in faults[0], faults
    assert f"({reason.value})" in faults[0]


def test_chain_faults_ca_checks_each_certificate_once(monkeypatch):
    world = make_world(seed=21)
    ledger = world.ledger()
    pet = make_pet(world, at=1000.0)
    rets = [make_ret(world, make_edata(world, 1000.0), at=1010.0 + i, cert=pet.cert) for i in range(3)]
    for tx in [pet, *rets]:
        append_by_hand(ledger, tx)
    checked = []
    monkeypatch.setattr(ledger_module, "InlineChecks", lambda: CountingChecks(checked))
    # Short enough to be judged in this process alone: a check made in a
    # helper would never reach `checked`.
    assert len(ledger.all_transactions()) < ledger_module.MIN_SENT_RECORDS
    assert chain_faults(ledger) == []
    assert checked == [pet.cert]


# --- chain verification with checks sent to the check helpers -----------------

def _counting_forks(monkeypatch) -> list:
    """The pid of every process that forks from now on, once per fork."""
    forked = []
    real_fork = os.fork

    def counting_fork():
        forked.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


def _sends(monkeypatch) -> list:
    """The helper pid of every list of checks sent from now on."""
    pids = []
    send = forks.Helper.send

    def recording(helper, message):
        pids.append(helper.pid)
        send(helper, message)

    monkeypatch.setattr(forks.Helper, "send", recording)
    return pids


@pytest.fixture
def split(monkeypatch):
    """Returns a function giving (serial faults, sent faults) of a
    ledger, or of the file at a path, loaded again under each walk's
    patches, since load_ledger judges a file as it reads it. The sent
    walk sends every signature check to the check helpers, one check per
    list, whatever the chain's length and the helpers' speed, so a fault
    in a signature is found there; two helpers are forked whatever the
    host's CPU count. Afterwards no helper process and no pipe end may be
    left behind."""
    forked = _counting_forks(monkeypatch)
    sends = _sends(monkeypatch)

    def run(source):
        def judge():
            return chain_faults(load_ledger(source) if isinstance(source, str) else source)

        monkeypatch.setattr(ledger_module, "MIN_SENT_RECORDS", 1 << 30)
        serial = judge()
        assert forked == [] and sends == []
        monkeypatch.setattr(ledger_module, "MIN_SENT_RECORDS", 0)
        faults = judge()
        assert len(forked) == 2 and len(set(sends)) == 2
        return serial, faults

    fds = set(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(identity, "_LIST", 1)
    monkeypatch.setattr(ledger_module, "_HELPER_ROOM", 1 << 10)
    yield run
    forks.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert set(os.listdir("/proc/self/fd")) == fds


def _parity_ledger(case):
    """The faulty record of a PARITY_CASES case after two honest records."""
    partition, build, _reason = PARITY_CASES[case]
    world = make_world(seed=19)
    tx = build(world)
    ledger = world.ledger(partition, b_max=4)
    for i in range(2):
        append_by_hand(ledger, make_ret(world, make_edata(world, 900.0 + i), at=910.0 + i))
    append_by_hand(ledger, tx)
    return ledger, tx


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_split_chain_faults_equal_serial_on_the_consensus_corpus(split, case):
    ledger, tx = _parity_ledger(case)
    serial, faults = split(ledger)
    assert faults == serial
    assert len(faults) == 1 and tx.tid.hex()[:16] in faults[0], faults


def test_split_chain_faults_equal_serial_on_a_file_with_a_duplicate_tid(split, tmp_path):
    ledger = _consensus_replica(b_max=4)
    ledger.append_claimed(ledger.all_transactions()[0], b"\x00" * 32)
    path = tmp_path / "dup.avl"
    save_ledger(ledger, str(path))
    serial, faults = split(str(path))
    assert faults == serial
    assert any("duplicate tid" in f for f in faults), faults


def _flipped(tx):
    """tx with its first signature's first byte flipped."""
    entry = tx.signatures[0]
    flipped = bytes([entry.signature[0] ^ 1]) + entry.signature[1:]
    return dataclasses.replace(tx, signatures=(dataclasses.replace(entry, signature=flipped), *tx.signatures[1:]))


def _bad_signature_ledger():
    """A sealed ledger whose first and last records carry a flipped
    signature byte."""
    _, ledger, _ = _sealed_ledger(n=10)
    for pos in (0, -1):
        ledger.records[pos] = _flipped(ledger.records[pos])
    return ledger


def _closes(monkeypatch) -> list:
    """What each SentChecks.close() of chain_faults answers from now on."""
    answers = []
    close = identity.SentChecks.close

    def recording(checks):
        answers.append(close(checks))
        return answers[-1]

    monkeypatch.setattr(identity.SentChecks, "close", recording)
    return answers


def test_split_chain_faults_equal_serial_with_a_bad_signature_in_a_helper_share(split, monkeypatch):
    """Both bad signatures are checked in a helper, which reports the
    failure; the chain is judged again in this process."""
    answers = _closes(monkeypatch)
    serial, faults = split(_bad_signature_ledger())
    assert faults == serial and answers == [False]
    assert len(faults) == 2 and all("(BadSignature)" in f for f in faults), faults


def test_failed_fork_falls_back_to_judging_in_process(split, monkeypatch):
    attempts = []

    def no_fork():
        attempts.append(1)
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    ledger = _bad_signature_ledger()
    serial = chain_faults(ledger)
    monkeypatch.setattr(ledger_module, "MIN_SENT_RECORDS", 1)
    monkeypatch.setattr(os, "fork", no_fork)
    assert chain_faults(ledger) == serial
    assert chain_faults(ledger) == serial
    assert len(attempts) == 2  # one per call: the first failure ends the call's forking


def _sent_chain_faults(monkeypatch, ledger, room=1 << 10):
    """chain_faults of ledger with every signature check sent, one per
    list, while a helper holds fewer than room unacked."""
    monkeypatch.setattr(ledger_module, "MIN_SENT_RECORDS", 0)
    monkeypatch.setattr(ledger_module, "_HELPER_ROOM", room)
    monkeypatch.setattr(identity, "_LIST", 1)
    return chain_faults(ledger)


@pytest.mark.parametrize("failure", ["raises", "killed", "acks a failure"])
def test_a_failed_helper_share_is_judged_again_in_process(monkeypatch, failure):
    """A helper whose backend raises, one killed mid-call, and one that
    finds a failure that this process does not: chain_faults judges the
    chain again in this process and gives the serial faults. A helper
    that died is reaped, and the next call forks a new one."""
    ledger = _bad_signature_ledger()
    serial = chain_faults(ledger)
    parent, real = os.getpid(), identity.BACKEND
    forked = _counting_forks(monkeypatch)
    answers = _closes(monkeypatch)

    def failing(public_key, message, signature):
        if os.getpid() != parent:
            if failure == "raises":
                raise RuntimeError("the helper's backend failed")
            return False
        return real.verify(public_key, message, signature)

    judge = ledger_module.check_tx_genesis
    if failure == "killed":
        judged = []

        def killing(tx, genesis, checks):
            judged.append(tx)
            if len(judged) == 3:
                [helper] = forks._HELPERS
                os.kill(helper.pid, signal.SIGKILL)
            return judge(tx, genesis, checks)

        monkeypatch.setattr(ledger_module, "check_tx_genesis", killing)
    else:
        monkeypatch.setattr(identity, "BACKEND", real._replace(verify=failing))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert _sent_chain_faults(monkeypatch, ledger) == serial
    assert answers == [False] and len(forked) == 1
    if failure != "acks a failure":
        assert forks._HELPERS == []
        monkeypatch.setattr(identity, "BACKEND", real)
        monkeypatch.setattr(ledger_module, "check_tx_genesis", judge)
        assert _sent_chain_faults(monkeypatch, ledger) == serial
        assert answers == [False, False] and len(forked) == 2  # the flipped signatures, found in the new helper


def test_a_helper_that_died_between_calls_is_replaced_before_the_next(monkeypatch):
    """A helper killed after one call is reaped when the next call
    starts, and a new one is forked in its place: that call's checks
    hold there, and nothing is judged twice."""
    ledger = _sealed_ledger(n=10)[1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    answers = _closes(monkeypatch)
    assert _sent_chain_faults(monkeypatch, ledger) == []
    [first] = forks._HELPERS
    os.kill(first.pid, signal.SIGKILL)
    os.waitid(os.P_PID, first.pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
    forked = _counting_forks(monkeypatch)
    sends = _sends(monkeypatch)
    assert _sent_chain_faults(monkeypatch, ledger) == []
    assert first.dead and len(forked) == 1 and answers == [True, True]
    assert set(sends) == {helper.pid for helper in forks._HELPERS} != {first.pid}


def test_every_helper_full_makes_every_check_in_process(monkeypatch):
    """With no room in any helper, each signature check is made here
    after one read of a helper's acks, and nothing is sent."""
    ledger = _bad_signature_ledger()
    serial = chain_faults(ledger)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    sends = _sends(monkeypatch)
    polls = []
    poll = forks.Helper.poll

    def counting_poll(helper):
        polls.append(helper.pid)
        poll(helper)

    monkeypatch.setattr(forks.Helper, "poll", counting_poll)
    assert _sent_chain_faults(monkeypatch, ledger, room=0) == serial
    assert sends == []
    signatures = sum(len(tx.signatures) for tx in ledger.records)
    assert len(polls) == signatures and len(set(polls)) == 2  # one read per check, helper by helper


def test_a_second_thread_alive_makes_every_check_in_process(monkeypatch):
    ledger = _bad_signature_ledger()
    serial = chain_faults(ledger)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forked = _counting_forks(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        assert _sent_chain_faults(monkeypatch, ledger) == serial
    finally:
        release.set()
        other.join(timeout=60)
    assert forked == []


def test_a_child_forked_after_the_helper_exists_checks_in_process(monkeypatch):
    """A process forked after the helper gets none of its pipe ends and
    forks no helper of its own: it judges every check itself. The
    owner's helper serves the owner as before."""
    ledger = _bad_signature_ledger()
    serial = chain_faults(ledger)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert _sent_chain_faults(monkeypatch, ledger) == serial
    [helper] = forks._HELPERS
    forked = _counting_forks(monkeypatch)
    sends = _sends(monkeypatch)
    read_end, write_end = os.pipe()
    child = os.fork()
    if child == 0:
        ok = 0
        try:
            os.close(read_end)
            ok = int(
                forks._HELPERS == []
                and chain_faults(ledger) == serial
                and forked == [os.getppid()]
                and sends == []
            )
        finally:
            os.write(write_end, bytes([ok]))
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as answer:
        assert answer.read() == b"\x01"
    assert os.waitpid(child, 0)[1] == 0
    assert forks._HELPERS == [helper] and helper.in_flight == 0
    assert chain_faults(ledger) == serial
    assert len(forked) == 1 and set(sends) == {helper.pid}


# --- persistence --------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    world, ledger, txs = _sealed_ledger(seed=16, n=9, b_max=4)
    path = tmp_path / "p1.bin"
    save_ledger(ledger, str(path))
    loaded = load_ledger(str(path))
    assert chain_faults(loaded) == []
    assert loaded.b_max == ledger.b_max
    assert loaded.sealed == ledger.sealed == 8
    assert loaded.folds == ledger.folds
    assert loaded.block_ids() == ledger.block_ids()
    assert loaded.cblock_id == ledger.cblock_id
    assert [t.tid for t in loaded.all_transactions()] == [t.tid for t in txs]
    # A second save is byte-identical.
    again = tmp_path / "again.bin"
    save_ledger(loaded, str(again))
    assert path.read_bytes() == again.read_bytes()


def test_load_rejects_non_ledger_bytes(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"")
    with pytest.raises(LedgerFormatError, match="missing genesis"):
        load_ledger(str(path))
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(LedgerFormatError, match="missing genesis"):
        load_ledger(str(path))


def _saved_bytes(ledger, tmp_path):
    path = tmp_path / "saved.bin"
    save_ledger(ledger, str(path))
    return path, path.read_bytes()


def test_load_refuses_other_file_versions(tmp_path):
    _, ledger, _ = _sealed_ledger(seed=17, n=5, b_max=4)
    path, data = _saved_bytes(ledger, tmp_path)
    assert data[4:6] == (3).to_bytes(2, "big")
    for version in (1, 2, 4):
        path.write_bytes(data[:4] + version.to_bytes(2, "big") + data[6:])
        with pytest.raises(LedgerFormatError, match=f"unsupported ledger version {version}"):
            load_ledger(str(path))


def test_trailer_names_the_record_count_and_the_final_fold(tmp_path):
    _, ledger, _ = _sealed_ledger(seed=17, n=5, b_max=4)
    path, data = _saved_bytes(ledger, tmp_path)
    assert data[-36:] == (5).to_bytes(4, "big") + ledger.cblock_id
    for count in (4, 6):
        path.write_bytes(data[:-36] + count.to_bytes(4, "big") + data[-32:])
        with pytest.raises(LedgerFormatError, match=f"trailer counts {count} records, the file holds 5"):
            load_ledger(str(path))
    path.write_bytes(data[:-32] + ledger.block_ids()[0])
    with pytest.raises(LedgerFormatError, match="trailer fold value"):
        load_ledger(str(path))


def test_edited_genesis_of_an_empty_ledger_is_refused(tmp_path):
    """With no record, the trailer's fold value is the genesis id, so it
    covers every genesis byte: here the block capacity and a member's
    proposer flag."""
    ledger = WORLD.ledger()
    path, data = _saved_bytes(ledger, tmp_path)
    assert data[-36:] == bytes(4) + WORLD.p1.block_id
    assert load_ledger(str(path)).genesis == WORLD.p1
    genesis_end = len(data) - 36
    edits = [data[:genesis_end - 1] + b"\x03" + data[genesis_end:]]  # b_max 8 -> 3
    p1 = WORLD.p1
    members = (dataclasses.replace(p1.membership[0], proposer=False), *p1.membership[1:])
    other = make_genesis(p1.partition, p1.ca_certificates, members)
    edits.append(_saved_bytes(PartitionLedger(other), tmp_path)[1][:-32] + p1.block_id)
    for edited in edits:
        assert len(edited) == len(data) and edited != data
        path.write_bytes(edited)
        with pytest.raises(LedgerFormatError, match="trailer fold value"):
            load_ledger(str(path))


def test_load_rejects_truncated_file(tmp_path):
    world, ledger, _ = _sealed_ledger(seed=17, n=5, b_max=4)
    path = tmp_path / "p1.bin"
    save_ledger(ledger, str(path))
    data = path.read_bytes()
    path.write_bytes(data[:-10])
    with pytest.raises(LedgerFormatError, match="truncated"):
        load_ledger(str(path))


def test_flipped_record_byte_fails_verification(tmp_path):
    world, ledger, _ = _sealed_ledger(seed=18, n=8, b_max=4)
    path = tmp_path / "p1.bin"
    save_ledger(ledger, str(path))
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    try:
        loaded = load_ledger(str(path))
    except LedgerFormatError:
        return  # the flip landed in framing; rejection at load is detection too
    assert chain_faults(loaded)


# --- a file judged as it is read -------------------------------------------------

def _forged(tx):
    return dataclasses.replace(tx, body=dataclasses.replace(tx.body, ts=tx.body.ts + 1.0))


# In-place edits of a ledger, each of which changes its faults.
EDITS = {
    "record replaced": lambda lg: lg.records.__setitem__(1, _forged(lg.records[1])),
    "record duplicated": lambda lg: lg.records.__setitem__(2, lg.records[1]),
    "record deleted": lambda lg: (lg.records.pop(1), lg.folds.pop(1)),
    "fold overwritten": lambda lg: lg.folds.__setitem__(5, b"\x00" * 32),
    "record appended": lambda lg: lg.append_claimed(lg.records[3], b"\x00" * 32),
    "open record removed": lambda lg: lg.remove_open(lg.records[-1].tid),
    "genesis swapped": lambda lg: setattr(lg, "genesis", WORLD.p2),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_a_loaded_ledger_edited_in_place_is_judged_again(monkeypatch, tmp_path, edit):
    """The judgement load_ledger keeps is not the answer once the ledger
    has changed: chain_faults gives the faults that the same edit gives
    on the ledger saved, which was never loaded, judged serially."""
    monkeypatch.setattr(ledger_module, "MIN_SENT_RECORDS", 1 << 30)
    source = _bad_signature_ledger()  # the open block's last record fails
    path = str(tmp_path / "p1.bin")
    save_ledger(source, path)
    loaded = load_ledger(path)
    stale = chain_faults(loaded)
    assert stale == chain_faults(source) and len(stale) == 2
    EDITS[edit](source)
    EDITS[edit](loaded)
    fresh = chain_faults(source)
    assert fresh != stale
    assert chain_faults(loaded) == fresh


def test_an_untouched_loaded_ledger_is_not_judged_again(monkeypatch, tmp_path):
    """chain_faults returns a copy of the faults found at load, without
    judging a record again."""
    source = _bad_signature_ledger()
    path = str(tmp_path / "p1.bin")
    save_ledger(source, path)
    judged = []
    judge = ledger_module.check_tx_genesis

    def counting(tx, genesis, checks):
        judged.append(tx)
        return judge(tx, genesis, checks)

    serial = chain_faults(source)
    assert len(serial) == 2
    monkeypatch.setattr(ledger_module, "check_tx_genesis", counting)
    loaded = load_ledger(path)
    assert judged == source.records
    judged.clear()
    faults = chain_faults(loaded)
    assert faults == serial
    faults.clear()
    assert chain_faults(loaded) == serial
    assert judged == []


@pytest.fixture
def sent_loads(monkeypatch):
    """Loads send every signature check to one helper, one per list;
    gives the helper pid of every list sent. Afterwards no pipe end may
    be left behind once the helper is gone."""
    fds = set(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(identity, "_LIST", 1)
    monkeypatch.setattr(ledger_module, "_HELPER_ROOM", 1 << 10)
    monkeypatch.setattr(ledger_module, "MIN_SENT_RECORDS", 0)
    yield _sends(monkeypatch)
    forks.close()
    assert set(os.listdir("/proc/self/fd")) == fds


def _serial_faults(monkeypatch, ledger):
    with monkeypatch.context() as patch:
        patch.setattr(ledger_module, "MIN_SENT_RECORDS", 1 << 30)
        return chain_faults(ledger)


# Files that raise while read, after 66 good records of 72: each is made
# from the file's bytes and where each record's fold value starts, and
# raises an error that matches.
BROKEN_READS = {
    "truncated record": (lambda data, folds: data[:folds[66] + 31], "record 66"),
    "bad trailer": (lambda data, folds: data[:-36] + (71).to_bytes(4, "big") + data[-32:], "trailer counts 71"),
    "undecodable record": (lambda data, folds: data[:folds[65] + 36] + b"\xff" + data[folds[65] + 37:], "record 66"),
}


@pytest.mark.parametrize("broken", sorted(BROKEN_READS))
def test_a_file_that_raises_mid_read_leaves_no_checks_behind(sent_loads, monkeypatch, tmp_path, broken):
    """A load that raises waits for every check it sent first: no list
    is left in flight to be answered into the next call, which still
    finds a bad signature in the helper's share."""
    _, ledger, _ = _sealed_ledger(n=72, b_max=8)
    path, data = _saved_bytes(ledger, tmp_path)
    corrupt, error = BROKEN_READS[broken]
    path.write_bytes(corrupt(data, _fold_offsets(data)))
    with pytest.raises(LedgerFormatError, match=error):
        load_ledger(str(path))
    assert len(sent_loads) >= 66 and all(helper.in_flight == 0 for helper in forks._HELPERS)

    ledger.records[70] = _flipped(ledger.records[70])
    serial = _serial_faults(monkeypatch, ledger)
    assert len(serial) == 1 and "(BadSignature)" in serial[0]
    save_ledger(ledger, str(path))
    answers = _closes(monkeypatch)
    assert chain_faults(load_ledger(str(path))) == serial
    assert answers == [False]


def test_two_loads_then_two_judgements_give_each_file_its_faults(sent_loads, monkeypatch, tmp_path):
    """As the fleet read-back does: both files loaded, then both judged.
    Each load's checks end with it, so the first file's bad signature
    stays its own."""
    ledgers = [_sealed_ledger(seed=seed, n=72, b_max=8)[1] for seed in (15, 16)]
    ledgers[0].records[40] = _flipped(ledgers[0].records[40])
    paths = [str(tmp_path / f"{i}.bin") for i in range(2)]
    for lg, path in zip(ledgers, paths):
        save_ledger(lg, path)
    serial = [_serial_faults(monkeypatch, lg) for lg in ledgers]
    assert len(serial[0]) == 1 and serial[1] == []
    answers = _closes(monkeypatch)
    loaded = [load_ledger(path) for path in paths]
    assert answers == [False, True]
    assert [chain_faults(lg) for lg in loaded] == serial
