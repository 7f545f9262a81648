"""Verification policies (one verdict reason per failure class) and the
unanimity consensus round, including divergence attribution."""

import dataclasses
import json

import pytest

from avledger import txmodel
from avledger.errors import NotDiverged, ReplicaMismatch, Unattributable
from avledger.ledger import PartitionLedger, chain_faults, fold_ids, make_genesis
from avledger.scenarios import inject_false_information
from avledger.identity import sign_tx_digest
from avledger.txmodel import (
    Partition,
    Role,
    SigEntry,
    check_tx,
    check_tx_committed,
    check_tx_genesis,
)
from avledger.validation import (
    SKIPPED_HALTED,
    ConsensusRound,
    Reason,
    RoundOutcome,
    Vote,
    audit_line,
    detect_tamper,
    run_consensus,
    verify_transaction,
)

from worldkit import (
    append_by_hand,
    apply_mutation,
    batch_credentials,
    commit,
    field_mutations,
    fixed_fields,
    make_est,
    make_et,
    make_mt,
    make_pet,
    make_ret,
    make_edata,
    make_ut,
    make_world,
    vehicle_credentials,
)


def _verdict(world, tx, partition=Partition.OPERATIONAL, ledger=None):
    if ledger is None:
        ledger = world.ledger(partition)
    return verify_transaction(tx, ledger)


def test_valid_transactions_accepted():
    world = make_world(seed=20)
    creds = vehicle_credentials(world, 1000.0)
    for tx in (
        make_est(world, creds=creds),
        make_pet(world, creds=creds),
        make_ut(world, creds=creds),
        make_mt(world, cert=creds[1]),
    ):
        assert _verdict(world, tx) is Reason.OK


def test_unauthorized_kind_for_partition():
    world = make_world(seed=21)
    est = make_est(world)
    assert _verdict(world, est, partition=Partition.DECISIONAL) is Reason.UNAUTHORIZED
    # Evidence requests are the only kind either partition accepts from
    # the insurer; they pass in both.
    ret = make_ret(world, make_edata(world, 1000.0))
    assert _verdict(world, ret) is Reason.OK
    assert _verdict(world, ret, partition=Partition.DECISIONAL) is Reason.OK


def test_unauthorized_proposer_role():
    world = make_world(seed=22)
    creds = vehicle_credentials(world, 1000.0)
    est = make_est(world, creds=creds)
    # Re-sign the same content as if the technician proposed it.
    forged = dataclasses.replace(
        est,
        signatures=(
            SigEntry(role=Role.TECHNICIAN, signature=sign_tx_digest(world.keys["st-0"], est.tid)),
        ),
    )
    assert _verdict(world, forged) is Reason.UNAUTHORIZED


def test_incomplete_update_missing_countersignature():
    world = make_world(seed=23)
    solo = make_ut(world, countersigned=False)
    assert _verdict(world, solo) is Reason.INCOMPLETE


def test_incomplete_execution_without_committed_parent():
    world = make_world(seed=24)
    creds = vehicle_credentials(world, 1000.0)
    ut = make_ut(world, creds=creds)
    et = make_et(world, ut.tid, creds, at=1200.0)  # inside the cert window
    ledger = world.ledger()
    assert verify_transaction(et, ledger) is Reason.INCOMPLETE
    append_by_hand(ledger, ut)
    assert verify_transaction(et, ledger) is Reason.OK


def test_duplicate_tid_rejected():
    world = make_world(seed=25)
    ledger = world.ledger()
    est = make_est(world)
    append_by_hand(ledger, est)
    assert verify_transaction(est, ledger) is Reason.DUPLICATE


def test_expired_certificate_rejected_at_body_timestamp():
    world = make_world(seed=26)
    creds = vehicle_credentials(world, 1000.0, validity=300.0)
    stale = make_est(world, at=1400.0, creds=creds)  # past the window
    assert _verdict(world, stale) is Reason.EXPIRED_CERT
    early = make_est(world, at=999.0, creds=creds)  # before issuance
    assert _verdict(world, early) is Reason.EXPIRED_CERT


def test_evidence_request_window_is_judged_at_the_evidence_time():
    """An evidence request names the subject's collision certificate. A
    request filed after that certificate expired, on evidence from inside
    its window, is honest; evidence from outside the window is not."""
    world = make_world(seed=27)
    pet = make_pet(world, at=1200.0, creds=vehicle_credentials(world, 1000.0, validity=300.0))
    late = make_ret(world, pet.body.edata, at=5000.0, cert=pet.cert)
    assert _verdict(world, late) is Reason.OK
    forged = make_ret(world, inject_false_information(pet.body.edata), at=5000.0, cert=pet.cert)
    assert _verdict(world, forged) is Reason.OK  # caught by the adjudicator instead
    for ts in (999.0, 1300.0):
        outside = make_ret(world, make_edata(world, ts), at=1250.0, cert=pet.cert)
        assert _verdict(world, outside) is Reason.EXPIRED_CERT, ts


def test_bad_signature_rejected():
    world = make_world(seed=27)
    est = make_est(world)
    entry = est.signatures[0]
    flipped = dataclasses.replace(
        entry, signature=bytes([entry.signature[0] ^ 1]) + entry.signature[1:]
    )
    forged = dataclasses.replace(est, signatures=(flipped,))
    assert _verdict(world, forged) is Reason.BAD_SIGNATURE


def test_foreign_ca_certificate_rejected():
    world = make_world(seed=28)
    stranger = make_world(seed=29)  # different CA root
    est = make_est(stranger)
    assert _verdict(world, est) is Reason.BAD_SIGNATURE


def test_certificate_from_any_genesis_root_accepted():
    world = make_world(seed=28)
    second = make_world(seed=29)
    genesis = make_genesis(Partition.OPERATIONAL, [world.root, second.root], world.p1.membership)
    ledger = PartitionLedger(genesis)
    est = make_est(second)
    assert verify_transaction(est, ledger) is Reason.OK
    append_by_hand(ledger, est)
    assert chain_faults(ledger) == []


def test_malformed_body_rejected():
    world = make_world(seed=30)
    est = make_est(world)
    negative = dataclasses.replace(
        est.body, esm=dataclasses.replace(est.body.esm, speed_mps=-5.0)
    )
    assert _verdict(world, dataclasses.replace(est, body=negative)) is Reason.MALFORMED_BODY
    # An edata hash that does not match its content is malformed, not forged-looking.
    pet = make_pet(world)
    bad_edata = dataclasses.replace(pet.body.edata, edata_hash=b"\x00" * 32)
    broken = dataclasses.replace(pet, body=dataclasses.replace(pet.body, edata=bad_edata))
    assert _verdict(world, broken) is Reason.MALFORMED_BODY
    # A tid that does not hash its contents is malformed too.
    assert _verdict(world, dataclasses.replace(est, tid=b"\x01" * 32)) is Reason.MALFORMED_BODY


def test_unencodable_fields_are_malformed_not_a_crash():
    """A field value the canonical encoder cannot write gives a verdict,
    never an exception out of the validity rule."""
    world = make_world(seed=31)
    ut = make_ut(world)
    est = make_est(world)
    mt = make_mt(world, roadworthy=True)
    unencodable = [
        # A bool field takes only True or False: 2 and "yes" are truthy
        # but are not the value whose bytes the tid covers.
        dataclasses.replace(mt, body=dataclasses.replace(mt.body, roadworthy=2)),
        dataclasses.replace(mt, body=dataclasses.replace(mt.body, roadworthy="yes")),
        dataclasses.replace(ut, body=dataclasses.replace(ut.body, update_file_hash=b"\x00" * 31)),
        dataclasses.replace(ut, body=dataclasses.replace(ut.body, metadata=5)),
        dataclasses.replace(
            est,
            body=dataclasses.replace(
                est.body,
                esm=dataclasses.replace(
                    est.body.esm, position=dataclasses.replace(est.body.esm.position, lane=-1)
                ),
            ),
        ),
    ]
    for tx in unencodable:
        assert _verdict(world, tx) is Reason.MALFORMED_BODY


def test_fixed_size_fields_of_the_wrong_size_are_malformed():
    """Every fixed(n) byte string a transaction carries, one byte short or
    one byte long, gives MalformedBody."""
    world = make_world(seed=32)
    creds = vehicle_credentials(world, 1000.0)
    est = make_est(world, creds=creds)
    ut = make_ut(world, creds=creds)
    honest = [
        est,
        ut,
        make_et(world, ut.tid, creds, at=1200.0),
        make_pet(world, creds=creds),
        make_mt(world),
        make_ret(world, make_edata(world, 1000.0), at=1010.0),
    ]
    checked = 0
    for tx in honest:
        assert _verdict(world, tx) is not Reason.MALFORMED_BODY
        for path, size in fixed_fields(tx):
            for wrong in (size - 1, size + 1):
                bad = apply_mutation(tx, path, b"\x07" * wrong)
                assert _verdict(world, bad) is Reason.MALFORMED_BODY, (tx.kind, path, wrong)
                checked += 1
    assert checked > 2 * len(honest) * 3


# --- the two halves of the rule ------------------------------------------------

def _bad_corpus():
    """A P1 replica holding an EST and a UT, and the transactions it must
    reject: one named case per failure class, then every single-field
    corruption of five honest transactions. Returns (ledger, named, all)."""
    world = make_world(seed=60)
    ledger = world.ledger()
    creds = vehicle_credentials(world, 1000.0)
    est = make_est(world, at=1000.0, creds=creds)
    ut = make_ut(world, at=1100.0, creds=creds)
    for tx in (est, ut):
        append_by_hand(ledger, tx)
    entry = est.signatures[0]
    flipped = dataclasses.replace(entry, signature=bytes([entry.signature[0] ^ 1]) + entry.signature[1:])
    speeding = dataclasses.replace(est.body, esm=dataclasses.replace(est.body.esm, speed_mps=-5.0))
    named = {
        "malformed": (dataclasses.replace(est, body=speeding), Reason.MALFORMED_BODY),
        "unauthorized": (
            dataclasses.replace(est, signatures=(SigEntry(Role.TECHNICIAN, sign_tx_digest(world.keys["st-0"], est.tid)),)),
            Reason.UNAUTHORIZED,
        ),
        "incomplete": (make_ut(world, countersigned=False), Reason.INCOMPLETE),
        "bad-signature": (dataclasses.replace(est, signatures=(flipped,)), Reason.BAD_SIGNATURE),
        "foreign-ca": (make_est(make_world(seed=61)), Reason.BAD_SIGNATURE),
        "expired": (make_est(world, at=1400.0, creds=creds), Reason.EXPIRED_CERT),
        "duplicate": (est, Reason.DUPLICATE),
        "orphan-et": (make_et(world, b"\x42" * 32, creds, at=1200.0), Reason.INCOMPLETE),
        "et-parent-not-an-update": (make_et(world, est.tid, creds, at=1200.0), Reason.INCOMPLETE),
    }
    honest = [
        make_et(world, ut.tid, creds, at=1200.0),
        make_pet(world, at=1000.0),
        make_mt(world, at=1000.0),
        make_ret(world, make_edata(world, 1000.0), at=1010.0),
        make_est(world, at=1000.0),
    ]
    corpus = [tx for tx, _ in named.values()] + honest
    corpus += [apply_mutation(tx, path, value) for tx in honest for path, value in field_mutations(tx)]
    return ledger, named, corpus


def test_check_tx_is_the_genesis_half_then_the_committed_half():
    ledger, named, corpus = _bad_corpus()
    for name, (tx, reason) in named.items():
        assert verify_transaction(tx, ledger) is reason, name
    reasons = set()
    for tx in corpus:
        first = check_tx_genesis(tx, ledger.genesis)
        split = check_tx_committed(tx, ledger.tid_index) if first is Reason.OK else first
        assert check_tx(tx, ledger.genesis, ledger.tid_index) is split
        assert check_tx(tx, ledger.genesis, ledger.tid_index, set()) is split
        reasons.add(split)
    assert reasons == set(Reason)


@pytest.mark.parametrize("proposal", ["removed-tx-again", "et-of-removed-update"])
def test_each_vote_is_the_replica_verdict_under_tamper(proposal):
    world = make_world(seed=64)
    replicas = world.replicas(Partition.OPERATIONAL)
    creds = vehicle_credentials(world, 1000.0)
    victim = make_ut(world, at=1000.0, creds=creds)
    commit(replicas, victim)
    replicas["st-0"].remove_open(victim.tid)
    tx = victim if proposal == "removed-tx-again" else make_et(world, victim.tid, creds, at=1100.0)
    expected = {v: verify_transaction(tx, lg) for v, lg in replicas.items()}
    assert len(set(expected.values())) == 2  # the rogue replica judges differently
    round_ = commit(replicas, tx)
    assert {v: vote.reason for v, vote in round_.votes.items()} == expected
    assert round_.outcome is RoundOutcome.REJECTED


# --- consensus ----------------------------------------------------------------

def test_rounds_that_share_a_set_ca_check_each_batch_root_once(monkeypatch):
    world = make_world(seed=41)
    batch = batch_credentials(world, 1000.0, 6)
    txs = [make_est(world, at=1000.0 + i, creds=creds) for i, creds in enumerate(batch)]
    txs.append(make_est(world, at=1010.0))  # alone in a batch of its own
    checked = []
    real = txmodel.certificate_signature_ok

    def counting(cert, ca_pubkey):
        checked.append(cert.batch_size)
        return real(cert, ca_pubkey)

    monkeypatch.setattr(txmodel, "certificate_signature_ok", counting)
    replicas, ca_checked = world.replicas(Partition.OPERATIONAL), set()
    for tx in txs:
        round_ = run_consensus(tx, replicas, 1000.0, ca_checked)
        assert round_.outcome is RoundOutcome.COMMITTED
    assert checked == [6, 1] and len(ca_checked) == 2
    # Without a set, every round checks its root again.
    checked.clear()
    replicas = world.replicas(Partition.OPERATIONAL)
    for tx in txs:
        run_consensus(tx, replicas, 1000.0)
    assert checked == [6] * 6 + [1]


def test_commit_mutates_every_replica_identically():
    world = make_world(seed=41)
    replicas = world.replicas(Partition.OPERATIONAL)
    est = make_est(world)
    round_ = commit(replicas, est)
    assert round_.outcome is RoundOutcome.COMMITTED
    folds = {lg.cblock_id for lg in replicas.values()}
    assert len(folds) == 1
    assert all(est.tid in lg.tid_index for lg in replicas.values())
    assert all(vote.reason is Reason.OK for vote in round_.votes.values())


def _vote_groups(round_):
    """The validators that share each Vote object, as sorted tuples."""
    groups = {}
    for validator, vote in round_.votes.items():
        groups.setdefault(id(vote), []).append(validator)
    return sorted(tuple(sorted(members)) for members in groups.values())


def test_replicas_in_one_state_share_one_vote():
    world = make_world(seed=67)
    replicas = world.replicas(Partition.OPERATIONAL)
    victim = make_est(world, at=1000.0)
    assert _vote_groups(commit(replicas, victim)) == [("am-0", "ic-0", "st-0")]
    # An edited open block is a state of its own.
    replicas["st-0"].remove_open(victim.tid)
    round_ = commit(replicas, make_est(world, at=1010.0))
    assert round_.outcome is RoundOutcome.DIVERGED
    assert _vote_groups(round_) == [("am-0", "ic-0"), ("st-0",)]
    # So is one that already holds the proposed tid.
    round_ = commit(replicas, victim)
    assert round_.outcome is RoundOutcome.REJECTED
    assert _vote_groups(round_) == [("am-0", "ic-0"), ("st-0",)]
    assert round_.votes["am-0"].reason is Reason.DUPLICATE
    assert round_.votes["st-0"] == Vote(Reason.OK, round_.votes["st-0"].cblock_id)


def test_every_replica_appends_the_fold_it_voted_for():
    world = make_world(seed=68)
    replicas = world.replicas(Partition.OPERATIONAL, b_max=2)
    for at in (1000.0, 1010.0, 1020.0):
        round_ = commit(replicas, make_est(world, at=at))
        assert round_.outcome is RoundOutcome.COMMITTED
        for validator, replica in replicas.items():
            # The very object voted for: no replica rehashes it.
            assert replica.cblock_id is round_.votes[validator].cblock_id
    assert all(chain_faults(lg) == [] for lg in replicas.values())
    # A replica whose last stored fold value was forged, its records
    # untouched, is in its peers' state: it appends the agreed value, not
    # one folded from the forged value, and the forgery stays where
    # verify finds it.
    replicas["ic-0"].folds[-1] = b"\x55" * 32
    round_ = commit(replicas, make_est(world, at=1030.0))
    assert round_.outcome is RoundOutcome.COMMITTED
    assert {lg.cblock_id for lg in replicas.values()} == {round_.votes["am-0"].cblock_id}
    assert len(chain_faults(replicas["ic-0"])) == 1
    assert chain_faults(replicas["am-0"]) == []


def test_rejected_round_leaves_replicas_untouched():
    world = make_world(seed=42)
    replicas = world.replicas(Partition.OPERATIONAL)
    before = {v: (lg.cblock_id, len(lg.tid_index)) for v, lg in replicas.items()}
    solo_ut = make_ut(world, countersigned=False)
    round_ = commit(replicas, solo_ut)
    assert round_.outcome is RoundOutcome.REJECTED
    assert {v: (lg.cblock_id, len(lg.tid_index)) for v, lg in replicas.items()} == before
    assert all(vote.reason is Reason.INCOMPLETE for vote in round_.votes.values())


def test_commit_seals_all_replicas_at_capacity():
    world = make_world(seed=43)
    replicas = world.replicas(Partition.OPERATIONAL, b_max=2)
    commit(replicas, make_est(world, at=1000.0))
    commit(replicas, make_est(world, at=1010.0))
    assert all(lg.sealed == 2 and not lg.open_transactions() for lg in replicas.values())
    block_ids = {tuple(lg.block_ids()) for lg in replicas.values()}
    assert len(block_ids) == 1 and len(next(iter(block_ids))) == 1


def test_out_of_band_deletion_diverges_next_round():
    world = make_world(seed=44)
    replicas = world.replicas(Partition.OPERATIONAL)
    victim = make_est(world, at=1000.0)
    commit(replicas, victim)
    replicas["st-0"].remove_open(victim.tid)

    next_tx = make_est(world, at=1010.0)
    before = {v: lg.cblock_id for v, lg in replicas.items()}
    round_ = commit(replicas, next_tx)
    assert round_.outcome is RoundOutcome.DIVERGED
    # Divergence mutates nothing.
    assert {v: lg.cblock_id for v, lg in replicas.items()} == before
    assert detect_tamper(round_) == ("st-0",)


def test_out_of_band_body_mutation_diverges():
    world = make_world(seed=45)
    replicas = world.replicas(Partition.OPERATIONAL)
    victim = make_est(world, at=1000.0)
    commit(replicas, victim)
    rogue = replicas["am-0"]
    held = rogue.records[0]  # the open block's only record
    rogue.records[0] = dataclasses.replace(held, tid=b"\x13" * 32)
    round_ = commit(replicas, make_est(world, at=1010.0))
    assert round_.outcome is RoundOutcome.DIVERGED
    assert detect_tamper(round_) == ("am-0",)


def test_each_replica_is_judged_on_its_own_open_block():
    world = make_world(seed=65)
    replicas = world.replicas(Partition.OPERATIONAL)
    first, second = make_est(world, at=1000.0), make_est(world, at=1005.0)
    commit(replicas, first)
    commit(replicas, second)
    # Two replicas edited two ways, one left intact: three open blocks.
    replicas["st-0"].remove_open(first.tid)
    edited = replicas["ic-0"].records
    edited[1] = dataclasses.replace(edited[1], tid=b"\x13" * 32)
    tx = make_est(world, at=1010.0)
    round_ = commit(replicas, tx)
    assert round_.outcome is RoundOutcome.DIVERGED
    for validator, replica in replicas.items():
        tids = [t.tid for t in replica.open_transactions()] + [tx.tid]
        assert round_.votes[validator].cblock_id == fold_ids(replica.sealed_tip(), tids)
    assert len({vote.cblock_id for vote in round_.votes.values()}) == 3
    with pytest.raises(Unattributable):
        detect_tamper(round_)


def test_a_forged_fold_trail_does_not_move_the_vote():
    world = make_world(seed=66)
    replicas = world.replicas(Partition.OPERATIONAL)
    commit(replicas, make_est(world, at=1000.0))
    # The candidate fold is recomputed from the records: a forged stored
    # fold value leaves the rogue's vote equal to its honest peers'.
    replicas["ic-0"].folds[-1] = b"\x55" * 32
    round_ = commit(replicas, make_est(world, at=1010.0))
    assert round_.outcome is RoundOutcome.COMMITTED
    assert len({vote.cblock_id for vote in round_.votes.values()}) == 1
    # The forgery is still in the rogue's chain, where verify finds it.
    assert chain_faults(replicas["ic-0"]) != []
    assert chain_faults(replicas["am-0"]) == []


def test_two_validator_divergence_is_unattributable():
    world = make_world(seed=46)
    replicas = world.replicas(Partition.DECISIONAL)
    assert sorted(replicas) == ["gta-0", "la-0"]
    first = make_ret(world, make_edata(world, 1000.0), at=1000.0)
    commit(replicas, first)
    replicas["la-0"].remove_open(first.tid)
    round_ = commit(replicas, make_ret(world, make_edata(world, 1005.0), at=1010.0))
    assert round_.outcome is RoundOutcome.DIVERGED
    with pytest.raises(Unattributable):
        detect_tamper(round_)


def test_detect_tamper_requires_diverged_round():
    world = make_world(seed=47)
    replicas = world.replicas(Partition.OPERATIONAL)
    round_ = commit(replicas, make_est(world))
    with pytest.raises(NotDiverged):
        detect_tamper(round_)


def test_consensus_requires_comparable_replicas():
    world = make_world(seed=48)
    replicas = world.replicas(Partition.OPERATIONAL, b_max=1)
    # One validator privately sealed a block the others never saw.
    append_by_hand(replicas["ic-0"], make_est(world, at=900.0))
    assert replicas["ic-0"].sealed == 1
    with pytest.raises(ReplicaMismatch):
        commit(replicas, make_est(world, at=1000.0))

    mixed = world.replicas(Partition.OPERATIONAL)
    mixed["ic-0"] = world.ledger(Partition.DECISIONAL)
    with pytest.raises(ReplicaMismatch):
        commit(mixed, make_est(world, at=1000.0))

    # Same partition, another genesis: the round judges one genesis half
    # for every replica, so it refuses before judging anything.
    foreign = world.replicas(Partition.OPERATIONAL)
    foreign["ic-0"] = make_world(seed=63).ledger(Partition.OPERATIONAL)
    with pytest.raises(ReplicaMismatch, match="genesis"):
        commit(foreign, make_est(world, at=1000.0))


def test_consensus_needs_a_validator():
    world = make_world(seed=49)
    with pytest.raises(ValueError):
        run_consensus(make_est(world), {}, 0.0)


def _audit_record(round_):
    """The audit record of a round as a plain object, field by field."""
    return {
        "at": round_.at,
        "partition": round_.partition.value,
        "tid": round_.tid.hex(),
        "outcome": round_.outcome.value,
        "votes": {
            validator: {
                "decision": "accept" if vote.reason is Reason.OK else "reject",
                "reason": vote.reason.value,
                "cblock_id": vote.cblock_id.hex() if vote.cblock_id else None,
            }
            for validator, vote in round_.votes.items()
        },
    }


def _line_of(round_):
    return audit_line(round_.at, round_.partition, round_.tid, round_.outcome, round_.votes)


def _assert_canonical(line):
    assert line == json.dumps(json.loads(line), sort_keys=True)


def test_audit_line_is_the_canonical_json_of_the_round():
    world = make_world(seed=50)
    replicas = world.replicas(Partition.OPERATIONAL)
    victim = make_est(world, at=1000.0)
    committed = commit(replicas, victim)
    rejected = commit(replicas, make_ut(world, countersigned=False))
    replicas["st-0"].remove_open(victim.tid)
    diverged = commit(replicas, make_est(world, at=1010.0))
    assert [r.outcome for r in (committed, rejected, diverged)] == [
        RoundOutcome.COMMITTED,
        RoundOutcome.REJECTED,
        RoundOutcome.DIVERGED,
    ]
    for round_ in (committed, rejected, diverged):
        line = _line_of(round_)
        _assert_canonical(line)
        record = json.loads(line)
        assert record == _audit_record(round_)
        assert record["partition"] == "P1"
        assert set(record["votes"]) == set(replicas)
    for vote in json.loads(_line_of(committed))["votes"].values():
        assert vote["decision"] == "accept"
        assert vote["reason"] == "Ok"
        assert len(bytes.fromhex(vote["cblock_id"])) == 32
    for vote in json.loads(_line_of(rejected))["votes"].values():
        assert vote == {"cblock_id": None, "decision": "reject", "reason": "Incomplete"}
    folds = {vote["cblock_id"] for vote in json.loads(_line_of(diverged))["votes"].values()}
    assert len(folds) == 2


def test_a_skipped_line_is_canonical_json_with_no_votes():
    line = audit_line(12.5, Partition.DECISIONAL, b"\xab" * 32, SKIPPED_HALTED, {})
    _assert_canonical(line)
    assert json.loads(line) == {
        "at": 12.5,
        "outcome": "SkippedHalted",
        "partition": "P2",
        "tid": "ab" * 32,
        "votes": {},
    }


@pytest.mark.parametrize("at", [0.1 + 0.2, 1e22, 5e-324, -0.0, 1000.0, float("inf"), float("nan")])
def test_audit_line_escapes_validator_ids_and_writes_at_as_json_does(at):
    votes = {
        'st-"0"': Vote(Reason.OK, b"\x01" * 32),
        "am-\u00e9\u4e2d": Vote(Reason.DUPLICATE, None),
        "a\\b\n": Vote(Reason.OK, b"\x02" * 32),
    }
    round_ = ConsensusRound(Partition.OPERATIONAL, b"\x07" * 32, at, votes, RoundOutcome.REJECTED)
    line = _line_of(round_)
    assert line.isascii()
    assert line == json.dumps(_audit_record(round_), sort_keys=True)
    _assert_canonical(line)

