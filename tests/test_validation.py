"""Verification policies (one verdict reason per failure class) and the
unanimity consensus round, including divergence attribution."""

import dataclasses

import pytest

from avledger.errors import NotDiverged, ReplicaMismatch, Unattributable
from avledger.ledger import PartitionLedger
from avledger.scenarios import tamper_cblock
from avledger.txmodel import Partition, Role, TxKind
from avledger.validation import (
    Reason,
    RoundOutcome,
    audit_record,
    detect_tamper,
    run_consensus,
    verify_transaction,
)

from worldkit import (
    commit,
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
        verdict = _verdict(world, tx)
        assert verdict.accepted and verdict.reason is Reason.OK


def test_unauthorized_kind_for_partition():
    world = make_world(seed=21)
    est = make_est(world)
    verdict = _verdict(world, est, partition=Partition.DECISIONAL)
    assert verdict.reason is Reason.UNAUTHORIZED
    # Evidence requests are the only kind either partition accepts from
    # the insurer; they pass in both.
    ret = make_ret(world, make_edata(world, 1000.0))
    assert _verdict(world, ret).accepted
    assert _verdict(world, ret, partition=Partition.DECISIONAL).accepted


def test_unauthorized_proposer_role():
    world = make_world(seed=22)
    creds = vehicle_credentials(world, 1000.0)
    est = make_est(world, creds=creds)
    # Re-sign the same content as if the technician proposed it.
    from avledger.identity import sign_tx_digest
    from avledger.txmodel import SigEntry, Transaction

    forged = dataclasses.replace(
        est,
        signatures=(
            SigEntry(role=Role.TECHNICIAN, signature=sign_tx_digest(world.keys["st-0"].secret_key, est.tid)),
        ),
    )
    assert _verdict(world, forged).reason is Reason.UNAUTHORIZED


def test_incomplete_update_missing_countersignature():
    world = make_world(seed=23)
    solo = make_ut(world, countersigned=False)
    assert _verdict(world, solo).reason is Reason.INCOMPLETE


def test_incomplete_execution_without_committed_parent():
    world = make_world(seed=24)
    creds = vehicle_credentials(world, 1000.0)
    ut = make_ut(world, creds=creds)
    et = make_et(world, ut.tid, creds, at=1200.0)  # inside the cert window
    ledger = world.ledger()
    assert verify_transaction(et, ledger).reason is Reason.INCOMPLETE
    ledger.append_validated(ut)
    assert verify_transaction(et, ledger).accepted


def test_duplicate_tid_rejected():
    world = make_world(seed=25)
    ledger = world.ledger()
    est = make_est(world)
    ledger.append_validated(est)
    assert verify_transaction(est, ledger).reason is Reason.DUPLICATE


def test_expired_certificate_rejected_at_body_timestamp():
    world = make_world(seed=26)
    creds = vehicle_credentials(world, 1000.0, validity=300.0)
    stale = make_est(world, at=1400.0, creds=creds)  # past the window
    assert _verdict(world, stale).reason is Reason.EXPIRED_CERT
    early = make_est(world, at=999.0, creds=creds)  # before issuance
    assert _verdict(world, early).reason is Reason.EXPIRED_CERT


def test_bad_signature_rejected():
    world = make_world(seed=27)
    est = make_est(world)
    entry = est.signatures[0]
    flipped = dataclasses.replace(
        entry, signature=bytes([entry.signature[0] ^ 1]) + entry.signature[1:]
    )
    forged = dataclasses.replace(est, signatures=(flipped,))
    assert _verdict(world, forged).reason is Reason.BAD_SIGNATURE


def test_foreign_ca_certificate_rejected():
    world = make_world(seed=28)
    stranger = make_world(seed=29)  # different CA root
    est = make_est(stranger)
    assert _verdict(world, est).reason is Reason.BAD_SIGNATURE


def test_malformed_body_rejected():
    world = make_world(seed=30)
    est = make_est(world)
    negative = dataclasses.replace(
        est.body, esm=dataclasses.replace(est.body.esm, speed_mps=-5.0)
    )
    assert _verdict(world, dataclasses.replace(est, body=negative)).reason is Reason.MALFORMED_BODY
    # An edata hash that does not match its content is malformed, not forged-looking.
    pet = make_pet(world)
    bad_edata = dataclasses.replace(pet.body.edata, edata_hash=b"\x00" * 32)
    broken = dataclasses.replace(pet, body=dataclasses.replace(pet.body, edata=bad_edata))
    assert _verdict(world, broken).reason is Reason.MALFORMED_BODY
    # A tid that does not hash its contents is malformed too.
    assert _verdict(world, dataclasses.replace(est, tid=b"\x01" * 32)).reason is Reason.MALFORMED_BODY


# --- consensus ----------------------------------------------------------------

def test_commit_mutates_every_replica_identically():
    world = make_world(seed=41)
    replicas = world.replicas(Partition.OPERATIONAL)
    est = make_est(world)
    round_ = commit(replicas, est)
    assert round_.outcome is RoundOutcome.COMMITTED
    folds = {lg.cblock_id for lg in replicas.values()}
    assert len(folds) == 1
    assert all(est.tid in lg.tid_index for lg in replicas.values())
    assert all(vote.verdict.accepted for vote in round_.votes.values())


def test_rejected_round_leaves_replicas_untouched():
    world = make_world(seed=42)
    replicas = world.replicas(Partition.OPERATIONAL)
    before = {v: (lg.cblock_id, len(lg.tid_index)) for v, lg in replicas.items()}
    solo_ut = make_ut(world, countersigned=False)
    round_ = commit(replicas, solo_ut)
    assert round_.outcome is RoundOutcome.REJECTED
    assert {v: (lg.cblock_id, len(lg.tid_index)) for v, lg in replicas.items()} == before
    assert all(vote.verdict.reason is Reason.INCOMPLETE for vote in round_.votes.values())


def test_commit_seals_all_replicas_at_capacity():
    world = make_world(seed=43)
    replicas = world.replicas(Partition.OPERATIONAL, b_max=2)
    commit(replicas, make_est(world, at=1000.0))
    commit(replicas, make_est(world, at=1010.0))
    assert all(len(lg.blocks) == 1 for lg in replicas.values())
    block_ids = {lg.blocks[0].block_id for lg in replicas.values()}
    assert len(block_ids) == 1


def test_out_of_band_deletion_diverges_next_round():
    world = make_world(seed=44)
    replicas = world.replicas(Partition.OPERATIONAL)
    victim = make_est(world, at=1000.0)
    commit(replicas, victim)
    tamper_cblock(replicas["st-0"], victim.tid)

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
    held = rogue.current.transactions[0]
    rogue.current.transactions[0] = dataclasses.replace(
        held, tid=b"\x13" * 32
    )
    round_ = commit(replicas, make_est(world, at=1010.0))
    assert round_.outcome is RoundOutcome.DIVERGED
    assert detect_tamper(round_) == ("am-0",)


def test_two_validator_divergence_is_unattributable():
    world = make_world(seed=46)
    replicas = world.replicas(Partition.DECISIONAL)
    assert sorted(replicas) == ["gta-0", "la-0"]
    first = make_ret(world, make_edata(world, 1000.0), at=1000.0)
    commit(replicas, first)
    tamper_cblock(replicas["la-0"], first.tid)
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
    replicas["ic-0"].append_validated(make_est(world, at=900.0))
    replicas["ic-0"].maybe_seal()
    with pytest.raises(ReplicaMismatch):
        commit(replicas, make_est(world, at=1000.0))

    mixed = world.replicas(Partition.OPERATIONAL)
    mixed["ic-0"] = world.ledger(Partition.DECISIONAL)
    with pytest.raises(ReplicaMismatch):
        commit(mixed, make_est(world, at=1000.0))


def test_consensus_needs_a_validator():
    world = make_world(seed=49)
    with pytest.raises(ValueError):
        run_consensus([], make_est(world), {}, 0.0)


def test_audit_record_shape():
    world = make_world(seed=50)
    replicas = world.replicas(Partition.OPERATIONAL)
    round_ = commit(replicas, make_est(world))
    record = audit_record(round_)
    assert record["outcome"] == "Committed"
    assert record["partition"] == "P1"
    assert set(record["votes"]) == set(replicas)
    for vote in record["votes"].values():
        assert vote["decision"] == "accept"
        assert vote["reason"] == "Ok"
        assert len(bytes.fromhex(vote["cblock_id"])) == 32
