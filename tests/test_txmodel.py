"""Transaction construction, tid stability, canonical encoding round
trips, and the multi-signature rules."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from avledger.errors import DuplicateSigner, MalformedBody, NotMultiSig
from avledger.txmodel import (
    EventTrigger,
    GeoPoint,
    Reason,
    Role,
    TxKind,
    body_timestamp,
    build_transaction,
    check_tx,
    compute_edata_hash,
    compute_tid,
    countersign,
    decode_transaction,
    encode_transaction,
    required_signers,
    validate_structure,
)

from worldkit import (
    make_edata,
    make_esm,
    make_est,
    make_et,
    make_mt,
    make_pet,
    make_ret,
    make_ut,
    make_world,
    vehicle_credentials,
)

WORLD = make_world(seed=777)


def _all_kind_samples():
    """One fully signed transaction per kind, parents resolved."""
    world = make_world(seed=31)
    creds = vehicle_credentials(world, 1000.0)
    est = make_est(world, at=1000.0, creds=creds)
    pet = make_pet(world, at=1010.0, creds=creds)
    ut = make_ut(world, at=1020.0, creds=creds)
    et = make_et(world, ut.tid, creds, at=1030.0)
    mt = make_mt(world, at=1040.0, cert=creds[1])
    ret = make_ret(world, make_edata(world, 1010.0), at=1050.0, cert=creds[1])
    return [est, pet, ut, et, mt, ret]


def test_every_kind_builds_and_round_trips():
    for tx in _all_kind_samples():
        validate_structure(tx)
        decoded = decode_transaction(encode_transaction(tx))
        assert decoded == tx


def test_tid_is_content_hash_and_ignores_signatures():
    world = make_world(seed=32)
    creds = vehicle_credentials(world, 1000.0)
    ut = make_ut(world, creds=creds, countersigned=False)
    countersigned = countersign(ut, creds[0], Role.VEHICLE)
    assert countersigned.tid == ut.tid
    assert len(countersigned.signatures) == 2
    assert compute_tid(ut.kind, ut.body, ut.cert, ut.parent_tid) == ut.tid


def test_tid_changes_with_any_content_field():
    world = make_world(seed=33)
    creds = vehicle_credentials(world, 1000.0)
    est = make_est(world, at=1000.0, creds=creds)
    base = est.tid
    bumped_body = dataclasses.replace(est.body, ts=est.body.ts + 1.0)
    assert compute_tid(est.kind, bumped_body, est.cert, None) != base
    other_cert = vehicle_credentials(world, 1000.0)[1]
    assert compute_tid(est.kind, est.body, other_cert, None) != base
    assert compute_tid(est.kind, est.body, est.cert, b"\x01" * 32) != base


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), st.sampled_from(list(EventTrigger)))
def test_distinct_bodies_get_distinct_tids(ts, trigger):
    creds = vehicle_credentials(WORLD, 1000.0)
    a = make_est(WORLD, at=ts, creds=creds, trigger=trigger)
    b = make_est(WORLD, at=ts + 1.0, creds=creds, trigger=trigger)
    assert a.tid != b.tid


def test_required_signers_per_kind():
    world = make_world(seed=34)
    samples = {tx.kind: tx for tx in _all_kind_samples()}
    assert required_signers(TxKind.UPDATE, samples[TxKind.UPDATE].body) == (
        Role.MANUFACTURER,
        Role.VEHICLE,
    )
    for kind, role in [
        (TxKind.EVENT_SAFETY, Role.VEHICLE),
        (TxKind.COLLISION_EVIDENCE, Role.VEHICLE),
        (TxKind.EXECUTION, Role.VEHICLE),
        (TxKind.MAINTENANCE, Role.TECHNICIAN),
    ]:
        assert required_signers(kind, samples[kind].body) == (role,)
    ret = samples[TxKind.EVIDENCE_REQUEST]
    assert required_signers(ret.kind, ret.body) == (ret.body.requester,)


def test_countersign_rules():
    world = make_world(seed=35)
    creds = vehicle_credentials(world, 1000.0)
    est = make_est(world, creds=creds)
    with pytest.raises(NotMultiSig):
        countersign(est, creds[0], Role.VEHICLE)
    ut = make_ut(world, creds=creds, countersigned=False)
    signed = countersign(ut, creds[0], Role.VEHICLE)
    with pytest.raises(DuplicateSigner):
        countersign(signed, creds[0], Role.VEHICLE)
    with pytest.raises(DuplicateSigner):
        countersign(signed, world.keys["am-0"], Role.MANUFACTURER)


def test_check_tx_checks_every_entry():
    world = make_world(seed=36)
    creds = vehicle_credentials(world, 1000.0)
    ut = make_ut(world, creds=creds)
    assert check_tx(ut, world.p1, {}) is Reason.OK
    # The shared rule judges completeness too: the maker's lone signature
    # on an update verifies, but the signer set is incomplete.
    solo = make_ut(world, creds=creds, countersigned=False)
    assert check_tx(solo, world.p1, {}) is Reason.INCOMPLETE
    # A flipped signature byte fails, on either entry.
    for pos in range(len(ut.signatures)):
        entry = ut.signatures[pos]
        flipped = dataclasses.replace(entry, signature=bytes([entry.signature[0] ^ 1]) + entry.signature[1:])
        bad = dataclasses.replace(ut, signatures=ut.signatures[:pos] + (flipped,) + ut.signatures[pos + 1:])
        assert check_tx(bad, world.p1, {}) is Reason.BAD_SIGNATURE
    # A vehicle signature outside the certificate window fails.
    late = make_ut(world, at=1000.0 + 10_000.0, creds=creds)
    assert check_tx(late, world.p1, {}) is Reason.EXPIRED_CERT


def test_body_timestamp_source_per_kind():
    for tx in _all_kind_samples():
        ts = body_timestamp(tx)
        if tx.kind is TxKind.EVENT_SAFETY:
            assert ts == tx.body.ts
        elif tx.kind is TxKind.COLLISION_EVIDENCE:
            assert ts == tx.body.edata.ts
        else:
            assert ts == tx.body.submitted_at


# --- evidence payloads --------------------------------------------------------

def test_edata_hash_covers_all_sibling_fields():
    world = make_world(seed=37)
    edata = make_edata(world, 1000.0, witness=(b"sealed-bytes",))
    assert edata.edata_hash == compute_edata_hash(
        edata.loc, edata.ts, edata.hv_data, edata.ts_data, edata.enc_witness
    )
    moved = dataclasses.replace(edata, loc=GeoPoint(41.0, -75.0))
    assert (
        compute_edata_hash(moved.loc, moved.ts, moved.hv_data, moved.ts_data, moved.enc_witness)
        != edata.edata_hash
    )
    slower = dataclasses.replace(
        edata, hv_data=dataclasses.replace(edata.hv_data, speed_mps=edata.hv_data.speed_mps - 1.0)
    )
    assert (
        compute_edata_hash(slower.loc, slower.ts, slower.hv_data, slower.ts_data, slower.enc_witness)
        != edata.edata_hash
    )


def test_validate_structure_rejections():
    world = make_world(seed=38)
    creds = vehicle_credentials(world, 1000.0)
    est = make_est(world, creds=creds)
    pet = make_pet(world, creds=creds)

    wrong_body = dataclasses.replace(est, body=pet.body)
    with pytest.raises(MalformedBody):
        validate_structure(wrong_body)

    parent_on_est = dataclasses.replace(est, parent_tid=b"\x01" * 32)
    with pytest.raises(MalformedBody):
        validate_structure(parent_on_est)

    negative = dataclasses.replace(
        est, body=dataclasses.replace(est.body, esm=make_esm(speed=-1.0))
    )
    with pytest.raises(MalformedBody):
        validate_structure(negative)

    ret = make_ret(world, make_edata(world, 1000.0), cert=creds[1])
    vehicle_requester = dataclasses.replace(
        ret, body=dataclasses.replace(ret.body, requester=Role.VEHICLE)
    )
    with pytest.raises(MalformedBody):
        validate_structure(vehicle_requester)


def test_execution_report_requires_parent():
    world = make_world(seed=39)
    creds = vehicle_credentials(world, 1000.0)
    with pytest.raises(MalformedBody):
        make_et(world, None, creds)


def test_build_rejects_mismatched_body_type():
    world = make_world(seed=40)
    creds = vehicle_credentials(world, 1000.0)
    pet = make_pet(world, creds=creds)
    with pytest.raises(MalformedBody):
        build_transaction(TxKind.EVENT_SAFETY, pet.body, creds[0], creds[1])
