"""Liability rules: evidence cross-checking tolerances, negligence and
staged-pattern detection, and the verdict precedence order."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from avledger.adjudicator import (
    AdjudicationParams,
    CollisionCase,
    CrossCheckResult,
    LiabilityClass,
    PartyEvidence,
    VerdictFlag,
    adjudicate,
    check_negligence,
    check_staged,
    cross_check_edata,
    great_circle_m,
)
from avledger.errors import MalformedCase
from avledger.txmodel import (
    DriveMode,
    EstDigest,
    EventTrigger,
    GeoPoint,
    TxKind,
)

from worldkit import (
    make_edata,
    make_est,
    make_et,
    make_mt,
    make_pet,
    make_ut,
    make_world,
    vehicle_credentials,
)

# Roughly one degree of latitude in meters, for constructing offsets.
LAT_DEG_M = 111_000.0


def test_great_circle_basics():
    origin = GeoPoint(40.0, -75.0)
    assert great_circle_m(origin, origin) == 0.0
    one_deg_north = GeoPoint(41.0, -75.0)
    assert great_circle_m(origin, one_deg_north) == pytest.approx(111_195.0, rel=0.01)


# --- cross-check --------------------------------------------------------------

def _jittered(edata, dt=0.0, dnorth_m=0.0):
    return dataclasses.replace(
        edata,
        ts=edata.ts + dt,
        loc=GeoPoint(edata.loc.lat_deg + dnorth_m / LAT_DEG_M, edata.loc.lon_deg),
    )


def test_cross_check_accepts_jitter_within_tolerance():
    world = make_world(seed=70)
    anchor = make_edata(world, 1000.0)
    assert cross_check_edata(anchor, anchor) is CrossCheckResult.CONSISTENT
    assert cross_check_edata(anchor, _jittered(anchor, dt=1.0)) is CrossCheckResult.CONSISTENT
    assert cross_check_edata(anchor, _jittered(anchor, dnorth_m=50.0)) is CrossCheckResult.CONSISTENT


def test_cross_check_flags_content_changes_as_hash_mismatch():
    world = make_world(seed=71)
    anchor = make_edata(world, 1000.0)
    faster = dataclasses.replace(
        anchor, hv_data=dataclasses.replace(anchor.hv_data, speed_mps=anchor.hv_data.speed_mps + 15.0)
    )
    assert cross_check_edata(anchor, faster) is CrossCheckResult.HASH_MISMATCH
    other_witness = dataclasses.replace(anchor, enc_witness=(b"different",))
    assert cross_check_edata(anchor, other_witness) is CrossCheckResult.HASH_MISMATCH


def test_cross_check_flags_large_skew_as_spatiotemporal():
    world = make_world(seed=72)
    anchor = make_edata(world, 1000.0)
    assert (
        cross_check_edata(anchor, _jittered(anchor, dt=5.0))
        is CrossCheckResult.SPATIOTEMPORAL_MISMATCH
    )
    assert (
        cross_check_edata(anchor, _jittered(anchor, dnorth_m=1000.0))
        is CrossCheckResult.SPATIOTEMPORAL_MISMATCH
    )


@given(
    st.floats(min_value=-6.0, max_value=6.0, allow_nan=False),
    st.floats(min_value=-300.0, max_value=300.0, allow_nan=False),
)
def test_cross_check_is_symmetric(dt, dnorth_m):
    world = make_world(seed=73)
    a = make_edata(world, 2000.0)
    b = _jittered(a, dt=dt, dnorth_m=dnorth_m)
    assert cross_check_edata(a, b) is cross_check_edata(b, a)


def test_cross_check_respects_custom_tolerances():
    world = make_world(seed=74)
    anchor = make_edata(world, 1000.0)
    skewed = _jittered(anchor, dt=5.0)
    assert cross_check_edata(anchor, skewed, time_tol_secs=10.0) is CrossCheckResult.CONSISTENT


# --- negligence ---------------------------------------------------------------

def _ledger_with_update(world, ut_at, et_at=None):
    creds = vehicle_credentials(world, ut_at)
    ledger = world.ledger()
    ut = make_ut(world, at=ut_at, creds=creds)
    ledger.append_validated(ut)
    if et_at is not None:
        ledger.append_validated(make_et(world, ut.tid, creds, at=et_at))
    return ledger, creds[1].cert_id, ut


def test_negligence_requires_overdue_and_unexecuted():
    world = make_world(seed=75)
    deadline = 7 * 24 * 3600.0
    ledger, cert_id, ut = _ledger_with_update(world, 1000.0)
    certs = frozenset({cert_id})
    # Overdue, never executed: negligent.
    assert check_negligence(ledger, certs, deadline, 1000.0 + deadline + 1.0) == [(ut.tid, True)]
    # Deadline not yet passed (boundary is strict).
    assert check_negligence(ledger, certs, deadline, 1000.0 + deadline) == [(ut.tid, False)]
    # Update addressed to someone else's certificate: no row at all.
    assert check_negligence(ledger, frozenset({b"\x00" * 32}), deadline, 1e9) == []


def test_execution_clears_negligence():
    world = make_world(seed=76)
    deadline = 7 * 24 * 3600.0
    ledger, cert_id, ut = _ledger_with_update(world, 1000.0, et_at=1200.0)
    assert check_negligence(ledger, frozenset({cert_id}), deadline, 1e9) == [(ut.tid, False)]


def test_negligence_is_monotone_in_query_time():
    world = make_world(seed=77)
    deadline = 1000.0
    ledger, cert_id, ut = _ledger_with_update(world, 0.0)
    certs = frozenset({cert_id})
    flips = [
        check_negligence(ledger, certs, deadline, t)[0][1]
        for t in (0.0, 500.0, 1000.0, 1000.5, 2000.0, 1e8)
    ]
    assert flips == sorted(flips)  # False ... then True forever


# --- staged pattern -----------------------------------------------------------

def _brakes(times):
    return tuple(
        EstDigest(tid=bytes([i]) * 32, ts=t, trigger=EventTrigger.HARD_BRAKE)
        for i, t in enumerate(times)
    )


def test_staged_threshold_and_window_edges():
    collision_at, window = 10_000.0, 3600.0
    inside = _brakes([7000.0, 8000.0, 9999.0])
    assert check_staged(inside, collision_at, window, 3)
    assert not check_staged(inside[:2], collision_at, window, 3)
    # Window start is inclusive, the collision instant itself is not.
    at_start = _brakes([collision_at - window, 8000.0, 9000.0])
    assert check_staged(at_start, collision_at, window, 3)
    at_end = _brakes([collision_at, 8000.0, 9000.0])
    assert not check_staged(at_end, collision_at, window, 3)


def test_staged_counts_only_hard_brakes():
    digests = tuple(
        EstDigest(tid=bytes([i]) * 32, ts=9000.0 + i, trigger=t)
        for i, t in enumerate(
            [EventTrigger.WRONG_WAY, EventTrigger.SLIPPERY_ROAD, EventTrigger.HARD_BRAKE]
        )
    )
    assert not check_staged(digests, 10_000.0, 3600.0, 3)


# --- full adjudication --------------------------------------------------------

def _collision_world(seed=80, drive_mode=DriveMode.AUTONOMOUS, collision_at=5000.0):
    """One committed PET for the host vehicle, ready for a case."""
    world = make_world(seed=seed)
    ledger = world.ledger()
    creds = vehicle_credentials(world, collision_at)
    edata = make_edata(world, collision_at, mode=drive_mode)
    pet = make_pet(world, at=collision_at, creds=creds, edata=edata)
    ledger.append_validated(pet)
    party = PartyEvidence(
        vehicle="av-0",
        cert_ids=frozenset({creds[1].cert_id}),
        pet_tid=pet.tid,
        submitted={"ic-0": edata},
    )
    case = CollisionCase(
        case_id="case-0", collision_at=collision_at, parties=(party,), maker="am-0"
    )
    return world, ledger, creds, edata, pet, party, case


def test_autonomous_host_yields_product_defect():
    _, ledger, _, _, pet, _, case = _collision_world()
    verdict = adjudicate(case, ledger, AdjudicationParams())
    assert verdict.liability_class is LiabilityClass.PRODUCT_DEFECT
    assert verdict.liable == "am-0"
    assert verdict.evidence_tids == (pet.tid,)
    assert verdict.flags == frozenset()


def test_manual_host_yields_owner_negligence():
    _, ledger, _, _, _, _, case = _collision_world(seed=81, drive_mode=DriveMode.MANUAL)
    verdict = adjudicate(case, ledger, AdjudicationParams())
    assert verdict.liability_class is LiabilityClass.OWNER_NEGLIGENCE
    assert verdict.liable == "av-0"


def test_forged_submission_outranks_everything():
    world, ledger, _, edata, pet, party, case = _collision_world(seed=82)
    forged = dataclasses.replace(
        edata, hv_data=dataclasses.replace(edata.hv_data, speed_mps=99.0)
    )
    case = dataclasses.replace(
        case, parties=(dataclasses.replace(party, submitted={"ic-0": edata, "am-0": forged}),)
    )
    verdict = adjudicate(case, ledger, AdjudicationParams())
    assert VerdictFlag.FALSE_INFO in verdict.flags
    assert verdict.forgers == ("am-0",)
    assert verdict.liable == "am-0"


def test_overdue_update_outranks_drive_mode():
    world, ledger, creds, _, _, party, case = _collision_world(seed=83)
    ut = make_ut(world, at=100.0, creds=creds)
    ledger.append_validated(ut)
    verdict = adjudicate(case, ledger, AdjudicationParams(), at=100.0 + 8 * 24 * 3600.0)
    assert verdict.liability_class is LiabilityClass.OWNER_NEGLIGENCE
    assert verdict.liable == "av-0"
    assert ut.tid in verdict.evidence_tids


def test_fresh_maintenance_outranks_drive_mode():
    world, ledger, creds, _, _, _, case = _collision_world(seed=84, collision_at=200_000.0)
    mt = make_mt(world, at=200_000.0 - 3600.0, cert=creds[1])
    ledger.append_validated(mt)
    verdict = adjudicate(case, ledger, AdjudicationParams())
    assert verdict.liability_class is LiabilityClass.SERVICE_FAULT
    assert verdict.liable == "st-0"
    assert mt.tid in verdict.evidence_tids


def test_stale_maintenance_is_ignored():
    world, ledger, creds, _, _, _, case = _collision_world(seed=85, collision_at=400_000.0)
    mt = make_mt(world, at=400_000.0 - 72 * 3600.0, cert=creds[1])
    ledger.append_validated(mt)
    verdict = adjudicate(case, ledger, AdjudicationParams())
    assert verdict.liability_class is LiabilityClass.PRODUCT_DEFECT


def test_brake_history_yields_staged_suspicion():
    world, ledger, _, _, _, party, case = _collision_world(seed=86)
    history = _brakes([4000.0, 4400.0, 4800.0])
    case = dataclasses.replace(case, parties=(dataclasses.replace(party, est_digests=history),))
    verdict = adjudicate(case, ledger, AdjudicationParams())
    assert verdict.liability_class is LiabilityClass.STAGED_SUSPICION
    assert verdict.liable == "av-0"
    assert set(verdict.evidence_tids) == {d.tid for d in history}


def test_absent_suspect_skips_drive_mode():
    _, ledger, _, _, _, _, case = _collision_world(seed=87)
    case = dataclasses.replace(case, suspect_absent=True)
    verdict = adjudicate(case, ledger, AdjudicationParams())
    assert verdict.liability_class is LiabilityClass.INCONCLUSIVE
    assert verdict.liable is None


def test_inconsistent_witness_is_flagged():
    world, ledger, _, edata, pet, party, case = _collision_world(seed=88)
    far_away = make_pet(
        world, at=5000.0, edata=make_edata(world, 5000.0, lat=40.2)
    )
    ledger.append_validated(far_away)
    case = dataclasses.replace(case, witness_pet_tids=(far_away.tid,))
    verdict = adjudicate(case, ledger, AdjudicationParams())
    assert VerdictFlag.INCONSISTENT_WITNESS in verdict.flags
    assert far_away.tid in verdict.evidence_tids


def test_every_cited_tid_resolves_on_ledger():
    world, ledger, creds, _, _, party, case = _collision_world(seed=89)
    ledger.append_validated(make_ut(world, at=100.0, creds=creds))
    verdict = adjudicate(case, ledger, AdjudicationParams(), at=1e9)
    assert verdict.evidence_tids
    for tid in verdict.evidence_tids:
        assert ledger.find(tid) is not None


def test_malformed_cases_raise():
    _, ledger, _, _, _, party, case = _collision_world(seed=90)
    with pytest.raises(MalformedCase):
        adjudicate(dataclasses.replace(case, parties=()), ledger, AdjudicationParams())
    no_pets = dataclasses.replace(case, parties=(dataclasses.replace(party, pet_tid=None),))
    with pytest.raises(MalformedCase):
        adjudicate(no_pets, ledger, AdjudicationParams())


def test_verdict_serializes_with_hex_tids():
    _, ledger, _, _, pet, _, case = _collision_world(seed=91)
    verdict = adjudicate(case, ledger, AdjudicationParams())
    out = verdict.to_jsonable()
    assert out["class"] == "ProductDefect"
    assert out["evidence_tids"] == [pet.tid.hex()]
    assert out["liable"] == "am-0"
    assert out["flags"] == [] and out["forgers"] == []
