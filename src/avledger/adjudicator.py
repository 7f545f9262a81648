"""Liability adjudication over committed evidence.

A case names its evidence only by tid, and each tid must resolve to a
committed record: collision evidence on the operational partition, each
evidence copy on the decision partition, where the bridge delivers it.
The copies are compared against the vehicle's own committed collision
evidence, update compliance is read off the ledger, and behavior history
is read off the ledger too, from the event-safety reports filed under a
party's certificates in the window before the crash. No record carries a vehicle's history, so none ties its
pseudonyms together.

Rule precedence for a verdict: evidence forgery names the liable party
first, then owner negligence (an overdue, never-executed update), then a
service fault (fresh maintenance before the crash), then a staged-crash
history, then the drive mode at impact, and only then Inconclusive.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import field
from typing import Mapping, Optional

from .encoding import encode, frozen
from .errors import MalformedCase
from .identity import EntityId
from .ledger import PartitionLedger
from .txmodel import (
    DriveMode,
    EventTrigger,
    EvidenceData,
    GeoPoint,
    Hash256,
    Transaction,
    TxKind,
    body_timestamp,
)

# Defaults for the adjudication thresholds; scenario configs may override.
DEFAULT_NEGLIGENCE_DEADLINE_SECS = 7 * 24 * 3600.0
DEFAULT_MAINTENANCE_WINDOW_SECS = 48 * 3600.0
DEFAULT_STAGED_WINDOW_SECS = 3600.0
DEFAULT_STAGED_THRESHOLD = 3
DEFAULT_TIME_TOL_SECS = 2.0
DEFAULT_DIST_TOL_M = 100.0

_EARTH_RADIUS_M = 6371000.0


def great_circle_m(a: GeoPoint, b: GeoPoint) -> float:
    """Haversine distance in meters."""
    lat1, lon1 = math.radians(a.lat_deg), math.radians(a.lon_deg)
    lat2, lon2 = math.radians(b.lat_deg), math.radians(b.lon_deg)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * _EARTH_RADIUS_M * math.asin(math.sqrt(h))


class CrossCheckResult(str, enum.Enum):
    CONSISTENT = "Consistent"
    HASH_MISMATCH = "HashMismatch"
    SPATIOTEMPORAL_MISMATCH = "SpatioTemporalMismatch"


def _content_digest(e: EvidenceData) -> Hash256:
    # Location and timestamp, the first two fields, are judged by tolerance,
    # not equality, so the byte-level comparison covers the fields after
    # them up to the evidence hash.
    return hashlib.sha256(encode(e, start=2, stop=-1)).digest()


def _beyond_tolerance(
    a: EvidenceData, b: EvidenceData, time_tol_secs: float, dist_tol_m: float
) -> bool:
    """True when two reports of one event disagree on its time or place
    by more than the jitter tolerances allow."""
    return abs(a.ts - b.ts) > time_tol_secs or great_circle_m(a.loc, b.loc) > dist_tol_m


def cross_check_edata(
    a: EvidenceData,
    b: EvidenceData,
    time_tol_secs: float = DEFAULT_TIME_TOL_SECS,
    dist_tol_m: float = DEFAULT_DIST_TOL_M,
) -> CrossCheckResult:
    """Compares two copies of collision evidence for the same event.

    Telemetry, media digests, and witness payloads must match bit for bit:
    any difference is a hash mismatch. Location and timestamp are allowed
    to disagree within the configured jitter tolerances; beyond that the
    copies are spatio-temporally inconsistent. Symmetric in its arguments.
    """
    if _content_digest(a) != _content_digest(b):
        return CrossCheckResult.HASH_MISMATCH
    if _beyond_tolerance(a, b, time_tol_secs, dist_tol_m):
        return CrossCheckResult.SPATIOTEMPORAL_MISMATCH
    return CrossCheckResult.CONSISTENT


def check_negligence(
    ledger: PartitionLedger,
    vehicle_cert_ids: frozenset[Hash256],
    deadline_secs: float,
    at: float,
) -> list[tuple[Hash256, bool]]:
    """For every committed update addressed to the vehicle (identified by
    its certificate history), reports whether the owner is negligent:
    no execution report committed and the deadline has passed.
    """
    executed = {et.parent_tid for et in ledger.query(kind=TxKind.EXECUTION)}
    out: list[tuple[Hash256, bool]] = []
    for ut in ledger.query(kind=TxKind.UPDATE):
        if ut.cert.cert_id not in vehicle_cert_ids:
            continue
        overdue = (at - ut.body.submitted_at) > deadline_secs
        out.append((ut.tid, ut.tid not in executed and overdue))
    return out


def staged_evidence_tids(
    ledger: PartitionLedger,
    vehicle_cert_ids: frozenset[Hash256],
    collision_at: float,
    window_secs: float,
) -> list[Hash256]:
    """The hard-brake event-safety reports filed under the vehicle's
    certificates in [collision_at - window_secs, collision_at), in
    (timestamp, tid) order. This windowed read is the one implementation
    of a vehicle's EST history.
    """
    start = collision_at - window_secs
    brakes = [
        (tx.body.ts, tx.tid)
        for cert_id in vehicle_cert_ids
        for tx in ledger.query(kind=TxKind.EVENT_SAFETY, cert_id=cert_id)
        if tx.body.esm.trigger is EventTrigger.HARD_BRAKE and start <= tx.body.ts < collision_at
    ]
    brakes.sort()
    return [tid for _, tid in brakes]


# --- cases and verdicts -------------------------------------------------------

class LiabilityClass(str, enum.Enum):
    PRODUCT_DEFECT = "ProductDefect"
    SERVICE_FAULT = "ServiceFault"
    OWNER_NEGLIGENCE = "OwnerNegligence"
    STAGED_SUSPICION = "StagedSuspicion"
    INCONCLUSIVE = "Inconclusive"


class VerdictFlag(str, enum.Enum):
    FALSE_INFO = "FalseInfoDetected"
    INCONSISTENT_WITNESS = "InconsistentWitness"


@frozen
class PartyEvidence:
    """What a case names about one involved vehicle. `ret_tids` maps each
    requester to the RET that carried a copy of the PET into P2."""

    vehicle: EntityId
    cert_ids: frozenset[Hash256] = frozenset()
    pet_tid: Optional[Hash256] = None
    ret_tids: Mapping[EntityId, Hash256] = field(default_factory=dict)


@frozen
class CollisionCase:
    """One collision to adjudicate. Parties are ordered: the first party
    is the host / suspect vehicle whose drive mode settles the default
    liability split.
    """

    case_id: str
    collision_at: float
    parties: tuple[PartyEvidence, ...]
    maker: EntityId = "am-0"
    witness_pet_tids: tuple[Hash256, ...] = ()
    # True when the at-fault vehicle left without submitting evidence
    # (hit and run): the drive-mode rule has no host record to read.
    suspect_absent: bool = False


@frozen
class AdjudicationParams:
    negligence_deadline_secs: float = DEFAULT_NEGLIGENCE_DEADLINE_SECS
    maintenance_window_secs: float = DEFAULT_MAINTENANCE_WINDOW_SECS
    staged_window_secs: float = DEFAULT_STAGED_WINDOW_SECS
    staged_threshold: int = DEFAULT_STAGED_THRESHOLD
    time_tol_secs: float = DEFAULT_TIME_TOL_SECS
    dist_tol_m: float = DEFAULT_DIST_TOL_M


@frozen
class LiabilityVerdict:
    case_id: str
    liable: Optional[EntityId]
    liability_class: LiabilityClass
    evidence_tids: tuple[Hash256, ...]
    flags: frozenset[VerdictFlag]
    forgers: tuple[EntityId, ...] = ()

    def to_jsonable(self) -> dict:
        return {
            "case_id": self.case_id,
            "liable": self.liable,
            "class": self.liability_class.value,
            "evidence_tids": [t.hex() for t in self.evidence_tids],
            "flags": sorted(f.value for f in self.flags),
            "forgers": list(self.forgers),
        }


def _resolve(ledger: PartitionLedger, kind: TxKind, tid: Hash256) -> Transaction:
    """The committed record `tid`, which must be of `kind`."""
    tx = ledger.find(tid)
    if tx is None or tx.kind is not kind:
        raise MalformedCase(f"unresolvable tid {tid.hex()}: no committed {kind.value} on {ledger.partition.value}")
    return tx


def _copies(party: PartyEvidence, pet: Optional[Transaction], decisions: PartitionLedger) -> dict:
    """The evidence in each RET the party names, by requester. A RET
    counts only for its own party: it must carry the certificate of that
    party's PET."""
    copies = {}
    for who, tid in sorted(party.ret_tids.items()):
        ret = _resolve(decisions, TxKind.EVIDENCE_REQUEST, tid)
        if pet is None or ret.cert.cert_id != pet.cert.cert_id:
            raise MalformedCase(f"RET {tid.hex()} does not carry the PET certificate of {party.vehicle}")
        copies[who] = ret.body.edata
    return copies


def adjudicate(
    case: CollisionCase,
    ledger: PartitionLedger,
    decisions: PartitionLedger,
    params: AdjudicationParams,
    at: Optional[float] = None,
) -> LiabilityVerdict:
    """Produces one liability verdict for the case over the operational
    (`ledger`) and decision (`decisions`) partitions. `at` is the query
    time for deadline checks and defaults to the collision instant.
    """
    if not case.parties:
        raise MalformedCase("a collision case needs at least one party")
    if all(p.pet_tid is None for p in case.parties):
        raise MalformedCase("a collision case must reference at least one committed PET")
    query_at = case.collision_at if at is None else at

    # Every tid the case names resolves to a committed record before any
    # rule runs: PETs and witness PETs on P1, evidence requests on P2.
    pet = TxKind.COLLISION_EVIDENCE
    pet_txs = {p.pet_tid: _resolve(ledger, pet, p.pet_tid) for p in case.parties if p.pet_tid is not None}
    pets = {tid: tx.body.edata for tid, tx in pet_txs.items()}
    witnesses = {tid: _resolve(ledger, pet, tid).body.edata for tid in case.witness_pet_tids}
    copies = [_copies(p, pet_txs.get(p.pet_tid), decisions) for p in case.parties]

    flags: set[VerdictFlag] = set()
    evidence: list[Hash256] = []
    forgers: list[EntityId] = []
    liable: Optional[EntityId] = None
    liability_class: Optional[LiabilityClass] = None

    def seen(tid: Hash256) -> None:
        if tid not in evidence:
            evidence.append(tid)

    # 1. Forgery: every committed copy is compared against the vehicle's
    # own committed evidence. A copy that deviates in content or beyond
    # the jitter tolerances marks its submitter as the forger.
    for party, party_copies in zip(case.parties, copies):
        if party.pet_tid is None:
            continue
        anchor = pets[party.pet_tid]
        for submitter, copy in party_copies.items():
            result = cross_check_edata(anchor, copy, params.time_tol_secs, params.dist_tol_m)
            if result is not CrossCheckResult.CONSISTENT:
                flags.add(VerdictFlag.FALSE_INFO)
                if submitter not in forgers:
                    forgers.append(submitter)
                if liable is None:
                    liable = submitter
                seen(party.pet_tid)

    # Witness consistency: every witness report must place the event where
    # and when the involved vehicles did, within tolerance.
    for witness_tid, witness_edata in witnesses.items():
        for other in pets.values():
            if _beyond_tolerance(witness_edata, other, params.time_tol_secs, params.dist_tol_m):
                flags.add(VerdictFlag.INCONSISTENT_WITNESS)
                seen(witness_tid)

    # 2. Owner negligence: an overdue update nobody executed.
    for party in case.parties:
        results = check_negligence(
            ledger, party.cert_ids, params.negligence_deadline_secs, query_at
        )
        overdue = [tid for tid, negligent in results if negligent]
        if overdue:
            liability_class = LiabilityClass.OWNER_NEGLIGENCE
            if liable is None:
                liable = party.vehicle
            for tid in overdue:
                seen(tid)
            break

    # 3. Service fault: fresh maintenance right before the crash.
    if liability_class is None:
        all_certs = frozenset().union(*(p.cert_ids for p in case.parties))
        start = case.collision_at - params.maintenance_window_secs
        # Cert membership first: it is a set probe, and few records pass it.
        for mt in ledger.query(kind=TxKind.MAINTENANCE):
            if mt.cert.cert_id in all_certs and start <= body_timestamp(mt) <= case.collision_at:
                liability_class = LiabilityClass.SERVICE_FAULT
                if liable is None:
                    liable = mt.body.technician
                seen(mt.tid)
                break

    # 4. Staged suspicion: a hard-brake pattern right before the crash.
    if liability_class is None:
        for party in case.parties:
            brakes = staged_evidence_tids(
                ledger, party.cert_ids, case.collision_at, params.staged_window_secs
            )
            if len(brakes) >= params.staged_threshold:
                liability_class = LiabilityClass.STAGED_SUSPICION
                if liable is None:
                    liable = party.vehicle
                for tid in brakes:
                    seen(tid)
                break

    # 5. Drive mode of the host vehicle at impact.
    if liability_class is None and not case.suspect_absent:
        host = next(p for p in case.parties if p.pet_tid is not None)
        if pets[host.pet_tid].hv_data.drive_mode is DriveMode.AUTONOMOUS:
            liability_class = LiabilityClass.PRODUCT_DEFECT
            if liable is None:
                liable = case.maker
        else:
            liability_class = LiabilityClass.OWNER_NEGLIGENCE
            if liable is None:
                liable = host.vehicle
        seen(host.pet_tid)

    # 6. Nothing conclusive.
    if liability_class is None:
        liability_class = LiabilityClass.INCONCLUSIVE

    return LiabilityVerdict(
        case_id=case.case_id,
        liable=liable,
        liability_class=liability_class,
        evidence_tids=tuple(evidence),
        flags=frozenset(flags),
        forgers=tuple(forgers),
    )
