"""Transaction kinds, bodies, canonical encoding, signatures, and the one
transaction-validity rule that consensus and offline verification both
apply: check_tx_genesis, then check_tx_committed.

A transaction id (tid) is the SHA-256 of the canonical encoding of
(kind, body, certificate, parent_tid). Signatures cover the tid, so
countersigning a multi-party transaction never changes its id, and any
mutation of a hashed field is detectable by recomputing the tid.

Six kinds flow through the system, named here by what they record; the
short codes are the wire / CLI tokens:

    EST  event-safety report from a vehicle (pre-collision telemetry)
    PET  post-collision evidence from an involved or witness vehicle
    UT   software-update instruction, co-signed by maker and vehicle
    ET   execution report for a previously committed update
    MT   maintenance report from a service technician
    RET  evidence request / submission into the decision partition
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import TYPE_CHECKING, Mapping, Optional, Union

from .encoding import (
    BLOB,
    BOOLEAN,
    F64,
    TEXT,
    U32,
    Switch,
    WireTable,
    decode,
    encode,
    fixed,
    frozen,
    items,
    optional,
    pack,
    wire,
)
from .errors import (
    DuplicateSigner,
    MalformedBody,
    MissingCertificate,
    NotMultiSig,
)
from .identity import (
    Checks,
    InlineChecks,
    KeyPair,
    PseudonymCertificate,
    sign_tx_digest,
    tx_message,
)

if TYPE_CHECKING:
    from .ledger import GenesisBlock

Hash256 = bytes
HASH_SIZE = 32
HASH = fixed(HASH_SIZE)


class TxKind(str, enum.Enum):
    EVENT_SAFETY = "EST"
    COLLISION_EVIDENCE = "PET"
    UPDATE = "UT"
    EXECUTION = "ET"
    MAINTENANCE = "MT"
    EVIDENCE_REQUEST = "RET"


class Role(str, enum.Enum):
    VEHICLE = "AV"
    MANUFACTURER = "AM"
    TECHNICIAN = "ST"
    INSURER = "IC"
    TRANSPORT_AUTHORITY = "GTA"
    LEGAL_AUTHORITY = "LA"
    CERT_AUTHORITY = "CA"


class Partition(str, enum.Enum):
    OPERATIONAL = "P1"
    DECISIONAL = "P2"


class DriveMode(str, enum.Enum):
    AUTONOMOUS = "autonomous"
    MANUAL = "manual"


class EventTrigger(str, enum.Enum):
    HARD_BRAKE = "hard_brake"
    WRONG_WAY = "wrong_way"
    SLIPPERY_ROAD = "slippery_road"


class ExecStatus(str, enum.Enum):
    EXECUTED = "executed"
    FAILED = "failed"


KIND_WIRE = WireTable("transaction kind", {
    TxKind.EVENT_SAFETY: 1,
    TxKind.COLLISION_EVIDENCE: 2,
    TxKind.UPDATE: 3,
    TxKind.EXECUTION: 4,
    TxKind.MAINTENANCE: 5,
    TxKind.EVIDENCE_REQUEST: 6,
})
ROLE_WIRE = WireTable("role", {
    Role.VEHICLE: 0,
    Role.MANUFACTURER: 1,
    Role.TECHNICIAN: 2,
    Role.INSURER: 3,
    Role.TRANSPORT_AUTHORITY: 4,
    Role.LEGAL_AUTHORITY: 5,
    Role.CERT_AUTHORITY: 6,
})
PARTITION_WIRE = WireTable("partition", {Partition.OPERATIONAL: 1, Partition.DECISIONAL: 2})
MODE_WIRE = WireTable("drive mode", {DriveMode.AUTONOMOUS: 0, DriveMode.MANUAL: 1})
TRIGGER_WIRE = WireTable(
    "trigger", {EventTrigger.HARD_BRAKE: 0, EventTrigger.WRONG_WAY: 1, EventTrigger.SLIPPERY_ROAD: 2}
)
STATUS_WIRE = WireTable("exec status", {ExecStatus.EXECUTED: 0, ExecStatus.FAILED: 1})


# --- geometry / telemetry ----------------------------------------------------

@frozen
class GeoPoint:
    lat_deg: float = wire(F64)
    lon_deg: float = wire(F64)


@frozen
class RoadPosition:
    lane: int = wire(U32)
    heading_deg: float = wire(F64)


@frozen
class EventSafetyMessage:
    """Host-vehicle telemetry snapshot at the moment of a triggering event."""

    location: GeoPoint = wire(GeoPoint)
    speed_mps: float = wire(F64)
    position: RoadPosition = wire(RoadPosition)
    drive_mode: DriveMode = wire(MODE_WIRE)
    trigger: EventTrigger = wire(TRIGGER_WIRE)


@frozen
class TamperStoreDigest:
    """Digest of the vehicle's sealed media store: content hashes of the
    sensor blobs captured for the event, plus the capture timestamp. The
    blobs themselves live off-chain in a content-addressed store.
    """

    media_hashes: tuple[Hash256, ...] = wire(items(HASH))
    captured_at: float = wire(F64)


@frozen
class EvidenceData:
    """Collision evidence bundle. edata_hash, the last field, is the SHA-256
    over the canonical encoding of every field before it (never over itself).
    """

    loc: GeoPoint = wire(GeoPoint)
    ts: float = wire(F64)
    hv_data: EventSafetyMessage = wire(EventSafetyMessage)
    ts_data: TamperStoreDigest = wire(TamperStoreDigest)
    enc_witness: tuple[bytes, ...] = wire(items(BLOB))
    edata_hash: Hash256 = wire(HASH)

    @classmethod
    def make(
        cls,
        loc: GeoPoint,
        ts: float,
        hv_data: EventSafetyMessage,
        ts_data: TamperStoreDigest,
        enc_witness: tuple[bytes, ...] = (),
    ) -> "EvidenceData":
        hashed = (loc, ts, hv_data, ts_data, enc_witness)
        return cls(*hashed, compute_edata_hash(*hashed))


def compute_edata_hash(*hashed) -> Hash256:
    """The evidence hash of EvidenceData's leading fields, every one but
    the hash itself, given in declared order."""
    return hashlib.sha256(pack(EvidenceData, *hashed)).digest()


# --- bodies ------------------------------------------------------------------

@frozen
class EventSafetyBody:
    ts: float = wire(F64)
    esm: EventSafetyMessage = wire(EventSafetyMessage)
    ts_data: TamperStoreDigest = wire(TamperStoreDigest)


@frozen
class CollisionEvidenceBody:
    edata: EvidenceData = wire(EvidenceData)
    ts_data: TamperStoreDigest = wire(TamperStoreDigest)


@frozen
class UpdateBody:
    update_file_hash: Hash256 = wire(HASH)
    metadata: str = wire(TEXT)
    submitted_at: float = wire(F64)


@frozen
class ExecReportBody:
    exec_status: ExecStatus = wire(STATUS_WIRE)
    submitted_at: float = wire(F64)


@frozen
class MaintenanceBody:
    report_hash: Hash256 = wire(HASH)
    roadworthy: bool = wire(BOOLEAN)
    technician: str = wire(TEXT)
    submitted_at: float = wire(F64)


@frozen
class EvidenceRequestBody:
    """Evidence submission / identification request for the decision
    partition: the requester's copy of the subject vehicle's collision
    evidence, and nothing of the vehicle's driving history, which would
    tie its pseudonyms together. The adjudicator reads that history from
    the ledger itself.
    """

    edata: EvidenceData = wire(EvidenceData)
    requester: Role = wire(ROLE_WIRE)
    submitted_at: float = wire(F64)


Body = Union[
    EventSafetyBody,
    CollisionEvidenceBody,
    UpdateBody,
    ExecReportBody,
    MaintenanceBody,
    EvidenceRequestBody,
]

# The kind tag picks the body layout.
BODY_BY_KIND = Switch("kind", {
    TxKind.EVENT_SAFETY: EventSafetyBody,
    TxKind.COLLISION_EVIDENCE: CollisionEvidenceBody,
    TxKind.UPDATE: UpdateBody,
    TxKind.EXECUTION: ExecReportBody,
    TxKind.MAINTENANCE: MaintenanceBody,
    TxKind.EVIDENCE_REQUEST: EvidenceRequestBody,
})

# Required signer roles, in order, per kind. The update instruction is the
# only multi-signature kind: maker first, vehicle countersigns.
SIGNER_TEMPLATE: dict[TxKind, tuple[Role, ...]] = {
    TxKind.EVENT_SAFETY: (Role.VEHICLE,),
    TxKind.COLLISION_EVIDENCE: (Role.VEHICLE,),
    TxKind.UPDATE: (Role.MANUFACTURER, Role.VEHICLE),
    TxKind.EXECUTION: (Role.VEHICLE,),
    TxKind.MAINTENANCE: (Role.TECHNICIAN,),
    TxKind.EVIDENCE_REQUEST: (),  # resolved from body.requester
}


def required_signers(kind: TxKind, body: Body) -> tuple[Role, ...]:
    if kind is TxKind.EVIDENCE_REQUEST:
        assert isinstance(body, EvidenceRequestBody)
        return (body.requester,)
    return SIGNER_TEMPLATE[kind]


# Who may propose which kind into which partition. This table is the
# normative authorization policy; membership rows in genesis carry keys
# and validator sets but do not override it.
AUTHORIZED_PROPOSERS: dict[Partition, dict[TxKind, frozenset[Role]]] = {
    Partition.OPERATIONAL: {
        TxKind.EVENT_SAFETY: frozenset({Role.VEHICLE}),
        TxKind.COLLISION_EVIDENCE: frozenset({Role.VEHICLE}),
        TxKind.UPDATE: frozenset({Role.MANUFACTURER}),
        TxKind.EXECUTION: frozenset({Role.VEHICLE}),
        TxKind.MAINTENANCE: frozenset({Role.TECHNICIAN}),
        TxKind.EVIDENCE_REQUEST: frozenset({Role.INSURER, Role.MANUFACTURER}),
    },
    Partition.DECISIONAL: {
        TxKind.EVENT_SAFETY: frozenset(),
        TxKind.COLLISION_EVIDENCE: frozenset(),
        TxKind.UPDATE: frozenset(),
        TxKind.EXECUTION: frozenset(),
        TxKind.MAINTENANCE: frozenset(),
        TxKind.EVIDENCE_REQUEST: frozenset({Role.INSURER, Role.MANUFACTURER}),
    },
}


# --- transactions ------------------------------------------------------------

@frozen
class SigEntry:
    role: Role = wire(ROLE_WIRE)
    signature: bytes = wire(BLOB)


@frozen
class Transaction:
    """The canonical record: the tid preimage fields (kind, body, cert,
    parent_tid), then the tid, then the signatures."""

    kind: TxKind = wire(KIND_WIRE)
    body: Body = wire(BODY_BY_KIND)
    cert: PseudonymCertificate = wire(PseudonymCertificate)
    parent_tid: Optional[Hash256] = wire(optional(HASH))
    tid: Hash256 = wire(HASH)
    signatures: tuple[SigEntry, ...] = wire(items(SigEntry), default=())


def encode_tid_preimage(
    kind: TxKind,
    body: Body,
    cert: PseudonymCertificate,
    parent_tid: Optional[Hash256],
) -> bytes:
    return pack(Transaction, kind, body, cert, parent_tid)


def compute_tid(
    kind: TxKind,
    body: Body,
    cert: PseudonymCertificate,
    parent_tid: Optional[Hash256] = None,
) -> Hash256:
    return hashlib.sha256(encode_tid_preimage(kind, body, cert, parent_tid)).digest()


def encode_transaction(tx: Transaction) -> bytes:
    return encode(tx)


def decode_transaction(data: bytes) -> Transaction:
    return decode(Transaction, data)


def body_timestamp(tx: Transaction) -> float:
    """The timestamp that time queries and block seals use, and the
    certificate-window check for every kind but an evidence request: the
    in-body event time for telemetry kinds, the proposer's submission
    stamp for the rest.
    """
    body = tx.body
    if isinstance(body, EventSafetyBody):
        return body.ts
    if isinstance(body, CollisionEvidenceBody):
        return body.edata.ts
    return body.submitted_at  # type: ignore[union-attr]


def _certificate_time(tx: Transaction) -> float:
    """The instant at which tx's certificate must be valid. An evidence
    request names the subject vehicle's collision certificate, not one of
    the requester's, so its window is judged at the evidence time, which
    the committed collision report already proved in-window; the
    requester's own authority is its membership signature. Every other
    kind is judged at its body timestamp.
    """
    body = tx.body
    if isinstance(body, EvidenceRequestBody):
        return body.edata.ts
    return body_timestamp(tx)


def validate_structure(tx: Transaction) -> None:
    """Schema-level checks; raises MalformedBody / MissingCertificate."""
    expected = BODY_BY_KIND.cases[tx.kind].cls
    if not isinstance(tx.body, expected):
        raise MalformedBody(
            f"{tx.kind.value} body must be {expected.__name__}, got {type(tx.body).__name__}"
        )
    if tx.cert is None:
        raise MissingCertificate(f"{tx.kind.value} requires a pseudonym certificate")
    if tx.kind is TxKind.EXECUTION:
        if tx.parent_tid is None:
            raise MalformedBody("execution report must reference its update transaction")
    elif tx.parent_tid is not None:
        raise MalformedBody(f"{tx.kind.value} must not carry a parent tid")
    if isinstance(tx.body, EventSafetyBody) and tx.body.esm.speed_mps < 0:
        raise MalformedBody("speed cannot be negative")
    if isinstance(tx.body, CollisionEvidenceBody) and tx.body.edata.hv_data.speed_mps < 0:
        raise MalformedBody("speed cannot be negative")
    if isinstance(tx.body, EvidenceRequestBody):
        if tx.body.requester not in (Role.INSURER, Role.MANUFACTURER):
            raise MalformedBody("evidence requests come from the insurer or the maker")


# --- validity -----------------------------------------------------------------

class Reason(str, enum.Enum):
    OK = "Ok"
    INCOMPLETE = "Incomplete"
    UNAUTHORIZED = "Unauthorized"
    DUPLICATE = "Duplicate"
    BAD_SIGNATURE = "BadSignature"
    EXPIRED_CERT = "ExpiredCert"
    MALFORMED_BODY = "MalformedBody"


def check_tx_genesis(
    tx: Transaction,
    genesis: "GenesisBlock",
    checks: Optional[Checks] = None,
) -> Reason:
    """The replica-independent half of the transaction-validity rule. It
    reads only tx and genesis, and returns the first policy that fails,
    in this order: schema (structure, evidence hash, tid), authorization
    in genesis's partition, completeness, the certificate (its audit path
    and its batch root's signature by any of genesis's CA roots), the
    certificate's window at the body timestamp, or an evidence request's
    evidence time, so the verdict replays, and signatures. A tx that
    passes is then judged by check_tx_committed against the transactions
    committed before it. Every replica of a partition holds the same
    genesis, so a consensus round judges this half once and only the
    committed half per replica.

    `checks` makes the certificate check and each signature check: a new
    InlineChecks by default. A caller judging many transactions passes
    one object to each call, so that each batch root's signature is
    checked once; a chain's judgement (ledger.load_ledger,
    ledger.chain_faults) passes one for the whole chain, and a
    scenario engine one for its run. A SentChecks sends checks to the
    process's check helpers and answers True, so the verdict holds only
    once the helpers have confirmed every check they were sent. The
    window check is always made here.
    """
    if checks is None:
        checks = InlineChecks()
    # Schema. A field value the encoder cannot write is malformed too.
    try:
        validate_structure(tx)
        if isinstance(tx.body, (CollisionEvidenceBody, EvidenceRequestBody)):
            e = tx.body.edata
            if hashlib.sha256(encode(e, stop=-1)).digest() != e.edata_hash:
                return Reason.MALFORMED_BODY
        if compute_tid(tx.kind, tx.body, tx.cert, tx.parent_tid) != tx.tid:
            return Reason.MALFORMED_BODY
    except Exception:
        return Reason.MALFORMED_BODY

    # Authorization: the proposing role must be allowed to put this kind
    # into this partition.
    if not tx.signatures:
        return Reason.INCOMPLETE
    if tx.signatures[0].role not in AUTHORIZED_PROPOSERS[genesis.partition][tx.kind]:
        return Reason.UNAUTHORIZED

    # Completeness: exactly the required signer set, in order.
    if tuple(entry.role for entry in tx.signatures) != required_signers(tx.kind, tx.body):
        return Reason.INCOMPLETE

    # Certificate, its window, then signatures.
    cert = tx.cert
    if not checks.certificate(cert, genesis.ca_keys()):
        return Reason.BAD_SIGNATURE
    if not cert.window_contains(_certificate_time(tx)):
        return Reason.EXPIRED_CERT
    for entry in tx.signatures:
        if entry.role is Role.VEHICLE:
            pubkey = cert.subject_pubkey
        else:
            # Built here, not per transaction: the completeness check
            # leaves at most one non-vehicle signer.
            pubkey = genesis.known_keys().get(entry.role)
            if pubkey is None:
                return Reason.UNAUTHORIZED
        if not checks.signature(pubkey, tx_message(tx.tid), entry.signature):
            return Reason.BAD_SIGNATURE
    return Reason.OK


def check_tx_committed(tx: Transaction, committed: Mapping[Hash256, Transaction]) -> Reason:
    """The replica-state half of the transaction-validity rule:
    uniqueness against `committed` (tid to transaction, all accepted
    before tx) and an execution report's parent update in it. Meaningful
    only for a tx that passed check_tx_genesis.
    """
    if tx.tid in committed:
        return Reason.DUPLICATE

    # Parent link: an execution report needs its update committed first.
    if tx.kind is TxKind.EXECUTION:
        parent = committed.get(tx.parent_tid)
        if parent is None or parent.kind is not TxKind.UPDATE:
            return Reason.INCOMPLETE

    return Reason.OK


def build_transaction(
    kind: TxKind,
    body: Body,
    keys: KeyPair,
    cert: PseudonymCertificate,
    parent_tid: Optional[Hash256] = None,
    signer_role: Optional[Role] = None,
) -> Transaction:
    """Assembles a transaction and attaches the proposer's signature over
    the tid. signer_role defaults to the kind's first required signer.
    """
    if signer_role is None:
        signers = required_signers(kind, body)
        if not signers:
            raise MalformedBody(f"cannot infer signer role for {kind.value}")
        signer_role = signers[0]
    unsigned = Transaction(kind=kind, body=body, cert=cert, parent_tid=parent_tid, tid=b"")
    validate_structure(unsigned)
    tid = compute_tid(kind, body, cert, parent_tid)
    signature = SigEntry(role=signer_role, signature=sign_tx_digest(keys, tid))
    return Transaction(kind, body, cert, parent_tid, tid, (signature,))


def countersign(tx: Transaction, keys: KeyPair, role: Role) -> Transaction:
    """Adds a second signature over the same tid. Only the update kind is
    multi-signature; signing twice with one role is rejected.
    """
    if len(required_signers(tx.kind, tx.body)) < 2:
        raise NotMultiSig(f"{tx.kind.value} takes a single signature")
    if any(entry.role == role for entry in tx.signatures):
        raise DuplicateSigner(f"role {role.value} already signed")
    entry = SigEntry(role=role, signature=sign_tx_digest(keys, tx.tid))
    return dataclasses.replace(tx, signatures=tx.signatures + (entry,))


# --- debug rendering ---------------------------------------------------------

def tx_to_jsonable(tx: Transaction) -> dict:
    """Human-readable rendering for CLI inspection. Never hashed."""

    def hx(b: bytes) -> str:
        return b.hex()

    def render(obj) -> object:
        if isinstance(obj, bytes):
            return hx(obj)
        if isinstance(obj, enum.Enum):
            return obj.value
        if isinstance(obj, (list, tuple)):
            return [render(x) for x in obj]
        if hasattr(obj, "__dataclass_fields__"):
            return {name: render(getattr(obj, name)) for name in obj.__dataclass_fields__}
        return obj

    return {
        "kind": tx.kind.value,
        "tid": hx(tx.tid),
        "parent_tid": hx(tx.parent_tid) if tx.parent_tid else None,
        "cert": render(tx.cert),
        "body": render(tx.body),
        "signatures": [{"role": s.role.value, "signature": hx(s.signature)} for s in tx.signatures],
    }
