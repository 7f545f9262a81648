"""Transaction kinds, bodies, canonical encoding, signatures, and the one
transaction-validity rule (check_tx) that consensus and offline
verification both apply.

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

import enum
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Union

from .encoding import Reader, Writer
from .errors import (
    DuplicateSigner,
    MalformedBody,
    MissingCertificate,
    NotFound,
    NotMultiSig,
)
from .identity import (
    KeyPair,
    PseudonymCertificate,
    certificate_signature_ok,
    sign_tx_digest,
    verify_tx_digest,
)

if TYPE_CHECKING:
    from .ledger import GenesisBlock

Hash256 = bytes
HASH_SIZE = 32


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


class WireTable:
    """An enum's one-byte wire tags, and the reverse map that decodes them."""

    def __init__(self, what: str, tags: dict) -> None:
        self.what = what
        self.tags = tags
        self._members = {code: member for member, code in tags.items()}

    def write(self, w: Writer, member) -> None:
        w.u8(self.tags[member])

    def read(self, r: Reader):
        tag = r.u8()
        member = self._members.get(tag)
        if member is None:
            raise MalformedBody(f"unknown {self.what} tag {tag}")
        return member


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

@dataclass(frozen=True)
class GeoPoint:
    lat_deg: float
    lon_deg: float

    def encode(self, w: Writer) -> None:
        w.f64(self.lat_deg)
        w.f64(self.lon_deg)

    @classmethod
    def decode(cls, r: Reader) -> "GeoPoint":
        return cls(lat_deg=r.f64(), lon_deg=r.f64())


@dataclass(frozen=True)
class RoadPosition:
    lane: int
    heading_deg: float

    def encode(self, w: Writer) -> None:
        w.u32(self.lane)
        w.f64(self.heading_deg)

    @classmethod
    def decode(cls, r: Reader) -> "RoadPosition":
        return cls(lane=r.u32(), heading_deg=r.f64())


@dataclass(frozen=True)
class EventSafetyMessage:
    """Host-vehicle telemetry snapshot at the moment of a triggering event."""

    location: GeoPoint
    speed_mps: float
    position: RoadPosition
    drive_mode: DriveMode
    trigger: EventTrigger

    def encode(self, w: Writer) -> None:
        self.location.encode(w)
        w.f64(self.speed_mps)
        self.position.encode(w)
        MODE_WIRE.write(w, self.drive_mode)
        TRIGGER_WIRE.write(w, self.trigger)

    @classmethod
    def decode(cls, r: Reader) -> "EventSafetyMessage":
        return cls(
            location=GeoPoint.decode(r),
            speed_mps=r.f64(),
            position=RoadPosition.decode(r),
            drive_mode=MODE_WIRE.read(r),
            trigger=TRIGGER_WIRE.read(r),
        )


@dataclass(frozen=True)
class TamperStoreDigest:
    """Digest of the vehicle's sealed media store: content hashes of the
    sensor blobs captured for the event, plus the capture timestamp. The
    blobs themselves live off-chain in a content-addressed store.
    """

    media_hashes: tuple[Hash256, ...]
    captured_at: float

    def encode(self, w: Writer) -> None:
        w.items(self.media_hashes, lambda wr, h: wr.fixed(h, HASH_SIZE))
        w.f64(self.captured_at)

    @classmethod
    def decode(cls, r: Reader) -> "TamperStoreDigest":
        return cls(
            media_hashes=tuple(r.items(lambda rd: rd.fixed(HASH_SIZE))),
            captured_at=r.f64(),
        )


@dataclass(frozen=True)
class EvidenceData:
    """Collision evidence bundle. edata_hash is the SHA-256 over the
    canonical encoding of the five sibling fields (never over itself).
    """

    loc: GeoPoint
    ts: float
    hv_data: EventSafetyMessage
    ts_data: TamperStoreDigest
    enc_witness: tuple[bytes, ...]
    edata_hash: Hash256

    def encode(self, w: Writer) -> None:
        self.loc.encode(w)
        w.f64(self.ts)
        self.hv_data.encode(w)
        self.ts_data.encode(w)
        w.items(self.enc_witness, lambda wr, b: wr.blob(b))
        w.fixed(self.edata_hash, HASH_SIZE)

    @classmethod
    def decode(cls, r: Reader) -> "EvidenceData":
        return cls(
            loc=GeoPoint.decode(r),
            ts=r.f64(),
            hv_data=EventSafetyMessage.decode(r),
            ts_data=TamperStoreDigest.decode(r),
            enc_witness=tuple(r.items(lambda rd: rd.blob())),
            edata_hash=r.fixed(HASH_SIZE),
        )

    @classmethod
    def make(
        cls,
        loc: GeoPoint,
        ts: float,
        hv_data: EventSafetyMessage,
        ts_data: TamperStoreDigest,
        enc_witness: tuple[bytes, ...] = (),
    ) -> "EvidenceData":
        digest = compute_edata_hash(loc, ts, hv_data, ts_data, enc_witness)
        return cls(loc, ts, hv_data, ts_data, enc_witness, digest)


def compute_edata_hash(
    loc: GeoPoint,
    ts: float,
    hv_data: EventSafetyMessage,
    ts_data: TamperStoreDigest,
    enc_witness: tuple[bytes, ...],
) -> Hash256:
    w = Writer()
    loc.encode(w)
    w.f64(ts)
    hv_data.encode(w)
    ts_data.encode(w)
    w.items(enc_witness, lambda wr, b: wr.blob(b))
    return hashlib.sha256(w.getvalue()).digest()


# --- bodies ------------------------------------------------------------------

@dataclass(frozen=True)
class EventSafetyBody:
    ts: float
    esm: EventSafetyMessage
    ts_data: TamperStoreDigest

    def encode(self, w: Writer) -> None:
        w.f64(self.ts)
        self.esm.encode(w)
        self.ts_data.encode(w)

    @classmethod
    def decode(cls, r: Reader) -> "EventSafetyBody":
        return cls(ts=r.f64(), esm=EventSafetyMessage.decode(r), ts_data=TamperStoreDigest.decode(r))


@dataclass(frozen=True)
class CollisionEvidenceBody:
    edata: EvidenceData
    ts_data: TamperStoreDigest

    def encode(self, w: Writer) -> None:
        self.edata.encode(w)
        self.ts_data.encode(w)

    @classmethod
    def decode(cls, r: Reader) -> "CollisionEvidenceBody":
        return cls(edata=EvidenceData.decode(r), ts_data=TamperStoreDigest.decode(r))


@dataclass(frozen=True)
class UpdateBody:
    update_file_hash: Hash256
    metadata: str
    submitted_at: float

    def encode(self, w: Writer) -> None:
        w.fixed(self.update_file_hash, HASH_SIZE)
        w.text(self.metadata)
        w.f64(self.submitted_at)

    @classmethod
    def decode(cls, r: Reader) -> "UpdateBody":
        return cls(update_file_hash=r.fixed(HASH_SIZE), metadata=r.text(), submitted_at=r.f64())


@dataclass(frozen=True)
class ExecReportBody:
    exec_status: ExecStatus
    submitted_at: float

    def encode(self, w: Writer) -> None:
        STATUS_WIRE.write(w, self.exec_status)
        w.f64(self.submitted_at)

    @classmethod
    def decode(cls, r: Reader) -> "ExecReportBody":
        return cls(
            exec_status=STATUS_WIRE.read(r),
            submitted_at=r.f64(),
        )


@dataclass(frozen=True)
class MaintenanceBody:
    report_hash: Hash256
    roadworthy: bool
    technician: str
    submitted_at: float

    def encode(self, w: Writer) -> None:
        w.fixed(self.report_hash, HASH_SIZE)
        w.boolean(self.roadworthy)
        w.text(self.technician)
        w.f64(self.submitted_at)

    @classmethod
    def decode(cls, r: Reader) -> "MaintenanceBody":
        return cls(
            report_hash=r.fixed(HASH_SIZE),
            roadworthy=r.boolean(),
            technician=r.text(),
            submitted_at=r.f64(),
        )


@dataclass(frozen=True)
class EstDigest:
    """Compact reference to a committed event-safety report, shipped to the
    decision partition as historical behavior proof.
    """

    tid: Hash256
    ts: float
    trigger: EventTrigger

    def encode(self, w: Writer) -> None:
        w.fixed(self.tid, HASH_SIZE)
        w.f64(self.ts)
        TRIGGER_WIRE.write(w, self.trigger)

    @classmethod
    def decode(cls, r: Reader) -> "EstDigest":
        return cls(
            tid=r.fixed(HASH_SIZE),
            ts=r.f64(),
            trigger=TRIGGER_WIRE.read(r),
        )


@dataclass(frozen=True)
class EvidenceRequestBody:
    """Evidence submission / identification request for the decision
    partition. Carries the requester's copy of the subject vehicle's
    evidence and that vehicle's event-safety history digests.
    """

    edata: EvidenceData
    requester: Role
    submitted_at: float
    est_digests: tuple[EstDigest, ...]

    def encode(self, w: Writer) -> None:
        self.edata.encode(w)
        ROLE_WIRE.write(w, self.requester)
        w.f64(self.submitted_at)
        w.items(self.est_digests, lambda wr, d: d.encode(wr))

    @classmethod
    def decode(cls, r: Reader) -> "EvidenceRequestBody":
        return cls(
            edata=EvidenceData.decode(r),
            requester=ROLE_WIRE.read(r),
            submitted_at=r.f64(),
            est_digests=tuple(r.items(EstDigest.decode)),
        )


Body = Union[
    EventSafetyBody,
    CollisionEvidenceBody,
    UpdateBody,
    ExecReportBody,
    MaintenanceBody,
    EvidenceRequestBody,
]

_BODY_TYPES: dict[TxKind, type] = {
    TxKind.EVENT_SAFETY: EventSafetyBody,
    TxKind.COLLISION_EVIDENCE: CollisionEvidenceBody,
    TxKind.UPDATE: UpdateBody,
    TxKind.EXECUTION: ExecReportBody,
    TxKind.MAINTENANCE: MaintenanceBody,
    TxKind.EVIDENCE_REQUEST: EvidenceRequestBody,
}

# Kinds whose first (proposing) signature is made under the attached
# pseudonym certificate rather than a fixed infrastructure key.
VEHICLE_PROPOSED_KINDS = frozenset(
    {TxKind.EVENT_SAFETY, TxKind.COLLISION_EVIDENCE, TxKind.EXECUTION}
)

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

@dataclass(frozen=True)
class SigEntry:
    role: Role
    signature: bytes

    def encode(self, w: Writer) -> None:
        ROLE_WIRE.write(w, self.role)
        w.blob(self.signature)

    @classmethod
    def decode(cls, r: Reader) -> "SigEntry":
        return cls(role=ROLE_WIRE.read(r), signature=r.blob())


@dataclass(frozen=True)
class Transaction:
    kind: TxKind
    body: Body
    cert: PseudonymCertificate
    parent_tid: Optional[Hash256]
    tid: Hash256
    signatures: tuple[SigEntry, ...] = field(default=())

    def with_signature(self, entry: SigEntry) -> "Transaction":
        return Transaction(
            kind=self.kind,
            body=self.body,
            cert=self.cert,
            parent_tid=self.parent_tid,
            tid=self.tid,
            signatures=self.signatures + (entry,),
        )


def _encode_body(w: Writer, kind: TxKind, body: Body) -> None:
    expected = _BODY_TYPES[kind]
    if not isinstance(body, expected):
        raise MalformedBody(
            f"{kind.value} body must be {expected.__name__}, got {type(body).__name__}"
        )
    body.encode(w)


def encode_tid_preimage(
    kind: TxKind,
    body: Body,
    cert: PseudonymCertificate,
    parent_tid: Optional[Hash256],
) -> bytes:
    w = Writer()
    KIND_WIRE.write(w, kind)
    _encode_body(w, kind, body)
    cert.encode(w)
    w.optional(parent_tid, lambda wr, h: wr.fixed(h, HASH_SIZE))
    return w.getvalue()


def compute_tid(
    kind: TxKind,
    body: Body,
    cert: PseudonymCertificate,
    parent_tid: Optional[Hash256] = None,
) -> Hash256:
    return hashlib.sha256(encode_tid_preimage(kind, body, cert, parent_tid)).digest()


def encode_transaction(tx: Transaction) -> bytes:
    """Full canonical record: tid preimage fields, then tid, then signatures."""
    w = Writer()
    w.raw(encode_tid_preimage(tx.kind, tx.body, tx.cert, tx.parent_tid))
    w.fixed(tx.tid, HASH_SIZE)
    w.items(tx.signatures, lambda wr, s: s.encode(wr))
    return w.getvalue()


def decode_transaction(data: bytes) -> Transaction:
    r = Reader(data)
    kind = KIND_WIRE.read(r)
    body = _BODY_TYPES[kind].decode(r)
    cert = PseudonymCertificate.decode(r)
    parent = r.optional(lambda rd: rd.fixed(HASH_SIZE))
    tid = r.fixed(HASH_SIZE)
    signatures = tuple(r.items(SigEntry.decode))
    r.expect_end()
    return Transaction(
        kind=kind, body=body, cert=cert, parent_tid=parent, tid=tid, signatures=signatures
    )


def body_timestamp(tx: Transaction) -> float:
    """The timestamp that certificate-window checks and time queries use:
    the in-body event time for telemetry kinds, the proposer's submission
    stamp for the rest.
    """
    body = tx.body
    if isinstance(body, EventSafetyBody):
        return body.ts
    if isinstance(body, CollisionEvidenceBody):
        return body.edata.ts
    return body.submitted_at  # type: ignore[union-attr]


def validate_structure(tx: Transaction) -> None:
    """Schema-level checks; raises MalformedBody / MissingCertificate."""
    expected = _BODY_TYPES[tx.kind]
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
    if len(tx.tid) != HASH_SIZE:
        raise MalformedBody("tid must be 32 bytes")
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


def check_tx(
    tx: Transaction,
    genesis: "GenesisBlock",
    committed: Mapping[Hash256, Transaction],
    ca_checked: Optional[set[PseudonymCertificate]] = None,
) -> Reason:
    """The transaction-validity rule, shared by consensus and offline
    verification. Returns the first policy that fails, in this order:
    schema (structure, evidence hash, tid), authorization in genesis's
    partition, completeness, the certificate's CA signature and its window
    at the body timestamp (so the verdict replays), signatures, uniqueness
    against `committed` (tid to transaction, all accepted before tx), and
    an execution report's parent update in `committed`.

    `ca_checked` holds certificates already found CA-signed, so a caller
    judging many transactions CA-checks each certificate once.
    """
    # Schema.
    try:
        validate_structure(tx)
    except Exception:
        return Reason.MALFORMED_BODY
    if isinstance(tx.body, (CollisionEvidenceBody, EvidenceRequestBody)):
        e = tx.body.edata
        if compute_edata_hash(e.loc, e.ts, e.hv_data, e.ts_data, e.enc_witness) != e.edata_hash:
            return Reason.MALFORMED_BODY
    if compute_tid(tx.kind, tx.body, tx.cert, tx.parent_tid) != tx.tid:
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

    # Certificate, then signatures.
    if ca_checked is None or tx.cert not in ca_checked:
        if not certificate_signature_ok(tx.cert, genesis.ca_certificates[0].public_key):
            return Reason.BAD_SIGNATURE
        if ca_checked is not None:
            ca_checked.add(tx.cert)
    if not tx.cert.window_contains(body_timestamp(tx)):
        return Reason.EXPIRED_CERT
    known_keys = genesis.known_keys()
    for entry in tx.signatures:
        if entry.role is Role.VEHICLE:
            pubkey = tx.cert.subject_pubkey
        else:
            pubkey = known_keys.get(entry.role)
            if pubkey is None:
                return Reason.UNAUTHORIZED
        if not verify_tx_digest(pubkey, tx.tid, entry.signature):
            return Reason.BAD_SIGNATURE

    # Uniqueness.
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
    tid = compute_tid(kind, body, cert, parent_tid)
    tx = Transaction(kind=kind, body=body, cert=cert, parent_tid=parent_tid, tid=tid)
    validate_structure(tx)
    return tx.with_signature(SigEntry(role=signer_role, signature=sign_tx_digest(keys.secret_key, tid)))


def countersign(tx: Transaction, keys: KeyPair, role: Role) -> Transaction:
    """Adds a second signature over the same tid. Only the update kind is
    multi-signature; signing twice with one role is rejected.
    """
    if len(required_signers(tx.kind, tx.body)) < 2:
        raise NotMultiSig(f"{tx.kind.value} takes a single signature")
    if any(entry.role == role for entry in tx.signatures):
        raise DuplicateSigner(f"role {role.value} already signed")
    return tx.with_signature(SigEntry(role=role, signature=sign_tx_digest(keys.secret_key, tx.tid)))


# --- off-chain media store ---------------------------------------------------

class BlobStore:
    """Content-addressed store for sensor media; the chain only ever holds
    the SHA-256 keys.
    """

    def __init__(self) -> None:
        self._blobs: dict[Hash256, bytes] = {}

    def put(self, data: bytes) -> Hash256:
        key = hashlib.sha256(data).digest()
        self._blobs[key] = data
        return key

    def get(self, key: Hash256) -> bytes:
        try:
            return self._blobs[key]
        except KeyError:
            raise NotFound(f"no blob {key.hex()}") from None

    def has(self, key: Hash256) -> bool:
        return key in self._blobs

    def __len__(self) -> int:
        return len(self._blobs)


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
