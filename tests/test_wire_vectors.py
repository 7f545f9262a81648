"""Wire vectors: the canonical bytes of every record, pinned.

Every tid, evidence hash, certificate signature and genesis id is a
SHA-256 or Ed25519 over the canonical encoding of a record, so moving one
byte of a record's layout is a behaviour change. This module builds one
fixed instance of every wire record class (more where a class has
branches: both drive modes, both execution states, both partitions, a
failed roadworthiness check, an execution report with its parent tid,
empty lists and lists of several items), the genesis fields of both
partitions, and one transaction of each kind. Together they write every
enum tag on the wire: all seven roles, all six kinds, both partitions,
both drive modes, every trigger and both execution states.

Each encoding and each digest derived from it (tid preimage, evidence
hash, certificate payload, genesis id, the adjudicator's content digest)
is pinned by SHA-256 in tests/wire_vector_pins.json, and every record
must decode back to the value it was built from.

The pin file is data, not something this module writes. It was generated
by ``wire_digests()`` below before the record codec replaced the
hand-written encoders; regenerate it by hand only for a change that moves
wire bytes on purpose and says so.
"""

import hashlib
import json
import os

import pytest

from avledger.adjudicator import _content_digest
from avledger.encoding import decode, encode
from avledger.identity import PseudonymCertificate
from avledger.ledger import CaRootCert, MemberRecord, make_genesis
from avledger.scenarios import WitnessStatement
from avledger.txmodel import (
    CollisionEvidenceBody,
    DriveMode,
    EstDigest,
    EventSafetyBody,
    EventSafetyMessage,
    EventTrigger,
    EvidenceData,
    EvidenceRequestBody,
    ExecReportBody,
    ExecStatus,
    GeoPoint,
    MaintenanceBody,
    Partition,
    RoadPosition,
    Role,
    SigEntry,
    TamperStoreDigest,
    Transaction,
    TxKind,
    UpdateBody,
    compute_edata_hash,
    compute_tid,
    decode_transaction,
    encode_tid_preimage,
    encode_transaction,
)

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "wire_vector_pins.json")


def _h(byte: int) -> bytes:
    return bytes([byte]) * 32


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


GEO = GeoPoint(lat_deg=40.712776, lon_deg=-74.005974)
GEO_SOUTH = GeoPoint(lat_deg=-33.8688, lon_deg=151.2093)
POSITION = RoadPosition(lane=3, heading_deg=271.25)
POSITION_ZERO = RoadPosition(lane=0, heading_deg=0.0)
ESM_AUTONOMOUS = EventSafetyMessage(GEO, 13.5, POSITION, DriveMode.AUTONOMOUS, EventTrigger.HARD_BRAKE)
ESM_MANUAL = EventSafetyMessage(GEO_SOUTH, 0.0, POSITION_ZERO, DriveMode.MANUAL, EventTrigger.WRONG_WAY)
ESM_SLIPPERY = EventSafetyMessage(GEO, 27.75, POSITION, DriveMode.AUTONOMOUS, EventTrigger.SLIPPERY_ROAD)
TS_EMPTY = TamperStoreDigest(media_hashes=(), captured_at=999.5)
TS_THREE = TamperStoreDigest(media_hashes=(_h(0x01), _h(0x02), _h(0x03)), captured_at=1000.25)
EDATA_WITNESSED = EvidenceData.make(
    GEO, 1001.0, ESM_MANUAL, TS_THREE, (b"", b"sealed-witness-a", bytes(range(48)))
)
EDATA_ALONE = EvidenceData.make(GEO_SOUTH, 1002.5, ESM_AUTONOMOUS, TS_EMPTY, ())
EST_DIGESTS = (
    EstDigest(tid=_h(0x11), ts=900.0, trigger=EventTrigger.HARD_BRAKE),
    EstDigest(tid=_h(0x12), ts=950.0, trigger=EventTrigger.WRONG_WAY),
    EstDigest(tid=_h(0x13), ts=975.0, trigger=EventTrigger.SLIPPERY_ROAD),
)
CERT = PseudonymCertificate(
    cert_id=_h(0xC1),
    subject_pubkey=_h(0xA1),
    issued_at=998.0,
    validity_secs=300.0,
    issuer_signature=bytes(range(64)),
)
CERT_UNSIGNED = PseudonymCertificate(
    cert_id=_h(0xC2), subject_pubkey=_h(0xA2), issued_at=0.0, validity_secs=0.5, issuer_signature=b""
)
ROOT = CaRootCert(name="root-ca", public_key=_h(0xCA))
MEMBERS = (
    MemberRecord("av-0", Role.VEHICLE, _h(0x40), False, False),
    MemberRecord("am-0", Role.MANUFACTURER, _h(0x41), True, True),
    MemberRecord("st-0", Role.TECHNICIAN, _h(0x42), True, False),
    MemberRecord("ic-0", Role.INSURER, _h(0x43), False, True),
    MemberRecord("gta-0", Role.TRANSPORT_AUTHORITY, _h(0x44), False, True),
    MemberRecord("la-0", Role.LEGAL_AUTHORITY, _h(0x45), False, True),
    MemberRecord("ca-0", Role.CERT_AUTHORITY, _h(0x46), False, False),
)

BODIES = {
    TxKind.EVENT_SAFETY: EventSafetyBody(ts=1000.0, esm=ESM_SLIPPERY, ts_data=TS_THREE),
    TxKind.COLLISION_EVIDENCE: CollisionEvidenceBody(edata=EDATA_WITNESSED, ts_data=TS_EMPTY),
    TxKind.UPDATE: UpdateBody(
        update_file_hash=_h(0x55), metadata="firmware 2.0.1 üß", submitted_at=1020.0
    ),
    TxKind.EXECUTION: ExecReportBody(exec_status=ExecStatus.FAILED, submitted_at=1030.0),
    TxKind.MAINTENANCE: MaintenanceBody(
        report_hash=_h(0x66), roadworthy=False, technician="st-0", submitted_at=1040.0
    ),
    TxKind.EVIDENCE_REQUEST: EvidenceRequestBody(
        edata=EDATA_WITNESSED, requester=Role.MANUFACTURER, submitted_at=1050.0, est_digests=EST_DIGESTS
    ),
}
SIGNERS = {
    TxKind.EVENT_SAFETY: (Role.VEHICLE,),
    TxKind.COLLISION_EVIDENCE: (Role.VEHICLE,),
    TxKind.UPDATE: (Role.MANUFACTURER, Role.VEHICLE),
    TxKind.EXECUTION: (Role.VEHICLE,),
    TxKind.MAINTENANCE: (Role.TECHNICIAN,),
    TxKind.EVIDENCE_REQUEST: (Role.MANUFACTURER,),
}


def _transaction(kind: TxKind) -> Transaction:
    body = BODIES[kind]
    parent = _h(0x77) if kind is TxKind.EXECUTION else None
    tid = compute_tid(kind, body, CERT, parent)
    signatures = tuple(
        SigEntry(role=role, signature=bytes([i + 1]) * 64) for i, role in enumerate(SIGNERS[kind])
    )
    return Transaction(kind=kind, body=body, cert=CERT, parent_tid=parent, tid=tid, signatures=signatures)


TRANSACTIONS = {kind: _transaction(kind) for kind in TxKind}
GENESES = {
    partition: make_genesis(partition, [ROOT, CaRootCert("backup-ca", _h(0xCB))], MEMBERS)
    for partition in Partition
}

# One or more fixed instances of each of the 17 wire record classes.
RECORDS = {
    "GeoPoint": GEO,
    "GeoPoint-south": GEO_SOUTH,
    "RoadPosition": POSITION,
    "RoadPosition-zero": POSITION_ZERO,
    "EventSafetyMessage-autonomous": ESM_AUTONOMOUS,
    "EventSafetyMessage-manual": ESM_MANUAL,
    "TamperStoreDigest-empty": TS_EMPTY,
    "TamperStoreDigest-three": TS_THREE,
    "EvidenceData-witnessed": EDATA_WITNESSED,
    "EvidenceData-alone": EDATA_ALONE,
    "EventSafetyBody": BODIES[TxKind.EVENT_SAFETY],
    "CollisionEvidenceBody": BODIES[TxKind.COLLISION_EVIDENCE],
    "UpdateBody": BODIES[TxKind.UPDATE],
    "ExecReportBody-failed": BODIES[TxKind.EXECUTION],
    "ExecReportBody-executed": ExecReportBody(exec_status=ExecStatus.EXECUTED, submitted_at=1031.0),
    "MaintenanceBody-unroadworthy": BODIES[TxKind.MAINTENANCE],
    "MaintenanceBody-roadworthy": MaintenanceBody(_h(0x67), True, "", 1041.0),
    "EstDigest": EST_DIGESTS[0],
    "EvidenceRequestBody-maker": BODIES[TxKind.EVIDENCE_REQUEST],
    "EvidenceRequestBody-insurer": EvidenceRequestBody(EDATA_ALONE, Role.INSURER, 1051.0, ()),
    "SigEntry": SigEntry(role=Role.LEGAL_AUTHORITY, signature=b"\x99" * 64),
    "SigEntry-empty": SigEntry(role=Role.TRANSPORT_AUTHORITY, signature=b""),
    "PseudonymCertificate": CERT,
    "PseudonymCertificate-unsigned": CERT_UNSIGNED,
    "CaRootCert": ROOT,
    **{f"MemberRecord-{m.role.value}": m for m in MEMBERS},
    "WitnessStatement": WitnessStatement(_h(0x21), (_h(0x22), _h(0x23), _h(0x24)), "seen at case-0"),
    "WitnessStatement-empty": WitnessStatement(_h(0x25), (), ""),
}


def wire_digests() -> dict[str, str]:
    """SHA-256 of every pinned encoding and digest, by name."""
    out = {f"record/{name}": _sha(encode(value)) for name, value in RECORDS.items()}
    for kind, tx in TRANSACTIONS.items():
        out[f"tx/{kind.value}"] = _sha(encode_transaction(tx))
        out[f"tid-preimage/{kind.value}"] = _sha(
            encode_tid_preimage(tx.kind, tx.body, tx.cert, tx.parent_tid)
        )
        out[f"tid/{kind.value}"] = tx.tid.hex()
    for name, e in (("witnessed", EDATA_WITNESSED), ("alone", EDATA_ALONE)):
        out[f"edata-hash/{name}"] = compute_edata_hash(e.loc, e.ts, e.hv_data, e.ts_data, e.enc_witness).hex()
        out[f"content-digest/{name}"] = _content_digest(e).hex()
    for name, cert in (("signed", CERT), ("unsigned", CERT_UNSIGNED)):
        out[f"cert-payload/{name}"] = _sha(cert.signed_payload())
    for partition, genesis in GENESES.items():
        out[f"genesis-id/{partition.value}"] = genesis.block_id.hex()
    return out


with open(PINS_PATH, "r", encoding="utf-8") as _fh:
    PINS = json.load(_fh)

DIGESTS = wire_digests()


def test_pin_file_covers_every_vector():
    assert sorted(PINS) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_wire_bytes_are_pinned(name):
    assert DIGESTS[name] == PINS[name], f"{name}: wire bytes moved"


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_decodes_to_its_value(name):
    value = RECORDS[name]
    assert decode(type(value), encode(value)) == value


@pytest.mark.parametrize("kind", list(TxKind), ids=lambda k: k.value)
def test_transaction_decodes_to_its_value(kind):
    tx = TRANSACTIONS[kind]
    assert decode_transaction(encode_transaction(tx)) == tx


def test_vectors_write_every_enum_tag():
    roles = {m.role for m in MEMBERS}
    assert roles == set(Role)
    assert {tx.kind for tx in TRANSACTIONS.values()} == set(TxKind)
    assert set(GENESES) == set(Partition)
    assert {esm.drive_mode for esm in (ESM_AUTONOMOUS, ESM_MANUAL)} == set(DriveMode)
    assert {esm.trigger for esm in (ESM_AUTONOMOUS, ESM_MANUAL, ESM_SLIPPERY)} == set(EventTrigger)
    statuses = {RECORDS[n].exec_status for n in ("ExecReportBody-failed", "ExecReportBody-executed")}
    assert statuses == set(ExecStatus)
    assert TRANSACTIONS[TxKind.EXECUTION].parent_tid is not None
