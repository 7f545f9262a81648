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
hash, certificate leaf and the batch-root payload its path leads to,
genesis id, the adjudicator's content digest)
is pinned by SHA-256 in tests/wire_vector_pins.json, and every record
must decode back to the value it was built from.

The pin file is data, not something this module writes. It was generated
by ``wire_digests()`` below before the record codec replaced the
hand-written encoders; regenerate it by hand only for a change that moves
wire bytes on purpose and says so.
"""

import enum
import hashlib
import json
import os
import struct

import pytest

from avledger.adjudicator import _content_digest
from avledger.encoding import decode, encode
from avledger.errors import LedgerFormatError, MalformedBody
from avledger.identity import PseudonymCertificate, root_payload
from avledger.ledger import CaRootCert, MemberRecord, make_genesis
from avledger.scenarios import WitnessStatement
from avledger.txmodel import (
    CollisionEvidenceBody,
    DriveMode,
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

from worldkit import apply_mutation, field_mutations, fixed_fields

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
CERT = PseudonymCertificate(
    cert_id=_h(0xC1),
    subject_pubkey=_h(0xA1),
    issued_at=998.0,
    validity_secs=300.0,
    leaf_index=5,
    batch_size=6,
    audit_path=_h(0xD1) + _h(0xD2),  # leaf 5 of 6: its sibling, then leaves 0-3
    root_signature=bytes(range(64)),
)
CERT_UNSIGNED = PseudonymCertificate(
    cert_id=_h(0xC2),
    subject_pubkey=_h(0xA2),
    issued_at=0.0,
    validity_secs=0.5,
    leaf_index=0,
    batch_size=1,
    audit_path=b"",
    root_signature=b"",
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
        edata=EDATA_WITNESSED, requester=Role.MANUFACTURER, submitted_at=1050.0
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

# One or more fixed instances of each of the 16 wire record classes.
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
    "EvidenceRequestBody-maker": BODIES[TxKind.EVIDENCE_REQUEST],
    "EvidenceRequestBody-insurer": EvidenceRequestBody(EDATA_ALONE, Role.INSURER, 1051.0),
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
        out[f"cert-payload/{name}"] = _sha(cert.leaf())
        out[f"cert-root-payload/{name}"] = _sha(root_payload(cert.batch_root(), cert.batch_size))
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


WHOLE = {
    **RECORDS,
    **{f"Transaction-{kind.value}": tx for kind, tx in TRANSACTIONS.items()},
    **{f"GenesisBlock-{partition.value}": genesis for partition, genesis in GENESES.items()},
}


@pytest.mark.parametrize("name", sorted(WHOLE))
def test_fixed_size_fields_refuse_other_sizes(name):
    """struct pads or cuts a byte string to its format's size, so the
    encoder checks every fixed(n) value's size itself."""
    value = WHOLE[name]
    for path, size in fixed_fields(value):
        for wrong in (size - 1, size + 1):
            with pytest.raises(ValueError, match=f"expected {size} bytes, got {wrong}"):
                encode(apply_mutation(value, path, b"\x07" * wrong))


def test_every_record_with_a_fixed_size_field_is_exercised():
    with_fixed = {type(value).__name__ for value in WHOLE.values() if any(fixed_fields(value))}
    assert with_fixed == {
        "CaRootCert",
        "CollisionEvidenceBody",
        "EventSafetyBody",
        "EvidenceData",
        "EvidenceRequestBody",
        "GenesisBlock",
        "MaintenanceBody",
        "MemberRecord",
        "PseudonymCertificate",
        "TamperStoreDigest",
        "Transaction",
        "UpdateBody",
        "WitnessStatement",
    }


# --- the decoder is exactly as strict as the layout ------------------------------

def _one_byte_fields(value):
    """(path, offset, corrupted copy) of every enum tag and boolean in
    value's encoding but a switch's key, found by changing the field and
    seeing which one byte moves."""
    base = encode(value)
    for path, other in field_mutations(value):
        if not isinstance(other, (bool, enum.Enum)) or path == ("kind",):
            continue
        moved = encode(apply_mutation(value, path, other))
        [at] = [i for i, (a, b) in enumerate(zip(base, moved)) if a != b]
        yield path, at, other


@pytest.mark.parametrize("name", sorted(WHOLE))
def test_bad_tag_and_boolean_bytes_are_refused(name):
    value = WHOLE[name]
    data = encode(value)
    for path, at, other in _one_byte_fields(value):
        if isinstance(other, bool):
            with pytest.raises(LedgerFormatError, match="^bad boolean byte 2$"):
                decode(type(value), data[:at] + b"\x02" + data[at + 1:])
        else:
            with pytest.raises(MalformedBody, match=r"^unknown [a-z ]+ tag 255$"):
                decode(type(value), data[:at] + b"\xff" + data[at + 1:])


def test_every_kind_of_one_byte_field_is_exercised():
    fields = {path[-1] for value in WHOLE.values() for path, _, _ in _one_byte_fields(value)}
    assert fields == {
        "drive_mode", "exec_status", "partition", "proposer", "requester", "role",
        "roadworthy", "trigger", "validator",
    }


@pytest.mark.parametrize("kind", list(TxKind), ids=lambda k: k.value)
def test_bad_kind_and_optional_bytes_are_refused(kind):
    tx = TRANSACTIONS[kind]
    data = encode_transaction(tx)
    with pytest.raises(MalformedBody, match="^unknown transaction kind tag 7$"):
        decode_transaction(b"\x07" + data[1:])
    flag = len(encode(tx, stop=3))  # the byte before parent_tid
    with pytest.raises(LedgerFormatError, match="^bad optional tag 2$"):
        decode_transaction(data[:flag] + b"\x02" + data[flag + 1:])


@pytest.mark.parametrize("kind", list(TxKind), ids=lambda k: k.value)
def test_every_cut_and_trailing_byte_is_refused(kind):
    data = encode_transaction(TRANSACTIONS[kind])
    for cut in range(len(data)):
        with pytest.raises(LedgerFormatError, match="^truncated record: wanted"):
            decode_transaction(data[:cut])
    with pytest.raises(LedgerFormatError, match="^1 trailing bytes after record$"):
        decode_transaction(data + b"\x00")


def test_bad_utf8_is_refused():
    body = BODIES[TxKind.UPDATE]
    data = encode(body)
    at = data.index("firmware".encode())
    with pytest.raises(LedgerFormatError, match="^bad utf-8 in text field"):
        decode(UpdateBody, data[:at] + b"\xff" + data[at + 1:])


def test_a_short_list_is_refused_where_it_runs_out():
    """Three media hashes announced, two present: the bytes after them are
    not read as the record's later fields."""
    count = (3).to_bytes(4, "big")
    data = count + _h(0x01) + _h(0x02) + struct.pack(">d", 999.5)
    with pytest.raises(LedgerFormatError, match="^truncated record: wanted 32 bytes at offset 68, have 8$"):
        decode(TamperStoreDigest, data)


def test_a_huge_list_count_fails_at_the_first_missing_item():
    """A count of 2**32 - 1 over a few bytes of data: the list is read one
    item at a time, so it fails where the first missing item would start,
    for a list of fixed-width hashes and for one of length-prefixed blobs."""
    huge = (0xFFFFFFFF).to_bytes(4, "big")
    data = huge + _h(0x01) + _h(0x02) + struct.pack(">d", 999.5)
    with pytest.raises(LedgerFormatError, match="^truncated record: wanted 32 bytes at offset 68, have 8$"):
        decode(TamperStoreDigest, data)
    # One witness blob, then two bytes of the next one's length.
    head = encode(EDATA_ALONE, stop=4)
    data = head + huge + (3).to_bytes(4, "big") + b"abc" + b"\x00\x00"
    at = len(head) + 4 + 4 + 3
    with pytest.raises(LedgerFormatError, match=f"^truncated record: wanted 4 bytes at offset {at}, have 2$"):
        decode(EvidenceData, data)


def test_a_bad_tag_before_a_cut_is_reported_first():
    """A longer entity id shifts the first public-key byte into the role
    tag and leaves the record short; read field by field, the tag fails
    first."""
    data = encode(MEMBERS[0])
    assert data[:4] == (4).to_bytes(4, "big")
    with pytest.raises(MalformedBody, match="^unknown role tag 64$"):
        decode(MemberRecord, data[:3] + b"\x05" + data[4:])
