"""Shared test world: one CA, the five fixed infrastructure actors, and a
genesis block per partition, plus builders that produce fully signed
transactions of every kind. Builders draw fresh randomness from the world's
rng so repeated calls never collide on tid.

This is a plain module, not a conftest, so that test modules can import
it by name next to other test directories that have their own conftest.
"""

import random
from dataclasses import dataclass

from avledger.identity import (
    KeyPair,
    PseudonymCertificate,
    generate_keypair,
    issue_certificate,
)
from avledger.ledger import CaRootCert, GenesisBlock, MemberRecord, PartitionLedger, make_genesis
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
    TamperStoreDigest,
    Transaction,
    TxKind,
    UpdateBody,
    body_timestamp,
    build_transaction,
    countersign,
)
from avledger.validation import ConsensusRound, run_consensus

FIXED_ENTITIES = ("am-0", "st-0", "ic-0", "gta-0", "la-0")


@dataclass
class World:
    ca: KeyPair
    root: CaRootCert
    keys: dict
    p1: GenesisBlock
    p2: GenesisBlock
    rng: random.Random

    def genesis(self, partition: Partition) -> GenesisBlock:
        return self.p1 if partition is Partition.OPERATIONAL else self.p2

    def replicas(self, partition: Partition, b_max: int = 8) -> dict:
        genesis = self.genesis(partition)
        return {
            v: PartitionLedger(genesis, b_max=b_max) for v in genesis.validator_ids()
        }

    def ledger(self, partition: Partition = Partition.OPERATIONAL, b_max: int = 8) -> PartitionLedger:
        return PartitionLedger(self.genesis(partition), b_max=b_max)


def make_world(seed: int = 1234) -> World:
    rng = random.Random(seed)
    ca = generate_keypair(rng)
    keys = {entity: generate_keypair(rng) for entity in FIXED_ENTITIES}
    root = CaRootCert(name="test-root-ca", public_key=ca.public_key)
    p1 = make_genesis(
        Partition.OPERATIONAL,
        [root],
        [
            MemberRecord("am-0", Role.MANUFACTURER, keys["am-0"].public_key, True, True),
            MemberRecord("st-0", Role.TECHNICIAN, keys["st-0"].public_key, True, True),
            MemberRecord("ic-0", Role.INSURER, keys["ic-0"].public_key, False, True),
        ],
    )
    p2 = make_genesis(
        Partition.DECISIONAL,
        [root],
        [
            MemberRecord("ic-0", Role.INSURER, keys["ic-0"].public_key, True, False),
            MemberRecord("am-0", Role.MANUFACTURER, keys["am-0"].public_key, True, False),
            MemberRecord("gta-0", Role.TRANSPORT_AUTHORITY, keys["gta-0"].public_key, False, True),
            MemberRecord("la-0", Role.LEGAL_AUTHORITY, keys["la-0"].public_key, False, True),
        ],
    )
    return World(ca=ca, root=root, keys=keys, p1=p1, p2=p2, rng=rng)


# --- transaction builders ----------------------------------------------------

def vehicle_credentials(world: World, at: float, validity: float = 300.0):
    keys = generate_keypair(world.rng)
    cert = issue_certificate(world.ca, keys.public_key, at, validity, world.rng)
    return keys, cert


def make_esm(
    speed: float = 13.0,
    mode: DriveMode = DriveMode.AUTONOMOUS,
    trigger: EventTrigger = EventTrigger.HARD_BRAKE,
    lat: float = 40.0,
    lon: float = -75.0,
) -> EventSafetyMessage:
    return EventSafetyMessage(
        location=GeoPoint(lat_deg=lat, lon_deg=lon),
        speed_mps=speed,
        position=RoadPosition(lane=1, heading_deg=90.0),
        drive_mode=mode,
        trigger=trigger,
    )


def make_ts_data(world: World, at: float, n_media: int = 2) -> TamperStoreDigest:
    return TamperStoreDigest(
        media_hashes=tuple(world.rng.randbytes(32) for _ in range(n_media)),
        captured_at=at,
    )


def make_edata(
    world: World,
    at: float,
    speed: float = 13.0,
    mode: DriveMode = DriveMode.AUTONOMOUS,
    lat: float = 40.0,
    lon: float = -75.0,
    witness: tuple = (),
) -> EvidenceData:
    return EvidenceData.make(
        loc=GeoPoint(lat_deg=lat, lon_deg=lon),
        ts=at,
        hv_data=make_esm(speed=speed, mode=mode, lat=lat, lon=lon),
        ts_data=make_ts_data(world, at),
        enc_witness=witness,
    )


def make_est(world: World, at: float = 1000.0, creds=None, **esm_kwargs) -> Transaction:
    keys, cert = creds if creds is not None else vehicle_credentials(world, at)
    body = EventSafetyBody(ts=at, esm=make_esm(**esm_kwargs), ts_data=make_ts_data(world, at))
    return build_transaction(TxKind.EVENT_SAFETY, body, keys, cert)


def make_pet(world: World, at: float = 1000.0, creds=None, edata=None) -> Transaction:
    keys, cert = creds if creds is not None else vehicle_credentials(world, at)
    if edata is None:
        edata = make_edata(world, at, witness=(world.rng.randbytes(48),))
    body = CollisionEvidenceBody(edata=edata, ts_data=make_ts_data(world, at))
    return build_transaction(TxKind.COLLISION_EVIDENCE, body, keys, cert)


def make_ut(world: World, at: float = 1000.0, creds=None, countersigned: bool = True) -> Transaction:
    keys, cert = creds if creds is not None else vehicle_credentials(world, at)
    body = UpdateBody(
        update_file_hash=world.rng.randbytes(32),
        metadata="firmware 1.2.3",
        submitted_at=at,
    )
    tx = build_transaction(TxKind.UPDATE, body, world.keys["am-0"], cert)
    if countersigned:
        tx = countersign(tx, keys, Role.VEHICLE)
    return tx


def make_et(world: World, parent_tid: bytes, creds, at: float = 1600.0) -> Transaction:
    keys, cert = creds
    body = ExecReportBody(exec_status=ExecStatus.EXECUTED, submitted_at=at)
    return build_transaction(TxKind.EXECUTION, body, keys, cert, parent_tid=parent_tid)


def make_mt(world: World, at: float = 1000.0, cert=None, roadworthy: bool = True) -> Transaction:
    if cert is None:
        _, cert = vehicle_credentials(world, at)
    body = MaintenanceBody(
        report_hash=world.rng.randbytes(32),
        roadworthy=roadworthy,
        technician="st-0",
        submitted_at=at,
    )
    return build_transaction(TxKind.MAINTENANCE, body, world.keys["st-0"], cert)


def make_ret(
    world: World,
    edata: EvidenceData,
    at: float = 1100.0,
    requester: str = "ic-0",
    role: Role = Role.INSURER,
    cert: PseudonymCertificate = None,
    est_digests: tuple = (),
) -> Transaction:
    if cert is None:
        _, cert = vehicle_credentials(world, at)
    body = EvidenceRequestBody(
        edata=edata, requester=role, submitted_at=at, est_digests=tuple(est_digests)
    )
    return build_transaction(TxKind.EVIDENCE_REQUEST, body, world.keys[requester], cert)


def commit(replicas: dict, tx: Transaction, at: float = None) -> ConsensusRound:
    """One consensus round over every replica in the mapping."""
    when = body_timestamp(tx) if at is None else at
    return run_consensus(list(replicas), tx, replicas, when)


def fill_ledger(world: World, ledger: PartitionLedger, n: int, start_at: float = 1000.0) -> list:
    """Appends n freshly built ESTs directly (no consensus), sealing as
    capacity is reached. Returns the transactions in append order.
    """
    out = []
    for i in range(n):
        tx = make_est(world, at=start_at + 10.0 * i)
        ledger.append_validated(tx)
        ledger.maybe_seal()
        out.append(tx)
    return out
