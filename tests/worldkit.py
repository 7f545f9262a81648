"""Shared test world: one CA, the five fixed infrastructure actors, and a
genesis block per partition, plus builders that produce fully signed
transactions of every kind. Builders draw fresh randomness from the world's
rng so repeated calls never collide on tid.

This is a plain module, not a conftest, so that test modules can import
it by name next to other test directories that have their own conftest.
"""

import dataclasses
import enum
import importlib
import pkgutil
import random
from dataclasses import dataclass

import avledger
from avledger.encoding import Fixed, items, layout, optional
from avledger.identity import (
    KeyPair,
    PseudonymCertificate,
    generate_keypair,
    issue_certificate,
)
from avledger.ledger import CaRootCert, GenesisBlock, MemberRecord, PartitionLedger, fold_step, make_genesis
from avledger.scenarios import (
    CollisionEvent,
    MaintenanceEvent,
    NetworkConfig,
    SafetyEvent,
    ScenarioConfig,
    UpdateEvent,
    VehicleSpec,
)
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

    def genesis(self, partition: Partition, b_max: int = 8) -> GenesisBlock:
        """The partition's genesis, with block capacity b_max."""
        base = self.p1 if partition is Partition.OPERATIONAL else self.p2
        return make_genesis(base.partition, base.ca_certificates, base.membership, b_max)

    def replicas(self, partition: Partition, b_max: int = 8) -> dict:
        genesis = self.genesis(partition, b_max)
        return {v: PartitionLedger(genesis) for v in genesis.validator_ids()}

    def ledger(self, partition: Partition = Partition.OPERATIONAL, b_max: int = 8) -> PartitionLedger:
        return PartitionLedger(self.genesis(partition, b_max))


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


def avledger_classes() -> list[type]:
    """Every class defined in a module of the avledger package, by
    qualified name."""
    classes = []
    for info in pkgutil.iter_modules(avledger.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"avledger.{info.name}")
        classes += [cls for cls in vars(module).values() if isinstance(cls, type) and cls.__module__ == module.__name__]
    return sorted(classes, key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


def frozen_records() -> list[type]:
    """Every frozen dataclass of the avledger package."""
    return [cls for cls in avledger_classes() if dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen]


# --- transaction builders ----------------------------------------------------

def vehicle_credentials(world: World, at: float, validity: float = 300.0):
    """A fresh key and its certificate, alone in its batch."""
    return batch_credentials(world, at, 1, validity)[0]


def batch_credentials(world: World, at: float, n: int, validity: float = 300.0) -> list:
    """n fresh keys, each with its certificate from one batch of n."""
    keys = [generate_keypair(world.rng) for _ in range(n)]
    certs = issue_certificate(world.ca, [k.public_key for k in keys], at, validity, world.rng)
    return list(zip(keys, certs))


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
) -> Transaction:
    """An evidence request submitted at `at`. It names the subject's
    collision certificate, which must be valid at the evidence time, so
    the default is a fresh certificate issued then."""
    if cert is None:
        _, cert = vehicle_credentials(world, edata.ts)
    body = EvidenceRequestBody(edata=edata, requester=role, submitted_at=at)
    return build_transaction(TxKind.EVIDENCE_REQUEST, body, world.keys[requester], cert)


def commit(replicas: dict, tx: Transaction, at: float = None) -> ConsensusRound:
    """One consensus round over every replica in the mapping."""
    when = body_timestamp(tx) if at is None else at
    return run_consensus(tx, replicas, when)


def append_by_hand(ledger: PartitionLedger, tx: Transaction) -> bytes:
    """Appends tx outside consensus, with the fold value a round would
    agree on for this ledger (its cached fold after tx); returns it."""
    fold = fold_step(tx.tid, ledger.cblock_id)
    ledger.append_validated(tx, fold)
    return fold


def fill_ledger(world: World, ledger: PartitionLedger, n: int, start_at: float = 1000.0) -> list:
    """Appends n freshly built ESTs directly (no consensus); the ledger
    seals as capacity is reached. Returns the transactions in append order.
    """
    out = []
    for i in range(n):
        tx = make_est(world, at=start_at + 10.0 * i)
        append_by_hand(ledger, tx)
        out.append(tx)
    return out


# --- single-field corruptions --------------------------------------------------

def leaf_mutations(value):
    """One representative corruption for a scalar leaf."""
    if isinstance(value, enum.Enum):
        members = list(type(value))
        return [members[(members.index(value) + 1) % len(members)]]
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, float):
        return [value + 1.0]
    if isinstance(value, int):
        return [value + 1]
    if isinstance(value, str):
        return [value + "x"]
    if isinstance(value, bytes):
        return [b"\x01" if not value else bytes([value[0] ^ 0x01]) + value[1:]]
    if value is None:
        return [b"\x01" * 32]
    raise AssertionError(f"unhandled leaf type {type(value)!r}")


def field_mutations(obj, path=()):
    """Every (field path, corrupted value) pair over a transaction tree."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from field_mutations(getattr(obj, f.name), path + (f.name,))
        return
    if isinstance(obj, tuple):
        for i, item in enumerate(obj):
            yield from field_mutations(item, path + (i,))
        if obj:
            yield path, obj[:-1]
        return
    for new in leaf_mutations(obj):
        yield path, new


def apply_mutation(obj, path, new_value):
    if not path:
        return new_value
    head, rest = path[0], path[1:]
    if isinstance(head, int):
        items = list(obj)
        items[head] = apply_mutation(items[head], rest, new_value)
        return tuple(items)
    return dataclasses.replace(obj, **{head: apply_mutation(getattr(obj, head), rest, new_value)})


def fixed_fields(record, path=()):
    """(field path, n) for every fixed(n) byte string in a record tree, by
    the codecs its layout declares."""
    rec = layout(type(record))
    for name, codec in zip(rec.names, rec.codecs):
        yield from _fixed_values(getattr(record, name), codec, path + (name,))


def _fixed_values(value, codec, path):
    if isinstance(codec, Fixed):
        yield path, codec.size
    elif isinstance(codec, items):
        for i, item in enumerate(value):
            yield from _fixed_values(item, codec.codec, path + (i,))
    elif isinstance(codec, optional):
        if value is not None:
            yield from _fixed_values(value, codec.codec, path)
    elif dataclasses.is_dataclass(value):
        yield from fixed_fields(value, path)


# --- scenario configs ----------------------------------------------------------

def disputes_shaped_config(seed: int, n_events: int = 300) -> ScenarioConfig:
    """A fleet the shape of the fleet-disputes benchmark workload (20
    vehicles, 60/15/15/10 safety/update/maintenance/collision, drop 0.1),
    with fewer events."""
    rng = random.Random(seed)
    timeline, t = [], 0.0
    for _ in range(n_events):
        t += rng.expovariate(1.0 / 6.0)
        at, roll, vehicle = round(t, 3), rng.random(), rng.randrange(20)
        if roll < 0.6:
            timeline.append(SafetyEvent(at=at, vehicle=vehicle))
        elif roll < 0.75:
            timeline.append(UpdateEvent(at=at, vehicle=vehicle, exec_delay_secs=rng.uniform(60.0, 600.0)))
        elif roll < 0.9:
            timeline.append(MaintenanceEvent(at=at, vehicle=vehicle))
        else:
            parties = tuple(rng.sample(range(20), 2))
            timeline.append(CollisionEvent(at=at, vehicles=parties, n_witnesses=1, hit_and_run=rng.random() < 0.1))
    return ScenarioConfig(
        seed=seed,
        vehicles=(VehicleSpec(),) * 20,
        timeline=tuple(timeline),
        network=NetworkConfig(drop_prob=0.1),
    )
