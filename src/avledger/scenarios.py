"""Seeded multi-actor scenarios over the two-partition ledger.

A scenario is a timeline of fleet events (safety reports, update rounds,
maintenance visits, collisions) plus an optional scripted attack. The
engine owns every actor's keys, the certificate authority, the escrow,
one replica per validator per partition, and a seeded lossy network;
running the same config twice replays byte-for-byte.

Attack classes:

    TamperCBlock      a rogue validator deletes the newest open-block
                      transaction from its own replica
    FalseInformation  a rogue submitter forwards a forged evidence copy
                      (content changed, hash freshly recomputed) into the
                      decision partition
    SuppressEvidence  a rogue validator deletes a specific committed
                      evidence transaction from its own replica

The first two replica attacks surface as a Diverged consensus round on
the next accepted transaction; the forgery surfaces at adjudication when
a copy committed in the decision partition fails the cross-check against
the committed original. A forged copy that never commits there is never
weighed, and the run reports the attack undetected.
"""

from __future__ import annotations

import enum
import hashlib
import json
import logging
import math
import random
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from itertools import islice
from typing import Callable, Optional, Union

from .adjudicator import (
    AdjudicationParams,
    CollisionCase,
    PartyEvidence,
    VerdictFlag,
    adjudicate,
)
from .encoding import TEXT, decode, encode, frozen, items, wire
from .errors import ConfigError, Unattributable
from .identity import (
    DEFAULT_CERT_VALIDITY_SECS,
    CertificateBatch,
    Checks,
    EntityId,
    IdentityEscrow,
    InlineChecks,
    KeyPair,
    SentChecks,
    derive_shared_key,
    generate_keypair,
    generate_keypairs,
    issue_certificate,
    open_sealed,
    seal_to_key,
)
from .ledger import (
    CaRootCert,
    DEFAULT_B_MAX,
    MemberRecord,
    PartitionLedger,
    make_genesis,
)
from .netsim import DEFAULT_MAX_ATTEMPTS, DEFAULT_RETRY_INTERVAL_SECS, Network
from .txmodel import (
    HASH,
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
    Hash256,
    MaintenanceBody,
    Partition,
    PseudonymCertificate,
    RoadPosition,
    Role,
    TamperStoreDigest,
    Transaction,
    TxKind,
    UpdateBody,
    build_transaction,
    countersign,
)
from .validation import (
    SKIPPED_HALTED,
    ConsensusRound,
    RoundOutcome,
    audit_line,
    detect_tamper,
    run_consensus,
)

log = logging.getLogger(__name__)


class AttackClass(str, enum.Enum):
    TAMPER_CBLOCK = "TamperCBlock"
    FALSE_INFORMATION = "FalseInformation"
    SUPPRESS_EVIDENCE = "SuppressEvidence"


# --- replica attacks ----------------------------------------------------------

def inject_false_information(edata: EvidenceData) -> EvidenceData:
    """A forged copy of collision evidence: faster-looking telemetry and a
    shifted clock, with the evidence hash recomputed so the copy is
    internally consistent. Detection has to come from comparison, not
    from the copy itself.
    """
    forged_hv = replace(edata.hv_data, speed_mps=edata.hv_data.speed_mps + 15.0)
    return EvidenceData.make(
        loc=edata.loc,
        ts=edata.ts + 5.0,
        hv_data=forged_hv,
        ts_data=edata.ts_data,
        enc_witness=edata.enc_witness,
    )


# --- configuration ------------------------------------------------------------

# The fixed infrastructure actors, in the order the engine draws their keys.
INFRASTRUCTURE_ACTORS = ("am-0", "st-0", "ic-0", "gta-0", "la-0")

# How far a PET's evidence time may lie from its scene, either way: each
# party's clock is off by up to this much. A pool key used just before
# the next fleet batch keeps only about cert_validity_secs of its window,
# so the parser refuses a validity below this offset, under which honest
# PETs would expire.
PET_CLOCK_OFFSET_SECS = 0.9


@frozen
class NetworkConfig:
    drop_prob: float = 0.0
    retry_interval_secs: float = DEFAULT_RETRY_INTERVAL_SECS
    max_attempts: int = DEFAULT_MAX_ATTEMPTS


@frozen
class VehicleSpec:
    drive_mode: DriveMode = DriveMode.AUTONOMOUS


@frozen
class SafetyEvent:
    at: float
    vehicle: int
    trigger: EventTrigger = EventTrigger.HARD_BRAKE


@frozen
class UpdateEvent:
    at: float
    vehicle: int
    execution: str = "executed"  # executed | failed | none
    exec_delay_secs: float = 600.0


@frozen
class MaintenanceEvent:
    at: float
    vehicle: int
    roadworthy: bool = True


@frozen
class CollisionEvent:
    at: float
    vehicles: tuple[int, ...]
    n_witnesses: int = 0
    hit_and_run: bool = False


TimelineEvent = Union[SafetyEvent, UpdateEvent, MaintenanceEvent, CollisionEvent]


@frozen
class AttackConfig:
    attack_class: AttackClass
    at: float = 0.0
    actor: Optional[EntityId] = None
    target_kind: Optional[TxKind] = None


@frozen
class ScenarioConfig:
    seed: int
    vehicles: tuple[VehicleSpec, ...] = (VehicleSpec(),)
    timeline: tuple[TimelineEvent, ...] = ()
    b_max: int = DEFAULT_B_MAX
    cert_validity_secs: float = DEFAULT_CERT_VALIDITY_SECS
    network: NetworkConfig = NetworkConfig()
    adjudication: AdjudicationParams = AdjudicationParams()
    attack: Optional[AttackConfig] = None


# --- JSON readers -------------------------------------------------------------
#
# A reader takes a JSON value and its `$.path` and returns the parsed value,
# or raises ConfigError naming that path. The scenario config and the CLI's
# case file are both read with these.

JsonReader = Callable[[object, str], object]


def _at_least(minimum, types, expected: str) -> JsonReader:
    def read(value, path: str):
        if not isinstance(value, types) or isinstance(value, bool):
            raise ConfigError(path, f"expected {expected}, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(path, f"must be >= {minimum}, got {value}")
        return value

    return read


def number(minimum: Optional[float] = None) -> JsonReader:
    """A finite number, read as a float. Python's json reads NaN and
    Infinity, and NaN passes every bound check, so non-finite values are
    refused here.
    """
    read = _at_least(minimum, (int, float), "a number")

    def read_finite(value, path: str) -> float:
        try:
            result = float(read(value, path))
        except OverflowError:  # an integer too large for a float
            result = math.inf
        if not math.isfinite(result):
            raise ConfigError(path, f"expected a finite number, got {value!r}")
        return result

    return read_finite


def integer(minimum: Optional[int] = None) -> JsonReader:
    return _at_least(minimum, int, "an integer")


def boolean(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected a boolean, got {value!r}")
    return value


def text(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {value!r}")
    return value


def hash256(value, path: str) -> bytes:
    """A 32-byte hash written as 64 hex digits."""
    try:
        raw = bytes.fromhex(text(value, path))
    except ValueError:
        raise ConfigError(path, f"not valid hex: {value!r}") from None
    if len(raw) != 32:
        raise ConfigError(path, "expected 32 bytes of hex")
    return raw


def choice(options) -> JsonReader:
    """A string naming one of `options`: the keys of a mapping, the values
    of an enum, or plain strings.
    """
    table = options if isinstance(options, dict) else {getattr(o, "value", o): o for o in options}

    def read(value, path: str):
        if not isinstance(value, str) or value not in table:
            raise ConfigError(path, f"expected one of {sorted(table)}, got {value!r}")
        return table[value]

    return read


def optional(reader: JsonReader) -> JsonReader:
    return lambda value, path: None if value is None else reader(value, path)


def list_of(item: JsonReader, nonempty: bool = False) -> JsonReader:
    def read(value, path: str) -> tuple:
        if not isinstance(value, list) or (nonempty and not value):
            raise ConfigError(path, "expected a non-empty list" if nonempty else "expected a list")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))

    return read


def mapping_of(item: JsonReader) -> JsonReader:
    def read(value, path: str) -> dict:
        if not isinstance(value, dict):
            raise ConfigError(path, "expected an object")
        return {key: item(value[key], f"{path}[{key}]") for key in sorted(value)}

    return read


def record(keys: dict[str, JsonReader], required=()) -> JsonReader:
    """A JSON object read key by key into a dict. Keys outside `keys` are
    ignored; a missing key is left out unless it is `required`.
    """

    def read(value, path: str) -> dict:
        if not isinstance(value, dict):
            raise ConfigError(path, "expected an object")
        out = {}
        for key, reader in keys.items():
            if key in value:
                out[key] = reader(value[key], f"{path}.{key}")
            elif key in required:
                raise ConfigError(f"{path}.{key}", "missing required field")
        return out

    return read


# --- the config schema --------------------------------------------------------
#
# One table gives the JSON keys of each class in a scenario config or a
# collision-case file, with their readers. A key fills the dataclass field
# of the same name (`_FIELD_OF_KEY` lists the one exception). A missing key
# takes the field's default; a field without a default is required.
# config_to_jsonable walks the same table.

def _object(cls: type) -> JsonReader:
    def read(value, path: str):
        keys = _SCHEMA[cls]
        defaulted = {
            f.name for f in fields(cls)
            if f.default is not MISSING or f.default_factory is not MISSING
        }
        required = [key for key in keys if _FIELD_OF_KEY.get(key, key) not in defaulted]
        raw = record(keys, required)(value, path)
        return cls(**{_FIELD_OF_KEY.get(key, key): parsed for key, parsed in raw.items()})

    return read


_EVENT_TYPES = {
    "event_safety": SafetyEvent,
    "update": UpdateEvent,
    "maintenance": MaintenanceEvent,
    "collision": CollisionEvent,
}
_EVENT_TYPE_NAMES = {cls: name for name, cls in _EVENT_TYPES.items()}


def _event(value, path: str) -> TimelineEvent:
    cls = record({"type": choice(_EVENT_TYPES)}, required=("type",))(value, path)["type"]
    return _object(cls)(value, path)


def _drop_prob(value, path: str) -> float:
    drop = number(0.0)(value, path)
    if drop >= 1.0:
        raise ConfigError(path, f"must be < 1, got {drop}")
    return drop


def _cert_validity(value, path: str) -> float:
    validity = number()(value, path)
    if validity < PET_CLOCK_OFFSET_SECS:
        raise ConfigError(
            path,
            f"must be >= {PET_CLOCK_OFFSET_SECS}, the most a PET's clock is off from its scene: "
            f"a pseudonym used just before the next fleet batch keeps about one validity of its "
            f"window, so a shorter validity expires honest evidence; got {validity}",
        )
    return validity


def _vehicles(value, path: str) -> tuple[VehicleSpec, ...]:
    """A count of default vehicles, or a list of vehicle objects."""
    if isinstance(value, list):
        return list_of(_object(VehicleSpec), nonempty=True)(value, path)
    if isinstance(value, int) and not isinstance(value, bool):
        return (VehicleSpec(),) * integer(1)(value, path)
    raise ConfigError(path, "expected a count or a list of vehicle objects")


def _hash_set(value, path: str) -> frozenset[bytes]:
    return frozenset(list_of(hash256)(value, path))


_FIELD_OF_KEY = {"class": "attack_class"}

_SCHEMA: dict[type, dict[str, JsonReader]] = {
    ScenarioConfig: {
        "seed": integer(0),
        "b_max": integer(1),
        "cert_validity_secs": _cert_validity,
        "network": _object(NetworkConfig),
        "vehicles": _vehicles,
        "adjudication": _object(AdjudicationParams),
        "timeline": list_of(_event),
        "attack": optional(_object(AttackConfig)),
    },
    NetworkConfig: {
        "drop_prob": _drop_prob,
        "retry_interval_secs": number(0.0),
        "max_attempts": integer(1),
    },
    VehicleSpec: {"drive_mode": choice(DriveMode)},
    SafetyEvent: {"at": number(0.0), "vehicle": integer(0), "trigger": choice(EventTrigger)},
    UpdateEvent: {
        "at": number(0.0),
        "vehicle": integer(0),
        "execution": choice(("executed", "failed", "none")),
        "exec_delay_secs": number(0.0),
    },
    MaintenanceEvent: {"at": number(0.0), "vehicle": integer(0), "roadworthy": boolean},
    CollisionEvent: {
        "at": number(0.0),
        "vehicles": list_of(integer(0), nonempty=True),
        "n_witnesses": integer(0),
        "hit_and_run": boolean,
    },
    AttackConfig: {
        "class": choice(AttackClass),
        "at": number(0.0),
        "actor": optional(choice(INFRASTRUCTURE_ACTORS)),
        "target_kind": optional(choice(TxKind)),
    },
    AdjudicationParams: {
        "negligence_deadline_secs": number(0.0),
        "maintenance_window_secs": number(0.0),
        "staged_window_secs": number(0.0),
        "staged_threshold": integer(1),
        "time_tol_secs": number(0.0),
        "dist_tol_m": number(0.0),
    },
    CollisionCase: {
        "case_id": text,
        "collision_at": number(),
        "parties": list_of(_object(PartyEvidence), nonempty=True),
        "maker": text,
        "witness_pet_tids": list_of(hash256),
        "suspect_absent": boolean,
    },
    PartyEvidence: {
        "vehicle": text,
        "cert_ids": _hash_set,
        "pet_tid": optional(hash256),
        "ret_tids": mapping_of(hash256),
    },
}


def _check_timeline(config: ScenarioConfig) -> None:
    """The rules that span fields: time order, known vehicle indices,
    distinct collision parties, a second party for a hit-and-run, and
    witnesses drawn from the uninvolved vehicles.
    """
    n_vehicles = len(config.vehicles)
    for i, ev in enumerate(config.timeline):
        path = f"$.timeline[{i}]"
        if i > 0 and ev.at < config.timeline[i - 1].at:
            raise ConfigError(f"{path}.at", "timeline timestamps must be non-decreasing")
        if not isinstance(ev, CollisionEvent):
            if ev.vehicle >= n_vehicles:
                raise ConfigError(f"{path}.vehicle", f"unknown vehicle index {ev.vehicle}")
            continue
        if len(set(ev.vehicles)) != len(ev.vehicles):
            raise ConfigError(f"{path}.vehicles", "indices must be distinct")
        if ev.hit_and_run and len(ev.vehicles) < 2:
            raise ConfigError(f"{path}.hit_and_run", "needs at least two involved vehicles")
        for j, vid in enumerate(ev.vehicles):
            if vid >= n_vehicles:
                raise ConfigError(f"{path}.vehicles[{j}]", f"unknown vehicle index {vid}")
        free = n_vehicles - len(ev.vehicles)
        if ev.n_witnesses > free:
            raise ConfigError(
                f"{path}.n_witnesses",
                f"wanted {ev.n_witnesses} witnesses but only {free} vehicles are uninvolved",
            )


def _check_attack(attack: Optional[AttackConfig]) -> None:
    """The per-class actor rule: a forger must be an evidence requester,
    and it takes no target kind. Any infrastructure actor may stage a
    replica attack, since each one validates a partition."""
    if attack is None or attack.attack_class is not AttackClass.FALSE_INFORMATION:
        return
    requesters = sorted(entity for entity, _, _ in _REQUESTERS)
    if attack.actor is not None and attack.actor not in requesters:
        raise ConfigError("$.attack.actor", f"a forger requests evidence: one of {requesters}, got {attack.actor!r}")
    if attack.target_kind is not None:
        raise ConfigError("$.attack.target_kind", "a forger forges evidence requests and takes no target kind")


def config_from_jsonable(data: dict) -> ScenarioConfig:
    config = _object(ScenarioConfig)(data, "$")
    _check_timeline(config)
    _check_attack(config.attack)
    return config


def case_from_jsonable(data: dict) -> CollisionCase:
    """The shape of a collision-case file; the adjudicator resolves the
    tids it names against the ledgers."""
    return _object(CollisionCase)(data, "$")


def case_params_from_jsonable(data: dict) -> AdjudicationParams:
    """The parameters a collision-case file is judged under: its
    "adjudication" object, read as a scenario config's is, with the
    config's defaults for every key it leaves out."""
    read = record({"adjudication": _SCHEMA[ScenarioConfig]["adjudication"]})
    return read(data, "$").get("adjudication", AdjudicationParams())


def _to_jsonable(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_to_jsonable(v) for v in value]
    cls = type(value)
    if cls in _SCHEMA:
        out = {"type": _EVENT_TYPE_NAMES[cls]} if cls in _EVENT_TYPE_NAMES else {}
        for key in _SCHEMA[cls]:
            out[key] = _to_jsonable(getattr(value, _FIELD_OF_KEY.get(key, key)))
        return out
    return value


def config_to_jsonable(config: ScenarioConfig) -> dict:
    return _to_jsonable(config)


def read_json(path: str):
    """The JSON value in the file at `path`; text that is not UTF-8 JSON
    raises ConfigError at `$`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError("$", f"not valid JSON: {exc}") from None


def load_config(path: str) -> ScenarioConfig:
    return config_from_jsonable(read_json(path))


# --- report -------------------------------------------------------------------

@dataclass
class ScenarioReport:
    seed: int
    b_max: int
    counts: dict
    consensus: dict
    detections: list
    verdicts: list
    reveals: list
    halted: dict
    chain: dict
    delivery: dict
    attack_scripted: Optional[str]
    attack_detected: Optional[bool]

    def to_jsonable(self) -> dict:
        return {
            "seed": self.seed,
            "b_max": self.b_max,
            "counts": self.counts,
            "consensus": self.consensus,
            "detections": self.detections,
            "verdicts": self.verdicts,
            "reveals": self.reveals,
            "halted": self.halted,
            "chain": self.chain,
            "delivery": self.delivery,
            "attack": {"scripted": self.attack_scripted, "detected": self.attack_detected},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=2) + "\n"


@dataclass
class ScenarioResult:
    report: ScenarioReport
    ledgers: dict[str, PartitionLedger]
    audit_lines: list[str]


# --- witness statements -------------------------------------------------------

@frozen
class WitnessStatement:
    """What a bystander vehicle tells the involved parties over v2v: its
    own pseudonym and the pseudonyms it observed at the scene.
    """

    witness_cert_id: Hash256 = wire(HASH)
    observed_cert_ids: tuple[Hash256, ...] = wire(items(HASH))
    note: str = wire(TEXT)


# --- engine internals ---------------------------------------------------------

def _substream(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"avledger:{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


_TERMINAL_STATES = ("committed", "rejected", "undeliverable")


@dataclass
class _Submission:
    """One transaction's journey toward one partition: the tracking token
    every engine message carries beside its data, from emission to the
    terminal bucket it ends in.
    """

    kind: TxKind
    partition: Partition
    state: str = "pending"
    on_terminal: Optional[Callable[[str, Optional[ConsensusRound]], None]] = None


@dataclass
class _VehicleActor:
    entity_id: EntityId
    spec: VehicleSpec
    base_loc: GeoPoint
    # (public key, certificate) of every pseudonym used, and the set of
    # their cert ids. The private key is dropped once the pseudonym is
    # spent: nothing signs with it again.
    cert_history: list[tuple[bytes, PseudonymCertificate]] = field(default_factory=list)
    used_cert_ids: set[Hash256] = field(default_factory=set)
    # Certified keys not yet used, next one first, each as (keys, batch,
    # leaf index), and how many keys the vehicle has used since the last
    # fleet batch.
    pool: list[tuple[KeyPair, CertificateBatch, int]] = field(default_factory=list)
    used: int = 0

    def cert_ids(self) -> frozenset[Hash256]:
        return frozenset(self.used_cert_ids)


@dataclass
class _PendingReplicaAttack:
    attack_class: AttackClass
    partition: Partition
    rogue: EntityId
    armed_at: float
    target_kind: Optional[TxKind]
    applied: bool = False


@dataclass
class _CollisionTracker:
    """One collision case. `pending` counts down the scene's PETs, then
    the evidence requests planned once the last PET has ended; the case
    is adjudicated when the last request ends."""

    case_id: str
    collision_at: float
    involved: list[EntityId]
    fleeing: Optional[EntityId]
    pending: int = 0
    pet_tids: dict[EntityId, Hash256] = field(default_factory=dict)
    witness_pet_tids: list[Hash256] = field(default_factory=list)
    # ret_tids[subject][requester] = the evidence request committed in P2
    ret_tids: dict[EntityId, dict[EntityId, Hash256]] = field(default_factory=dict)
    revealed: bool = False


P1 = Partition.OPERATIONAL
P2 = Partition.DECISIONAL

# The sender name of the cross-partition bridge: an evidence request
# committed in P1 is forwarded to P2 under this name.
BRIDGE_SENDER = "partition:P1"

# Who requests each party's evidence into the decision partition, and how
# long after the scene's last PET ended.
_REQUESTERS = (("ic-0", Role.INSURER, 5.0), ("am-0", Role.MANUFACTURER, 20.0))

# Pseudonym pools. Each vehicle holds a pool of certified keys and uses
# one per pseudonym. The CA certifies keys in fleet-wide batches: the
# first when a vehicle first needs a pseudonym, and the next at the first
# need once the batch is cert_validity_secs old. A fleet batch
# re-certifies every unused key and adds fresh keys to each pool, as many
# as the vehicle used since the batch before (POOL_START at the first),
# so no key is thrown away before the run ends. A vehicle whose pool runs
# dry between fleet batches gets a batch of one fresh key. A pool names
# each key's place in its batch, and its certificate is built when the
# vehicle uses the key. Every key's seed is drawn from rng_pseudonyms,
# which draws nothing else, through the run's checks object
# (generate_keypairs(rng_pseudonyms, n, checks)), and the engine tells it
# how many keys the next fleet batch is likely to draw (_derive_ahead), so
# that a check helper can derive them ahead, in stream order.
POOL_START = 4
# The keys a check helper is asked to derive ahead stay at least this many
# ahead of the keys used since the last fleet batch (see _derive_ahead).
KEYS_AHEAD = 8
# Every leaf's window is [batch time - _WINDOW_SLACK_SECS, batch time +
# 2 * cert_validity_secs), so any use before the next fleet batch keeps at
# least cert_validity_secs of it, and evidence stamped up to
# PET_CLOCK_OFFSET_SECS before the scene is still inside it.
_WINDOW_SLACK_SECS = 2.0


class ScenarioEngine:
    """Owns all state for one scenario run."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        seed = config.seed
        self.rng_keys = _substream(seed, "keys")
        self.rng_pseudonyms = _substream(seed, "pseudonyms")
        self.rng_net = _substream(seed, "net")
        self.rng_sim = _substream(seed, "sim")
        self.rng_payload = _substream(seed, "payload")
        self.rng_leaves = _substream(seed, "leaves")

        # fixed infrastructure actors
        self.ca_keys = generate_keypair(self.rng_keys)
        self.fixed_keys: dict[EntityId, KeyPair] = {}
        for entity in INFRASTRUCTURE_ACTORS:
            self.fixed_keys[entity] = generate_keypair(self.rng_keys)
        self.p2_shared_key = derive_shared_key(self.rng_keys)

        self.escrow = IdentityEscrow("gta-0", "la-0")
        self._batch_at: Optional[float] = None  # time of the last fleet batch
        self._fleet_keys = 0  # fresh keys it drew
        self._used = 0  # keys used since
        self._asked = 0  # keys the run's checks were last told the next one draws

        # vehicles
        self.vehicles: list[_VehicleActor] = []
        for i, spec in enumerate(config.vehicles):
            entity = f"av-{i}"
            base = GeoPoint(
                lat_deg=40.0 + self.rng_sim.uniform(-0.05, 0.05),
                lon_deg=-75.0 + self.rng_sim.uniform(-0.05, 0.05),
            )
            self.vehicles.append(_VehicleActor(entity_id=entity, spec=spec, base_loc=base))
            self.escrow.register_vehicle(entity)
        self._vehicle_of = {v.entity_id: v for v in self.vehicles}

        # genesis and replicas
        ca_root = CaRootCert(name="fleet-root-ca", public_key=self.ca_keys.public_key)
        genesis_p1 = make_genesis(
            P1,
            [ca_root],
            [
                MemberRecord("am-0", Role.MANUFACTURER, self.fixed_keys["am-0"].public_key, True, True),
                MemberRecord("st-0", Role.TECHNICIAN, self.fixed_keys["st-0"].public_key, True, True),
                MemberRecord("ic-0", Role.INSURER, self.fixed_keys["ic-0"].public_key, False, True),
            ],
            config.b_max,
        )
        genesis_p2 = make_genesis(
            P2,
            [ca_root],
            [
                MemberRecord("ic-0", Role.INSURER, self.fixed_keys["ic-0"].public_key, True, False),
                MemberRecord("am-0", Role.MANUFACTURER, self.fixed_keys["am-0"].public_key, True, False),
                MemberRecord("gta-0", Role.TRANSPORT_AUTHORITY, self.fixed_keys["gta-0"].public_key, False, True),
                MemberRecord("la-0", Role.LEGAL_AUTHORITY, self.fixed_keys["la-0"].public_key, False, True),
            ],
            config.b_max,
        )
        # Each partition's validators, in genesis order, with their replicas.
        self.replicas: dict[Partition, dict[EntityId, PartitionLedger]] = {
            genesis.partition: {v: PartitionLedger(genesis) for v in genesis.validator_ids()}
            for genesis in (genesis_p1, genesis_p2)
        }
        # How every round makes its certificate and signature checks:
        # inline, or sent to the check helpers by a run in progress.
        self._checks: Checks = InlineChecks()

        # network
        self.net = Network(
            rng=self.rng_net,
            drop_prob=config.network.drop_prob,
            retry_interval=config.network.retry_interval_secs,
            max_attempts=config.network.max_attempts,
        )
        self.net.on_dead = self._on_dead_send
        vehicle_ids = set(self._vehicle_of)
        self.net.register_endpoint(
            "P1",
            lambda payload: self._ingest(P1, *payload),
            allowed_senders=vehicle_ids | {"am-0", "st-0", "ic-0"},
        )
        self.net.register_endpoint(
            "P2",
            lambda payload: self._ingest(P2, *payload),
            allowed_senders={"ic-0", "am-0", BRIDGE_SENDER},
        )
        self.net.register_endpoint("am-0", self._maker_inbox, allowed_senders=vehicle_ids)
        for v in self.vehicles:
            self.net.register_endpoint(
                v.entity_id, partial(self._vehicle_inbox, v), allowed_senders={"am-0"}
            )

        # bookkeeping
        self.audit_lines: list[str] = []
        self.detections: list[dict] = []
        self.verdicts: list[dict] = []
        self.reveals: list[dict] = []
        self.halted: dict[Partition, bool] = {P1: False, P2: False}
        self.consensus_stats = {
            part: {"rounds": 0, "committed": 0, "rejected": 0, "diverged": 0}
            for part in (P1, P2)
        }
        self.counts = {
            part.value: {
                bucket: {kind.value: 0 for kind in TxKind}
                for bucket in ("emitted", "committed", "rejected", "undeliverable")
            }
            for part in (P1, P2)
        }
        self._replica_attack: Optional[_PendingReplicaAttack] = None
        self._update_counter = 0

    # -- small helpers ---------------------------------------------------------

    @property
    def now(self) -> float:
        return self.net.now

    def honest_replica(self, partition: Partition) -> PartitionLedger:
        # Each partition has two validators or more, so one is not the rogue.
        rogue = self._replica_attack.rogue if self._replica_attack else None
        return next(replica for v, replica in self.replicas[partition].items() if v != rogue)

    def _rotate(self, vehicle: _VehicleActor, at: float) -> tuple[KeyPair, PseudonymCertificate]:
        """The vehicle's next pseudonym, for use at `at`."""
        if self._batch_at is None or at >= self._batch_at + self.config.cert_validity_secs:
            self._issue_fleet_batch(at)
        if not vehicle.pool:
            self._certify([(vehicle, generate_keypairs(self.rng_pseudonyms, 1, self._checks)[0])], at)
            self._derive_ahead()
        keys, batch, index = vehicle.pool.pop(0)
        cert = batch[index]
        vehicle.used += 1
        self._used += 1
        if self._used + KEYS_AHEAD > self._asked:
            self._derive_ahead()
        vehicle.cert_history.append((keys.public_key, cert))
        vehicle.used_cert_ids.add(cert.cert_id)
        # The escrow learns a certificate's vehicle at first use: one never
        # used reaches no ledger, so no reveal can ask for it.
        self.escrow.record(cert.cert_id, vehicle.entity_id)
        return keys, cert

    def _issue_fleet_batch(self, at: float) -> None:
        """Re-certifies every vehicle's pool, topped up, in one batch whose
        leaves are shuffled so that no run of indexes marks one vehicle."""
        first, leaves = self._batch_at is None, []
        fresh = [POOL_START if first else vehicle.used for vehicle in self.vehicles]
        drawn = iter(generate_keypairs(self.rng_pseudonyms, sum(fresh), self._checks))
        for vehicle, n in zip(self.vehicles, fresh):
            keys = [k for k, _, _ in vehicle.pool] + list(islice(drawn, n))
            vehicle.pool.clear()
            vehicle.used = 0
            leaves += [(vehicle, k) for k in keys]
        self.rng_leaves.shuffle(leaves)
        self._certify(leaves, at)
        self._batch_at = at
        self._fleet_keys = len(self.vehicles) if first else sum(fresh)
        self._used = 0
        self._derive_ahead()

    def _derive_ahead(self) -> None:
        """Tells the run's checks how many keys the next fleet batch is
        likely to draw from rng_pseudonyms, unless the timeline ends
        before that batch is due. That batch draws a fresh key per key
        used until then: about as many as the last fleet batch drew (one
        per vehicle after the first), and at least as many as are used
        already. So the count asked for is the larger of the two, with
        2 * KEYS_AHEAD to spare on the second, and _rotate asks again
        once the keys used come within KEYS_AHEAD of it."""
        self._asked = max(self._fleet_keys, self._used + 2 * KEYS_AHEAD)
        timeline = self.config.timeline
        if timeline and self._batch_at + self.config.cert_validity_secs <= timeline[-1].at:
            self._checks.derive_ahead(self.rng_pseudonyms, self._asked)

    def _certify(self, leaves: list[tuple[_VehicleActor, KeyPair]], at: float) -> None:
        """One CA batch over the given keys, in order; each key goes to
        its vehicle's pool with its place in the batch."""
        validity = self.config.cert_validity_secs
        batch = issue_certificate(
            self.ca_keys,
            [keys.public_key for _, keys in leaves],
            at - _WINDOW_SLACK_SECS,
            _WINDOW_SLACK_SECS + 2 * validity,
            self.rng_keys,
        )
        for index, (vehicle, keys) in enumerate(leaves):
            vehicle.pool.append((keys, batch, index))

    def _capture_media(self, at: float, n: int = 2) -> TamperStoreDigest:
        hashes = tuple(hashlib.sha256(self.rng_payload.randbytes(48)).digest() for _ in range(n))
        return TamperStoreDigest(media_hashes=hashes, captured_at=at)

    def _make_esm(
        self,
        vehicle: _VehicleActor,
        trigger: EventTrigger,
        loc: Optional[GeoPoint] = None,
        speed: Optional[float] = None,
    ) -> EventSafetyMessage:
        if loc is None:
            loc = GeoPoint(
                lat_deg=vehicle.base_loc.lat_deg + self.rng_sim.uniform(-0.01, 0.01),
                lon_deg=vehicle.base_loc.lon_deg + self.rng_sim.uniform(-0.01, 0.01),
            )
        return EventSafetyMessage(
            location=loc,
            speed_mps=self.rng_sim.uniform(6.0, 32.0) if speed is None else speed,
            position=RoadPosition(
                lane=self.rng_sim.randrange(0, 4),
                heading_deg=self.rng_sim.uniform(0.0, 360.0),
            ),
            drive_mode=vehicle.spec.drive_mode,
            trigger=trigger,
        )

    def _jittered_loc(self, center: GeoPoint) -> GeoPoint:
        # Radial offset of at most ~40 m keeps any two participants well
        # inside the 100 m pairwise consistency tolerance.
        r = self.rng_sim.uniform(0.0, 40.0)
        theta = self.rng_sim.uniform(0.0, 2.0 * math.pi)
        dlat = (r * math.cos(theta)) / 111320.0
        dlon = (r * math.sin(theta)) / (111320.0 * math.cos(math.radians(center.lat_deg)))
        return GeoPoint(lat_deg=center.lat_deg + dlat, lon_deg=center.lon_deg + dlon)

    # -- submission pipeline ---------------------------------------------------

    def _track(
        self,
        kind: TxKind,
        partition: Partition,
        on_terminal: Optional[Callable[[str, Optional[ConsensusRound]], None]] = None,
    ) -> _Submission:
        """Counts one emission and returns its tracking token. The token
        rides along every message of the flow (the multi-hop update flow
        carries it through the vehicle and the maker) until `_finish`
        puts it in exactly one terminal bucket.
        """
        self.counts[partition.value]["emitted"][kind.value] += 1
        return _Submission(kind=kind, partition=partition, on_terminal=on_terminal)

    def _send(self, sender: EntityId, dest: str, sub: _Submission, data: object) -> None:
        self.net.send_with_retry(sender, dest, (sub, data))

    def _finish(self, sub: _Submission, state: str, round_: Optional[ConsensusRound]) -> None:
        assert state in _TERMINAL_STATES and sub.state == "pending", (sub, state)
        sub.state = state
        self.counts[sub.partition.value][state][sub.kind.value] += 1
        if sub.on_terminal:
            sub.on_terminal(state, round_)

    def _on_dead_send(self, payload: tuple[_Submission, object]) -> None:
        # Any message of a flow can die: an update instruction that never
        # reached its vehicle still ends its planned emission here.
        self._finish(payload[0], "undeliverable", None)

    # -- consensus ingest --------------------------------------------------------

    def _ingest(self, partition: Partition, sub: _Submission, tx: Transaction) -> None:
        if self.halted[partition]:
            # the partition stopped committing after divergence; the
            # submission terminates without a round
            self.audit_lines.append(audit_line(self.now, partition, tx.tid, SKIPPED_HALTED, {}))
            self._finish(sub, "rejected", None)
            return

        self._maybe_apply_replica_attack(partition)

        round_ = run_consensus(
            tx,
            self.replicas[partition],
            self.now,
            self._checks,
        )
        self.audit_lines.append(
            audit_line(round_.at, round_.partition, round_.tid, round_.outcome, round_.votes)
        )
        stats = self.consensus_stats[partition]
        stats["rounds"] += 1

        if round_.outcome is RoundOutcome.COMMITTED:
            stats["committed"] += 1
            self._finish(sub, "committed", round_)
        elif round_.outcome is RoundOutcome.REJECTED:
            stats["rejected"] += 1
            self._finish(sub, "rejected", round_)
        else:
            stats["diverged"] += 1
            self.halted[partition] = True
            try:
                attributed = list(detect_tamper(round_))
            except Unattributable:
                attributed = []
            scripted = (
                self.config.attack.attack_class.value
                if self.config.attack is not None
                else "Unscripted"
            )
            self.detections.append(
                {
                    "attack_class": scripted,
                    "kind": "diverged_round",
                    "partition": partition.value,
                    "round_tid": tx.tid.hex(),
                    "at": self.now,
                    "attributed": attributed,
                }
            )
            self._finish(sub, "rejected", round_)

    # -- replica attacks ---------------------------------------------------------

    def _maybe_apply_replica_attack(self, partition: Partition) -> None:
        attack = self._replica_attack
        if (
            attack is None
            or attack.applied
            or attack.partition is not partition
            or self.now < attack.armed_at
        ):
            return
        replica = self.replicas[partition][attack.rogue]
        candidates = replica.open_transactions()
        if attack.target_kind is not None:
            matches = [t for t in candidates if t.kind is attack.target_kind]
        else:
            matches = list(candidates)
        if not matches:
            return  # stay armed until the open block holds a target
        victim = matches[-1]
        replica.remove_open(victim.tid)
        attack.applied = True
        log.info(
            "%s applied by %s on %s: removed %s",
            attack.attack_class.value,
            attack.rogue,
            partition.value,
            victim.tid.hex()[:16],
        )

    # -- endpoint handlers -------------------------------------------------------

    def _vehicle_inbox(self, vehicle: _VehicleActor, payload: tuple) -> None:
        sub, (update_hash, metadata) = payload
        at = self.now
        keys, cert = self._rotate(vehicle, at)
        body = UpdateBody(update_file_hash=update_hash, metadata=metadata, submitted_at=at)
        tx = build_transaction(
            TxKind.UPDATE,
            body,
            self.fixed_keys["am-0"],
            cert=cert,
            signer_role=Role.MANUFACTURER,
        )
        tx = countersign(tx, keys, Role.VEHICLE)
        self._send(vehicle.entity_id, "am-0", sub, tx)

    def _maker_inbox(self, payload: tuple[_Submission, Transaction]) -> None:
        sub, tx = payload
        self._send("am-0", "P1", sub, tx)

    def _submit_exec_report(self, vid: int, parent_tid: Hash256, status: ExecStatus) -> None:
        vehicle = self.vehicles[vid]
        at = self.now
        keys, cert = self._rotate(vehicle, at)
        body = ExecReportBody(exec_status=status, submitted_at=at)
        tx = build_transaction(
            TxKind.EXECUTION, body, keys, cert=cert, parent_tid=parent_tid
        )
        self._send(vehicle.entity_id, "P1", self._track(tx.kind, P1), tx)

    # -- timeline events ---------------------------------------------------------

    def trigger_event_safety(self, ev: SafetyEvent) -> None:
        """A vehicle hits a reportable road condition and files an EST
        under a freshly rotated pseudonym.
        """
        vehicle = self.vehicles[ev.vehicle]
        at = self.now
        keys, cert = self._rotate(vehicle, at)
        esm = self._make_esm(vehicle, ev.trigger)
        body = EventSafetyBody(ts=at, esm=esm, ts_data=self._capture_media(at))
        tx = build_transaction(TxKind.EVENT_SAFETY, body, keys, cert=cert)
        self._send(vehicle.entity_id, "P1", self._track(tx.kind, P1), tx)

    def _run_maintenance_event(self, ev: MaintenanceEvent) -> None:
        vehicle = self.vehicles[ev.vehicle]
        at = self.now
        _keys, cert = self._rotate(vehicle, at)
        body = MaintenanceBody(
            report_hash=hashlib.sha256(self.rng_payload.randbytes(64)).digest(),
            roadworthy=ev.roadworthy,
            technician="st-0",
            submitted_at=at,
        )
        tx = build_transaction(
            TxKind.MAINTENANCE,
            body,
            self.fixed_keys["st-0"],
            cert=cert,
            signer_role=Role.TECHNICIAN,
        )
        self._send("st-0", "P1", self._track(tx.kind, P1), tx)

    def _run_update_event(self, ev: UpdateEvent) -> None:
        """The maker sends an update to a vehicle, which countersigns the
        UT and hands it back for submission. One token carries the UT
        through all three hops; once the UT commits, the vehicle's
        execution report (if any) follows after `exec_delay_secs`.
        """
        self._update_counter += 1
        update_hash = hashlib.sha256(self.rng_payload.randbytes(96)).digest()
        metadata = f"update-{self._update_counter}"

        def ut_terminal(state: str, round_: Optional[ConsensusRound]) -> None:
            if state != "committed" or ev.execution == "none":
                return
            status = ExecStatus.EXECUTED if ev.execution == "executed" else ExecStatus.FAILED
            self.net.schedule(
                self.now + ev.exec_delay_secs,
                lambda: self._submit_exec_report(ev.vehicle, round_.tid, status),
            )

        sub = self._track(TxKind.UPDATE, P1, ut_terminal)
        self._send("am-0", self.vehicles[ev.vehicle].entity_id, sub, (update_hash, metadata))

    def stage_collision(self, ev: CollisionEvent, case_index: int) -> None:
        """The full accident flow: fresh pseudonyms at the scene, witness
        statements sealed to the settlement authorities, one PET per
        present participant, then staggered evidence requests.
        """
        at = self.now
        involved_ids = [self.vehicles[i].entity_id for i in ev.vehicles]
        fleeing: Optional[EntityId] = involved_ids[-1] if ev.hit_and_run else None
        uninvolved = [i for i in range(len(self.vehicles)) if i not in ev.vehicles]
        witness_ids = [self.vehicles[i].entity_id for i in uninvolved[: ev.n_witnesses]]

        center = GeoPoint(
            lat_deg=self.vehicles[ev.vehicles[0]].base_loc.lat_deg + self.rng_sim.uniform(-0.01, 0.01),
            lon_deg=self.vehicles[ev.vehicles[0]].base_loc.lon_deg + self.rng_sim.uniform(-0.01, 0.01),
        )

        # Everyone at the scene rotates to a fresh pseudonym. Its window
        # opens _WINDOW_SLACK_SECS before its batch, so evidence timestamps
        # with negative clock jitter still fall inside it.
        participants = ev.vehicles + tuple(uninvolved[: ev.n_witnesses])
        certs: dict[EntityId, Hash256] = {}
        creds: dict[EntityId, tuple[KeyPair, PseudonymCertificate]] = {}
        for vid in participants:
            vu = self.vehicles[vid]
            keys, cert = self._rotate(vu, at)
            certs[vu.entity_id] = cert.cert_id
            creds[vu.entity_id] = (keys, cert)

        observed = tuple(certs[e] for e in involved_ids)
        statements = []
        for w_entity in witness_ids:
            stmt = WitnessStatement(
                witness_cert_id=certs[w_entity],
                observed_cert_ids=observed,
                note=f"seen at case-{case_index}",
            )
            statements.append(
                seal_to_key(self.p2_shared_key, encode(stmt), self.rng_payload)
            )
        enc_witness = tuple(statements)

        tracker = _CollisionTracker(
            case_id=f"case-{case_index}",
            collision_at=at,
            involved=involved_ids,
            fleeing=fleeing,
        )

        def pet_terminal(entity: EntityId, is_witness: bool):
            def hook(state: str, round_: Optional[ConsensusRound]) -> None:
                if state == "committed":
                    if is_witness:
                        tracker.witness_pet_tids.append(round_.tid)
                    else:
                        tracker.pet_tids[entity] = round_.tid
                tracker.pending -= 1
                if not tracker.pending:
                    self._request_evidence(tracker)

            return hook

        # Build every PET before submitting any, so the countdown holds
        # the whole batch before the first PET can end. Involved parties
        # come first (the runaway submits nothing), then the witnesses,
        # who carry no sealed statements and drive slower. A hit-and-run
        # has a second party, so every scene files at least one PET.
        scene = [(e, False) for e in involved_ids if e != fleeing]
        scene += [(w, True) for w in witness_ids]
        pending: list[tuple[EntityId, bool, Transaction]] = []
        for entity, is_witness in scene:
            keys, cert = creds[entity]
            loc = self._jittered_loc(center)
            ts = at + self.rng_sim.uniform(-PET_CLOCK_OFFSET_SECS, PET_CLOCK_OFFSET_SECS)
            low, high = (0.0, 20.0) if is_witness else (4.0, 26.0)
            hv = self._make_esm(
                self._vehicle_of[entity],
                EventTrigger.HARD_BRAKE,
                loc=loc,
                speed=self.rng_sim.uniform(low, high),
            )
            edata = EvidenceData.make(
                loc=loc,
                ts=ts,
                hv_data=hv,
                ts_data=self._capture_media(ts),
                enc_witness=() if is_witness else enc_witness,
            )
            body = CollisionEvidenceBody(edata=edata, ts_data=self._capture_media(ts, n=1))
            tx = build_transaction(TxKind.COLLISION_EVIDENCE, body, keys, cert=cert)
            pending.append((entity, is_witness, tx))

        tracker.pending = len(pending)
        for entity, is_witness, tx in pending:
            self._send(entity, "P1", self._track(tx.kind, P1, pet_terminal(entity, is_witness)), tx)

    # -- evidence requests -------------------------------------------------------

    def _request_evidence(self, tracker: _CollisionTracker) -> None:
        """Plans each requester's evidence request for every involved party
        whose PET committed, once the scene's last PET has ended. With none
        committed there is nothing to request and no case to adjudicate.
        """
        attack = self.config.attack
        forge = attack is not None and attack.attack_class is AttackClass.FALSE_INFORMATION
        forger = (attack.actor or "am-0") if forge else None
        subjects = [entity for entity in tracker.involved if entity in tracker.pet_tids]
        tracker.pending = len(_REQUESTERS) * len(subjects)
        base = self.now
        for requester, role, offset in _REQUESTERS:
            # A forger forges only the requests it builds once the attack is armed.
            forged = requester == forger and base + offset >= attack.at
            for subject in subjects:
                submit = self._make_request_submitter(tracker, requester, role, subject, forged)
                self.net.schedule(base + offset, submit)

    def _make_request_submitter(
        self,
        tracker: _CollisionTracker,
        requester_entity: EntityId,
        requester_role: Role,
        subject: EntityId,
        forged: bool,
    ) -> Callable[[], None]:
        def settle() -> None:
            tracker.pending -= 1
            if not tracker.pending:
                self._adjudicate_case(tracker)

        def submit() -> None:
            if self.halted[P1]:
                settle()  # the partition stopped; no request
                return
            pet = self.honest_replica(P1).find(tracker.pet_tids[subject])
            edata = pet.body.edata
            if forged:
                edata = inject_false_information(edata)
            body = EvidenceRequestBody(
                edata=edata,
                requester=requester_role,
                submitted_at=self.now,
            )
            tx = build_transaction(
                TxKind.EVIDENCE_REQUEST,
                body,
                self.fixed_keys[requester_entity],
                cert=pet.cert,
                signer_role=requester_role,
            )

            def p2_terminal(state: str, round_: Optional[ConsensusRound]) -> None:
                if state == "committed":
                    tracker.ret_tids.setdefault(subject, {})[requester_entity] = tx.tid
                    self._maybe_reveal(tracker, tx)
                settle()

            def p1_terminal(state: str, round_: Optional[ConsensusRound]) -> None:
                # a committed request crosses the bridge to the decision
                # partition as a second emission
                if state == "committed":
                    self._send(BRIDGE_SENDER, "P2", self._track(tx.kind, P2, p2_terminal), tx)
                else:
                    settle()

            self._send(requester_entity, "P1", self._track(tx.kind, P1, p1_terminal), tx)

        return submit

    # -- reveal and adjudication ---------------------------------------------------

    def _maybe_reveal(self, tracker: _CollisionTracker, ret: Transaction) -> None:
        if tracker.fleeing is None or tracker.revealed:
            return
        honest_p1 = self.honest_replica(P1)
        for sealed in ret.body.edata.enc_witness:
            stmt = decode(WitnessStatement, open_sealed(self.p2_shared_key, sealed))
            for cert_id in stmt.observed_cert_ids:
                has_pet = bool(
                    honest_p1.query(kind=TxKind.COLLISION_EVIDENCE, cert_id=cert_id)
                )
                if not has_pet:
                    entity = self.escrow.reveal_identity(cert_id, {"gta-0", "la-0"})
                    tracker.revealed = True
                    self.reveals.append(
                        {
                            "case_id": tracker.case_id,
                            "cert_id": cert_id.hex(),
                            "entity": entity,
                            "at": self.now,
                        }
                    )
                    return

    def _adjudicate_case(self, tracker: _CollisionTracker) -> None:
        parties = tuple(
            PartyEvidence(
                vehicle=entity,
                cert_ids=self._vehicle_of[entity].cert_ids(),
                pet_tid=tracker.pet_tids.get(entity),
                ret_tids=tracker.ret_tids.get(entity, {}),
            )
            for entity in tracker.involved
        )
        case = CollisionCase(
            case_id=tracker.case_id,
            collision_at=tracker.collision_at,
            parties=parties,
            maker="am-0",
            witness_pet_tids=tuple(tracker.witness_pet_tids),
            suspect_absent=tracker.fleeing is not None,
        )
        # Every tid in the case is committed on the honest replicas.
        verdict = adjudicate(
            case, self.honest_replica(P1), self.honest_replica(P2), self.config.adjudication, at=self.now
        )
        self.verdicts.append(verdict.to_jsonable())
        if VerdictFlag.FALSE_INFO in verdict.flags:
            self.detections.append(
                {
                    "attack_class": AttackClass.FALSE_INFORMATION.value,
                    "kind": "forged_evidence",
                    "partition": P2.value,
                    "case_id": tracker.case_id,
                    "at": self.now,
                    "attributed": list(verdict.forgers),
                    "forged_ret_tids": [
                        tid.hex()
                        for subject in sorted(tracker.ret_tids)
                        for requester, tid in sorted(tracker.ret_tids[subject].items())
                        if requester in verdict.forgers
                    ],
                }
            )

    # -- main loop -----------------------------------------------------------------

    def run(self) -> ScenarioResult:
        """Runs the scenario until the network is quiet.

        Where the process has check helpers (forks.helpers; they are
        forked at the first call that wants them and serve every later
        one), run sends every certificate and signature check of every
        round to them through an identity.SentChecks, and each round is
        judged as if they held. The same object is the run's key source:
        given a copy of rng_pseudonyms and told as the run goes how many
        seeds the next fleet batch will draw (_derive_ahead), the first
        helper derives, in the time its checks leave it, the public keys
        of those seeds in stream order, and the engine takes each key
        from there when its seed is exactly one it drew, never waiting
        for one. Before run returns or raises, it waits for
        every helper to confirm the checks it was sent; a wrong public
        key fails the check of a signature made under it. If a check
        failed there, or a helper died, the run is thrown away, whether
        it returned or raised an Exception: the engine is rebuilt in
        place from its config and the scenario runs again with every
        check inline and every key derived here. So the result, the
        engine's state and any exception are those of the inline path;
        only the replay logs again the run's one log.info line (a replica
        attack being applied). A
        KeyboardInterrupt or SystemExit propagates once the acks are in,
        with no replay.
        """
        sent = SentChecks.open()
        if sent is None:
            return self._play()
        inline, self._checks = self._checks, sent
        if self._batch_at is None:
            # The first fleet batch draws the stream's first seeds.
            sent.derive_ahead(self.rng_pseudonyms, POOL_START * len(self.vehicles))
        try:
            result = self._play()
        except Exception:
            if sent.close():
                raise
        finally:
            self._checks = inline
            held = sent.close()
        if held:
            return result
        self.__init__(self.config)
        return self._play()

    def _play(self) -> ScenarioResult:
        config = self.config
        case_index = 0
        for ev in sorted(config.timeline, key=lambda e: e.at):
            if isinstance(ev, SafetyEvent):
                self.net.schedule(ev.at, lambda ev=ev: self.trigger_event_safety(ev))
            elif isinstance(ev, UpdateEvent):
                self.net.schedule(ev.at, lambda ev=ev: self._run_update_event(ev))
            elif isinstance(ev, MaintenanceEvent):
                self.net.schedule(ev.at, lambda ev=ev: self._run_maintenance_event(ev))
            else:
                self.net.schedule(
                    ev.at, lambda ev=ev, ci=case_index: self.stage_collision(ev, ci)
                )
                case_index += 1

        attack = config.attack
        if attack is not None and attack.attack_class in (
            AttackClass.TAMPER_CBLOCK,
            AttackClass.SUPPRESS_EVIDENCE,
        ):
            rogue = attack.actor or (
                "am-0" if attack.attack_class is AttackClass.TAMPER_CBLOCK else "ic-0"
            )
            # Every infrastructure actor validates exactly one partition.
            partition = P1 if rogue in self.replicas[P1] else P2
            target_kind = attack.target_kind
            if target_kind is None and attack.attack_class is AttackClass.SUPPRESS_EVIDENCE:
                target_kind = (
                    TxKind.COLLISION_EVIDENCE if partition is P1 else TxKind.EVIDENCE_REQUEST
                )
            self._replica_attack = _PendingReplicaAttack(
                attack_class=attack.attack_class,
                partition=partition,
                rogue=rogue,
                armed_at=attack.at,
                target_kind=target_kind,
            )

        self.net.run_until_quiet()
        return ScenarioResult(
            report=self._build_report(),
            ledgers={
                P1.value: self.honest_replica(P1),
                P2.value: self.honest_replica(P2),
            },
            audit_lines=list(self.audit_lines),
        )

    # -- report --------------------------------------------------------------------

    def _attack_detected(self) -> Optional[bool]:
        attack = self.config.attack
        if attack is None:
            return None
        cls = attack.attack_class
        if cls is AttackClass.FALSE_INFORMATION:
            return any(d.get("kind") == "forged_evidence" for d in self.detections)
        assert self._replica_attack is not None
        partition = self._replica_attack.partition.value
        rogue = self._replica_attack.rogue
        for d in self.detections:
            if d.get("kind") != "diverged_round" or d.get("partition") != partition:
                continue
            if cls is AttackClass.TAMPER_CBLOCK:
                if rogue in d.get("attributed", []):
                    return True
            else:
                return True
        return False

    def _build_report(self) -> ScenarioReport:
        chain = {}
        for part in (P1, P2):
            replica = self.honest_replica(part)
            chain[part.value] = {
                "blocks": len(replica.block_ids()),
                "open_tx": len(replica.open_transactions()),
                "tx_total": len(replica.tid_index),
                "cblock_id": replica.cblock_id.hex(),
            }
        attack = self.config.attack
        return ScenarioReport(
            seed=self.config.seed,
            b_max=self.config.b_max,
            counts=self.counts,
            consensus={
                part.value: dict(stats) for part, stats in self.consensus_stats.items()
            },
            detections=list(self.detections),
            verdicts=list(self.verdicts),
            reveals=list(self.reveals),
            halted={part.value: flag for part, flag in self.halted.items()},
            chain=chain,
            delivery={
                "sends": self.net.sends,
                "delivered": self.net.delivered,
                "undeliverable": self.net.undeliverable,
                "refused": self.net.refused,
            },
            attack_scripted=attack.attack_class.value if attack else None,
            attack_detected=self._attack_detected(),
        )


# --- canned configurations ----------------------------------------------------

def make_benign_config(seed: int, n_vehicles: int = 3) -> ScenarioConfig:
    """A deterministic everyday timeline: telemetry, an update round, a
    maintenance visit, and one collision with a witness. Seed-varied but
    attack-free.
    """
    rng = random.Random(seed * 2654435761 % 2**32)
    vehicles = tuple(
        VehicleSpec(
            drive_mode=DriveMode.AUTONOMOUS if rng.random() < 0.8 else DriveMode.MANUAL
        )
        for _ in range(n_vehicles)
    )
    triggers = [EventTrigger.WRONG_WAY, EventTrigger.SLIPPERY_ROAD, EventTrigger.HARD_BRAKE]
    timeline: list[TimelineEvent] = []
    t = 50.0
    for i in range(rng.randint(3, 5)):
        timeline.append(
            SafetyEvent(at=t, vehicle=rng.randrange(n_vehicles), trigger=triggers[i % 3])
        )
        t += rng.uniform(40.0, 120.0)
    timeline.append(
        UpdateEvent(
            at=t,
            vehicle=rng.randrange(n_vehicles),
            execution="executed",
            exec_delay_secs=rng.uniform(60.0, 240.0),
        )
    )
    t += rng.uniform(100.0, 200.0)
    if rng.random() < 0.5:
        timeline.append(MaintenanceEvent(at=t, vehicle=rng.randrange(n_vehicles), roadworthy=True))
        t += rng.uniform(60.0, 120.0)
    first, second = rng.sample(range(n_vehicles), 2)
    hit_and_run = rng.random() < 0.15
    timeline.append(
        CollisionEvent(
            at=t + rng.uniform(100.0, 300.0),
            vehicles=(first, second),
            n_witnesses=1 if n_vehicles > 2 else 0,
            hit_and_run=hit_and_run,
        )
    )
    drop = [0.0, 0.1, 0.3][seed % 3]
    return ScenarioConfig(
        seed=seed,
        vehicles=vehicles,
        timeline=tuple(timeline),
        network=NetworkConfig(drop_prob=drop),
    )


def make_attack_config(seed: int, attack_class: AttackClass) -> ScenarioConfig:
    """The benign timeline plus one scripted attack, tuned so the attack
    window always has traffic behind it.
    """
    base = make_benign_config(seed, n_vehicles=3)
    # attacks ride on a fully witnessed two-vehicle collision
    timeline = tuple(
        ev if not isinstance(ev, CollisionEvent) else replace(ev, hit_and_run=False)
        for ev in base.timeline
    )
    collision_at = max(ev.at for ev in timeline if isinstance(ev, CollisionEvent))
    first_at = min(ev.at for ev in timeline)
    if attack_class is AttackClass.TAMPER_CBLOCK:
        attack = AttackConfig(
            attack_class=attack_class,
            at=(first_at + collision_at) / 2.0,
            actor="am-0",
        )
    elif attack_class is AttackClass.SUPPRESS_EVIDENCE:
        attack = AttackConfig(
            attack_class=attack_class,
            at=collision_at - 1.0,
            actor="ic-0",
            target_kind=TxKind.COLLISION_EVIDENCE,
        )
    else:
        attack = AttackConfig(attack_class=attack_class, at=collision_at, actor="am-0")
    return replace(
        base,
        timeline=timeline,
        attack=attack,
        network=NetworkConfig(drop_prob=[0.0, 0.1][seed % 2]),
    )
