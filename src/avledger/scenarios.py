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
the submitted copy fails the cross-check against the committed original.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
import json
import logging
import math
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Union

from .adjudicator import (
    AdjudicationParams,
    CollisionCase,
    PartyEvidence,
    VerdictFlag,
    adjudicate,
)
from .encoding import Reader, Writer
from .errors import ConfigError, MalformedCase, Unattributable
from .identity import (
    DEFAULT_CERT_VALIDITY_SECS,
    EntityId,
    IdentityEscrow,
    KeyPair,
    derive_shared_key,
    generate_keypair,
    open_sealed,
    rotate_pseudonym,
    seal_to_key,
)
from .ledger import (
    CaRootCert,
    DEFAULT_B_MAX,
    GenesisBlock,
    MemberRecord,
    PartitionLedger,
    est_history,
    make_genesis,
)
from .netsim import (
    BRIDGE_SENDER,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_RETRY_INTERVAL_SECS,
    DeliveryRecord,
    Envelope,
    Network,
    forward_evidence_request,
)
from .txmodel import (
    BlobStore,
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
    ConsensusRound,
    RoundOutcome,
    audit_record,
    detect_tamper,
    run_consensus,
)

log = logging.getLogger(__name__)

KIND_CODES = [k.value for k in TxKind]


class AttackClass(str, enum.Enum):
    TAMPER_CBLOCK = "TamperCBlock"
    FALSE_INFORMATION = "FalseInformation"
    SUPPRESS_EVIDENCE = "SuppressEvidence"


# --- replica attacks ----------------------------------------------------------

def tamper_cblock(replica: PartitionLedger, target_tid: Hash256) -> None:
    """Deletes a transaction from the replica's open block and re-derives
    the local fold trail, the way an attacker covering tracks would.
    """
    replica.remove_open(target_tid)


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

@dataclass(frozen=True)
class NetworkConfig:
    drop_prob: float = 0.0
    retry_interval_secs: float = DEFAULT_RETRY_INTERVAL_SECS
    max_attempts: int = DEFAULT_MAX_ATTEMPTS


@dataclass(frozen=True)
class VehicleSpec:
    drive_mode: DriveMode = DriveMode.AUTONOMOUS


@dataclass(frozen=True)
class SafetyEvent:
    at: float
    vehicle: int
    trigger: EventTrigger


@dataclass(frozen=True)
class UpdateEvent:
    at: float
    vehicle: int
    execution: str = "executed"  # executed | failed | none
    exec_delay_secs: float = 600.0


@dataclass(frozen=True)
class MaintenanceEvent:
    at: float
    vehicle: int
    roadworthy: bool = True


@dataclass(frozen=True)
class CollisionEvent:
    at: float
    vehicles: tuple[int, ...]
    n_witnesses: int = 0
    hit_and_run: bool = False


TimelineEvent = Union[SafetyEvent, UpdateEvent, MaintenanceEvent, CollisionEvent]


@dataclass(frozen=True)
class AttackConfig:
    attack_class: AttackClass
    at: float = 0.0
    actor: Optional[EntityId] = None
    target_kind: Optional[TxKind] = None


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    vehicles: tuple[VehicleSpec, ...]
    timeline: tuple[TimelineEvent, ...]
    b_max: int = DEFAULT_B_MAX
    cert_validity_secs: float = DEFAULT_CERT_VALIDITY_SECS
    network: NetworkConfig = NetworkConfig()
    adjudication: AdjudicationParams = AdjudicationParams()
    attack: Optional[AttackConfig] = None


_TRIGGERS = {t.value: t for t in EventTrigger}
_MODES = {m.value: m for m in DriveMode}
_ATTACKS = {a.value: a for a in AttackClass}
_KINDS = {k.value: k for k in TxKind}
_EXECUTIONS = ("executed", "failed", "none")


def _need(obj: dict, key: str, path: str):
    if key not in obj:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return obj[key]


def _num(value, path: str, minimum: Optional[float] = None) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return float(value)


def _int(value, path: str, minimum: Optional[int] = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def config_from_jsonable(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("$", "scenario config must be a JSON object")
    seed = _int(_need(data, "seed", "$"), "$.seed", minimum=0)
    b_max = _int(data.get("b_max", DEFAULT_B_MAX), "$.b_max", minimum=1)
    cert_validity = _num(
        data.get("cert_validity_secs", DEFAULT_CERT_VALIDITY_SECS),
        "$.cert_validity_secs",
        minimum=1e-9,
    )

    net_raw = data.get("network", {})
    if not isinstance(net_raw, dict):
        raise ConfigError("$.network", "expected an object")
    drop = _num(net_raw.get("drop_prob", 0.0), "$.network.drop_prob", minimum=0.0)
    if drop >= 1.0:
        raise ConfigError("$.network.drop_prob", f"must be < 1, got {drop}")
    network = NetworkConfig(
        drop_prob=drop,
        retry_interval_secs=_num(
            net_raw.get("retry_interval_secs", DEFAULT_RETRY_INTERVAL_SECS),
            "$.network.retry_interval_secs",
            minimum=0.0,
        ),
        max_attempts=_int(
            net_raw.get("max_attempts", DEFAULT_MAX_ATTEMPTS),
            "$.network.max_attempts",
            minimum=1,
        ),
    )

    vehicles_raw = data.get("vehicles", 1)
    specs: list[VehicleSpec] = []
    if isinstance(vehicles_raw, int) and not isinstance(vehicles_raw, bool):
        if vehicles_raw < 1:
            raise ConfigError("$.vehicles", "need at least one vehicle")
        specs = [VehicleSpec() for _ in range(vehicles_raw)]
    elif isinstance(vehicles_raw, list):
        if not vehicles_raw:
            raise ConfigError("$.vehicles", "need at least one vehicle")
        for i, item in enumerate(vehicles_raw):
            if not isinstance(item, dict):
                raise ConfigError(f"$.vehicles[{i}]", "expected an object")
            mode_raw = item.get("drive_mode", "autonomous")
            if mode_raw not in _MODES:
                raise ConfigError(
                    f"$.vehicles[{i}].drive_mode",
                    f"expected one of {sorted(_MODES)}, got {mode_raw!r}",
                )
            specs.append(VehicleSpec(drive_mode=_MODES[mode_raw]))
    else:
        raise ConfigError("$.vehicles", "expected a count or a list of vehicle objects")

    timeline_raw = data.get("timeline", [])
    if not isinstance(timeline_raw, list):
        raise ConfigError("$.timeline", "expected a list")
    events: list[TimelineEvent] = []
    for i, item in enumerate(timeline_raw):
        path = f"$.timeline[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(path, "expected an object")
        etype = _need(item, "type", path)
        at = _num(_need(item, "at", path), f"{path}.at", minimum=0.0)
        if etype == "event_safety":
            vid = _int(_need(item, "vehicle", path), f"{path}.vehicle", minimum=0)
            trig_raw = item.get("trigger", "hard_brake")
            if trig_raw not in _TRIGGERS:
                raise ConfigError(f"{path}.trigger", f"expected one of {sorted(_TRIGGERS)}")
            events.append(SafetyEvent(at=at, vehicle=vid, trigger=_TRIGGERS[trig_raw]))
        elif etype == "update":
            vid = _int(_need(item, "vehicle", path), f"{path}.vehicle", minimum=0)
            execution = item.get("execution", "executed")
            if execution not in _EXECUTIONS:
                raise ConfigError(f"{path}.execution", f"expected one of {_EXECUTIONS}")
            events.append(
                UpdateEvent(
                    at=at,
                    vehicle=vid,
                    execution=execution,
                    exec_delay_secs=_num(
                        item.get("exec_delay_secs", 600.0), f"{path}.exec_delay_secs", minimum=0.0
                    ),
                )
            )
        elif etype == "maintenance":
            vid = _int(_need(item, "vehicle", path), f"{path}.vehicle", minimum=0)
            roadworthy = item.get("roadworthy", True)
            if not isinstance(roadworthy, bool):
                raise ConfigError(f"{path}.roadworthy", "expected a boolean")
            events.append(MaintenanceEvent(at=at, vehicle=vid, roadworthy=roadworthy))
        elif etype == "collision":
            involved_raw = _need(item, "vehicles", path)
            if not isinstance(involved_raw, list) or not involved_raw:
                raise ConfigError(f"{path}.vehicles", "expected a non-empty list of indices")
            involved = tuple(
                _int(v, f"{path}.vehicles[{j}]", minimum=0) for j, v in enumerate(involved_raw)
            )
            if len(set(involved)) != len(involved):
                raise ConfigError(f"{path}.vehicles", "indices must be distinct")
            n_wit = _int(item.get("n_witnesses", 0), f"{path}.n_witnesses", minimum=0)
            hit_and_run = item.get("hit_and_run", False)
            if not isinstance(hit_and_run, bool):
                raise ConfigError(f"{path}.hit_and_run", "expected a boolean")
            if hit_and_run and len(involved) < 2:
                raise ConfigError(f"{path}.hit_and_run", "needs at least two involved vehicles")
            events.append(
                CollisionEvent(at=at, vehicles=involved, n_witnesses=n_wit, hit_and_run=hit_and_run)
            )
        else:
            raise ConfigError(f"{path}.type", f"unknown event type {etype!r}")

    # index and ordering checks
    n_vehicles = len(specs)
    for i, ev in enumerate(events):
        path = f"$.timeline[{i}]"
        if i > 0 and ev.at < events[i - 1].at:
            raise ConfigError(f"{path}.at", "timeline timestamps must be non-decreasing")
        if isinstance(ev, (SafetyEvent, UpdateEvent, MaintenanceEvent)):
            if ev.vehicle >= n_vehicles:
                raise ConfigError(f"{path}.vehicle", f"unknown vehicle index {ev.vehicle}")
        else:
            for j, vid in enumerate(ev.vehicles):
                if vid >= n_vehicles:
                    raise ConfigError(f"{path}.vehicles[{j}]", f"unknown vehicle index {vid}")
            free = n_vehicles - len(ev.vehicles)
            if ev.n_witnesses > free:
                raise ConfigError(
                    f"{path}.n_witnesses",
                    f"wanted {ev.n_witnesses} witnesses but only {free} vehicles are uninvolved",
                )

    attack_raw = data.get("attack")
    attack: Optional[AttackConfig] = None
    if attack_raw is not None:
        if not isinstance(attack_raw, dict):
            raise ConfigError("$.attack", "expected an object or null")
        cls_raw = _need(attack_raw, "class", "$.attack")
        if cls_raw not in _ATTACKS:
            raise ConfigError("$.attack.class", f"expected one of {sorted(_ATTACKS)}")
        target_kind = None
        if "target_kind" in attack_raw and attack_raw["target_kind"] is not None:
            tk = attack_raw["target_kind"]
            if tk not in _KINDS:
                raise ConfigError("$.attack.target_kind", f"expected one of {KIND_CODES}")
            target_kind = _KINDS[tk]
        actor = attack_raw.get("actor")
        if actor is not None and not isinstance(actor, str):
            raise ConfigError("$.attack.actor", "expected an entity id string")
        if actor is not None and actor not in INFRASTRUCTURE_ACTORS:
            raise ConfigError(
                "$.attack.actor",
                f"unknown actor {actor!r}, expected one of {sorted(INFRASTRUCTURE_ACTORS)}",
            )
        attack = AttackConfig(
            attack_class=_ATTACKS[cls_raw],
            at=_num(attack_raw.get("at", 0.0), "$.attack.at", minimum=0.0),
            actor=actor,
            target_kind=target_kind,
        )

    adj_raw = data.get("adjudication", {})
    if not isinstance(adj_raw, dict):
        raise ConfigError("$.adjudication", "expected an object")
    defaults = AdjudicationParams()
    adjudication = AdjudicationParams(
        negligence_deadline_secs=_num(
            adj_raw.get("negligence_deadline_secs", defaults.negligence_deadline_secs),
            "$.adjudication.negligence_deadline_secs",
            minimum=0.0,
        ),
        maintenance_window_secs=_num(
            adj_raw.get("maintenance_window_secs", defaults.maintenance_window_secs),
            "$.adjudication.maintenance_window_secs",
            minimum=0.0,
        ),
        staged_window_secs=_num(
            adj_raw.get("staged_window_secs", defaults.staged_window_secs),
            "$.adjudication.staged_window_secs",
            minimum=0.0,
        ),
        staged_threshold=_int(
            adj_raw.get("staged_threshold", defaults.staged_threshold),
            "$.adjudication.staged_threshold",
            minimum=1,
        ),
        time_tol_secs=_num(
            adj_raw.get("time_tol_secs", defaults.time_tol_secs),
            "$.adjudication.time_tol_secs",
            minimum=0.0,
        ),
        dist_tol_m=_num(
            adj_raw.get("dist_tol_m", defaults.dist_tol_m),
            "$.adjudication.dist_tol_m",
            minimum=0.0,
        ),
    )

    return ScenarioConfig(
        seed=seed,
        vehicles=tuple(specs),
        timeline=tuple(events),
        b_max=b_max,
        cert_validity_secs=cert_validity,
        network=network,
        adjudication=adjudication,
        attack=attack,
    )


def config_to_jsonable(config: ScenarioConfig) -> dict:
    timeline = []
    for ev in config.timeline:
        if isinstance(ev, SafetyEvent):
            timeline.append(
                {"type": "event_safety", "at": ev.at, "vehicle": ev.vehicle, "trigger": ev.trigger.value}
            )
        elif isinstance(ev, UpdateEvent):
            timeline.append(
                {
                    "type": "update",
                    "at": ev.at,
                    "vehicle": ev.vehicle,
                    "execution": ev.execution,
                    "exec_delay_secs": ev.exec_delay_secs,
                }
            )
        elif isinstance(ev, MaintenanceEvent):
            timeline.append(
                {"type": "maintenance", "at": ev.at, "vehicle": ev.vehicle, "roadworthy": ev.roadworthy}
            )
        else:
            timeline.append(
                {
                    "type": "collision",
                    "at": ev.at,
                    "vehicles": list(ev.vehicles),
                    "n_witnesses": ev.n_witnesses,
                    "hit_and_run": ev.hit_and_run,
                }
            )
    out = {
        "seed": config.seed,
        "b_max": config.b_max,
        "cert_validity_secs": config.cert_validity_secs,
        "network": {
            "drop_prob": config.network.drop_prob,
            "retry_interval_secs": config.network.retry_interval_secs,
            "max_attempts": config.network.max_attempts,
        },
        "vehicles": [{"drive_mode": v.drive_mode.value} for v in config.vehicles],
        "adjudication": {
            "negligence_deadline_secs": config.adjudication.negligence_deadline_secs,
            "maintenance_window_secs": config.adjudication.maintenance_window_secs,
            "staged_window_secs": config.adjudication.staged_window_secs,
            "staged_threshold": config.adjudication.staged_threshold,
            "time_tol_secs": config.adjudication.time_tol_secs,
            "dist_tol_m": config.adjudication.dist_tol_m,
        },
        "timeline": timeline,
        "attack": None,
    }
    if config.attack is not None:
        out["attack"] = {
            "class": config.attack.attack_class.value,
            "at": config.attack.at,
            "actor": config.attack.actor,
            "target_kind": config.attack.target_kind.value if config.attack.target_kind else None,
        }
    return out


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("$", f"not valid JSON: {exc}") from None
    return config_from_jsonable(data)


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

@dataclass(frozen=True)
class WitnessStatement:
    """What a bystander vehicle tells the involved parties over v2v: its
    own pseudonym and the pseudonyms it observed at the scene.
    """

    witness_cert_id: Hash256
    observed_cert_ids: tuple[Hash256, ...]
    note: str

    def encode(self) -> bytes:
        w = Writer()
        w.fixed(self.witness_cert_id, 32)
        w.items(self.observed_cert_ids, lambda wr, h: wr.fixed(h, 32))
        w.text(self.note)
        return w.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "WitnessStatement":
        r = Reader(data)
        out = cls(
            witness_cert_id=r.fixed(32),
            observed_cert_ids=tuple(r.items(lambda rd: rd.fixed(32))),
            note=r.text(),
        )
        r.expect_end()
        return out


# --- engine internals ---------------------------------------------------------

def _substream(seed: int, label: str) -> random.Random:
    digest = hashlib.sha256(f"avledger:{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


_TERMINAL_STATES = ("committed", "rejected", "undeliverable")


@dataclass
class _Submission:
    """One transaction's journey toward one partition."""

    kind: TxKind
    partition: Partition
    state: str = "pending"
    on_terminal: Optional[Callable[[str, Optional[ConsensusRound]], None]] = None


@dataclass
class _VehicleActor:
    entity_id: EntityId
    spec: VehicleSpec
    base_loc: GeoPoint
    cert_history: list[tuple[KeyPair, PseudonymCertificate]] = field(default_factory=list)

    @property
    def current_credentials(self) -> tuple[KeyPair, PseudonymCertificate]:
        return self.cert_history[-1]

    def cert_ids(self) -> frozenset[Hash256]:
        return frozenset(cert.cert_id for _, cert in self.cert_history)


@dataclass
class _PendingReplicaAttack:
    attack_class: AttackClass
    partition: Partition
    rogue: EntityId
    armed_at: float
    target_kind: Optional[TxKind]
    applied: bool = False
    victim_tid: Optional[Hash256] = None


@dataclass
class _CollisionTracker:
    case_id: str
    event: CollisionEvent
    collision_at: float
    involved: list[EntityId]
    fleeing: Optional[EntityId]
    witnesses: list[EntityId]
    collision_certs: dict[EntityId, Hash256]
    pet_tids: dict[EntityId, Hash256] = field(default_factory=dict)
    witness_pet_tids: list[Hash256] = field(default_factory=list)
    pending_pets: int = 0
    pending_rets: int = 0
    rets_scheduled: bool = False
    submissions: dict[tuple[EntityId, EntityId], EvidenceData] = field(default_factory=dict)
    ret_tids: dict[tuple[EntityId, EntityId], Hash256] = field(default_factory=dict)
    forged_submitters: list[EntityId] = field(default_factory=list)
    revealed: bool = False
    adjudicated: bool = False


_FIXED_MEMBERS = {
    "am": ("am-0", Role.MANUFACTURER),
    "st": ("st-0", Role.TECHNICIAN),
    "ic": ("ic-0", Role.INSURER),
    "gta": ("gta-0", Role.TRANSPORT_AUTHORITY),
    "la": ("la-0", Role.LEGAL_AUTHORITY),
    "ca": ("ca-0", Role.CERT_AUTHORITY),
}

INFRASTRUCTURE_ACTORS = frozenset({"am-0", "st-0", "ic-0", "gta-0", "la-0"})

P1 = Partition.OPERATIONAL
P2 = Partition.DECISIONAL


class ScenarioEngine:
    """Owns all state for one scenario run."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        seed = config.seed
        self.rng_keys = _substream(seed, "keys")
        self.rng_net = _substream(seed, "net")
        self.rng_sim = _substream(seed, "sim")
        self.rng_payload = _substream(seed, "payload")

        # fixed infrastructure actors
        self.ca_keys = generate_keypair(self.rng_keys)
        self.fixed_keys: dict[EntityId, KeyPair] = {}
        for short in ("am", "st", "ic", "gta", "la"):
            entity, _role = _FIXED_MEMBERS[short]
            self.fixed_keys[entity] = generate_keypair(self.rng_keys)
        self.p2_shared_key = derive_shared_key(self.rng_keys)

        self.escrow = IdentityEscrow("gta-0", "la-0")
        self.blob_store = BlobStore()

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
        )
        self.genesis: dict[Partition, GenesisBlock] = {P1: genesis_p1, P2: genesis_p2}
        self.validators: dict[Partition, tuple[EntityId, ...]] = {
            part: genesis.validator_ids() for part, genesis in self.genesis.items()
        }
        self.replicas: dict[Partition, dict[EntityId, PartitionLedger]] = {
            part: {v: PartitionLedger(self.genesis[part], b_max=config.b_max) for v in vals}
            for part, vals in self.validators.items()
        }

        # network
        self.net = Network(
            rng=self.rng_net,
            drop_prob=config.network.drop_prob,
            retry_interval=config.network.retry_interval_secs,
            max_attempts=config.network.max_attempts,
        )
        self.net.on_dead = self._on_dead_send
        vehicle_ids = {v.entity_id for v in self.vehicles}
        self.net.register_endpoint(
            "P1",
            self._make_ingest(P1),
            allowed_senders=vehicle_ids | {"am-0", "st-0", "ic-0"},
        )
        self.net.register_endpoint(
            "P2",
            self._make_ingest(P2),
            allowed_senders={"ic-0", "am-0", BRIDGE_SENDER},
        )
        self.net.register_endpoint("am-0", self._maker_inbox, allowed_senders=vehicle_ids)
        for v in self.vehicles:
            self.net.register_endpoint(
                v.entity_id, self._vehicle_inbox, allowed_senders={"am-0"}
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
                bucket: {code: 0 for code in KIND_CODES}
                for bucket in ("emitted", "committed", "rejected", "undeliverable")
            }
            for part in (P1, P2)
        }
        self._commit_hooks: dict[tuple[Partition, Hash256], list[Callable[[ConsensusRound], None]]] = {}
        self._p2_pending: dict[Hash256, _Submission] = {}
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._timer_seq = 0
        self._collisions: list[_CollisionTracker] = []
        self._replica_attack: Optional[_PendingReplicaAttack] = None
        self._update_counter = 0

    # -- small helpers ---------------------------------------------------------

    @property
    def now(self) -> float:
        return self.net.clock.now

    def honest_replica(self, partition: Partition) -> PartitionLedger:
        rogue = self._replica_attack.rogue if self._replica_attack else None
        for validator in self.validators[partition]:
            if validator != rogue:
                return self.replicas[partition][validator]
        return self.replicas[partition][self.validators[partition][0]]

    def _schedule(self, at: float, fn: Callable[[], None]) -> None:
        if at < self.now - 1e-9:
            at = self.now
        heapq.heappush(self._timers, (at, self._timer_seq, fn))
        self._timer_seq += 1

    def _rotate(self, vehicle: _VehicleActor, at: float) -> tuple[KeyPair, PseudonymCertificate]:
        keys, cert = rotate_pseudonym(
            vehicle.entity_id,
            self.escrow,
            self.ca_keys,
            at,
            self.rng_keys,
            validity_secs=self.config.cert_validity_secs,
        )
        vehicle.cert_history.append((keys, cert))
        return keys, cert

    def _capture_media(self, at: float, n: int = 2) -> TamperStoreDigest:
        hashes = tuple(self.blob_store.put(self.rng_payload.randbytes(48)) for _ in range(n))
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

    def _submit(
        self,
        tx: Transaction,
        sender: EntityId,
        partition: Partition,
        on_terminal: Optional[Callable[[str, Optional[ConsensusRound]], None]] = None,
        sub: Optional[_Submission] = None,
    ) -> _Submission:
        """Sends a transaction toward a partition under a tracking token.

        A fresh token counts as one emission; passing an existing token
        carries an earlier emission (the multi-hop update flow) through to
        its ledger outcome without double counting.
        """
        if sub is None:
            sub = _Submission(kind=tx.kind, partition=partition, on_terminal=on_terminal)
            self.counts[partition.value]["emitted"][tx.kind.value] += 1
        elif on_terminal is not None:
            sub.on_terminal = on_terminal
        self.net.send_with_retry(sender, partition.value, ("tx", tx, sub))
        return sub

    def _finish(self, sub: _Submission, state: str, round_: Optional[ConsensusRound]) -> None:
        assert state in _TERMINAL_STATES
        if sub.state != "pending":
            return
        sub.state = state
        self.counts[sub.partition.value][state][sub.kind.value] += 1
        if sub.on_terminal:
            sub.on_terminal(state, round_)

    def _on_dead_send(self, record: DeliveryRecord) -> None:
        payload = record.envelope.payload
        if isinstance(payload, Transaction):
            # a bridge forward that never reached the decision partition
            sub = self._p2_pending.pop(payload.tid, None)
            if sub is not None:
                self._finish(sub, "undeliverable", None)
            return
        if not (isinstance(payload, tuple) and payload):
            return
        tag = payload[0]
        if tag == "tx":
            self._finish(payload[2], "undeliverable", None)
        elif tag == "update_instruction":
            # the update never reached the vehicle, so no transaction was
            # ever assembled; the planned emission still has to land in a
            # terminal bucket
            self._finish(payload[2], "undeliverable", None)
        elif tag == "update_signed":
            self._finish(payload[2], "undeliverable", None)

    # -- consensus ingest --------------------------------------------------------

    def _make_ingest(self, partition: Partition) -> Callable[[Envelope], None]:
        def handle(envelope: Envelope) -> None:
            payload = envelope.payload
            if isinstance(payload, Transaction):
                # the cross-partition bridge carries the bare transaction;
                # the tracking token was parked under its tid
                sub = self._p2_pending.pop(payload.tid, None)
                if sub is None:
                    sub = _Submission(kind=payload.kind, partition=partition)
                    self.counts[partition.value]["emitted"][payload.kind.value] += 1
                self._ingest(partition, payload, sub)
                return
            if not (isinstance(payload, tuple) and payload and payload[0] == "tx"):
                log.warning("ignoring non-transaction payload on %s", partition.value)
                return
            _, tx, sub = payload
            self._ingest(partition, tx, sub)

        return handle

    def _ingest(self, partition: Partition, tx: Transaction, sub: _Submission) -> None:
        if self.halted[partition]:
            # the partition stopped committing after divergence; the
            # submission terminates without a round
            self.audit_lines.append(
                json.dumps(
                    {
                        "at": self.now,
                        "partition": partition.value,
                        "tid": tx.tid.hex(),
                        "outcome": "SkippedHalted",
                        "votes": {},
                    },
                    sort_keys=True,
                )
            )
            self._finish(sub, "rejected", None)
            return

        self._maybe_apply_replica_attack(partition)

        round_ = run_consensus(
            self.validators[partition], tx, self.replicas[partition], self.now
        )
        self.audit_lines.append(json.dumps(audit_record(round_), sort_keys=True))
        stats = self.consensus_stats[partition]
        stats["rounds"] += 1

        if round_.outcome is RoundOutcome.COMMITTED:
            stats["committed"] += 1
            self._finish(sub, "committed", round_)
            for hook in self._commit_hooks.pop((partition, tx.tid), []):
                hook(round_)
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

    def _on_commit(self, partition: Partition, tid: Hash256, hook: Callable[[ConsensusRound], None]) -> None:
        self._commit_hooks.setdefault((partition, tid), []).append(hook)

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
        candidates = replica.current.transactions
        if attack.target_kind is not None:
            matches = [t for t in candidates if t.kind is attack.target_kind]
        else:
            matches = list(candidates)
        if not matches:
            return  # stay armed until the open block holds a target
        victim = matches[-1]
        tamper_cblock(replica, victim.tid)
        attack.applied = True
        attack.victim_tid = victim.tid
        log.info(
            "%s applied by %s on %s: removed %s",
            attack.attack_class.value,
            attack.rogue,
            partition.value,
            victim.tid.hex()[:16],
        )

    # -- endpoint handlers -------------------------------------------------------

    def _vehicle_inbox(self, envelope: Envelope) -> None:
        payload = envelope.payload
        if not (isinstance(payload, tuple) and payload and payload[0] == "update_instruction"):
            return
        _, (vid, update_hash, metadata, execution, exec_delay), sub = payload
        vehicle = self.vehicles[vid]
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
        self.net.send_with_retry(
            vehicle.entity_id, "am-0", ("update_signed", tx, sub, execution, exec_delay)
        )

    def _maker_inbox(self, envelope: Envelope) -> None:
        payload = envelope.payload
        if not (isinstance(payload, tuple) and payload and payload[0] == "update_signed"):
            return
        _, tx, sub, execution, exec_delay = payload
        vid = int(envelope.sender.split("-", 1)[1])

        def after_commit(round_: ConsensusRound) -> None:
            if execution == "none":
                return
            status = ExecStatus.EXECUTED if execution == "executed" else ExecStatus.FAILED
            self._schedule(
                self.now + exec_delay,
                lambda: self._submit_exec_report(vid, tx.tid, status),
            )

        self._on_commit(P1, tx.tid, after_commit)
        self._submit(tx, "am-0", P1, sub=sub)

    def _submit_exec_report(self, vid: int, parent_tid: Hash256, status: ExecStatus) -> None:
        vehicle = self.vehicles[vid]
        at = self.now
        keys, cert = self._rotate(vehicle, at)
        body = ExecReportBody(exec_status=status, submitted_at=at)
        tx = build_transaction(
            TxKind.EXECUTION, body, keys, cert=cert, parent_tid=parent_tid
        )
        self._submit(tx, vehicle.entity_id, P1)

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
        self._submit(tx, vehicle.entity_id, P1)

    def _run_maintenance_event(self, ev: MaintenanceEvent) -> None:
        vehicle = self.vehicles[ev.vehicle]
        at = self.now
        _keys, cert = self._rotate(vehicle, at)
        body = MaintenanceBody(
            report_hash=self.blob_store.put(self.rng_payload.randbytes(64)),
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
        self._submit(tx, "st-0", P1)

    def _run_update_event(self, ev: UpdateEvent) -> None:
        self._update_counter += 1
        update_hash = self.blob_store.put(self.rng_payload.randbytes(96))
        metadata = f"update-{self._update_counter}"
        sub = _Submission(kind=TxKind.UPDATE, partition=P1)
        self.counts[P1.value]["emitted"][TxKind.UPDATE.value] += 1
        self.net.send_with_retry(
            "am-0",
            self.vehicles[ev.vehicle].entity_id,
            ("update_instruction", (ev.vehicle, update_hash, metadata, ev.execution, ev.exec_delay_secs), sub),
        )

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

        # Everyone at the scene rotates to a fresh pseudonym. Issuance is
        # backdated slightly below the collision instant so that evidence
        # timestamps with negative clock jitter still fall inside the
        # certificate window (which opens exactly at issuance).
        participants = ev.vehicles + tuple(uninvolved[: ev.n_witnesses])
        certs: dict[EntityId, Hash256] = {}
        creds: dict[EntityId, tuple[KeyPair, PseudonymCertificate]] = {}
        for vid in participants:
            vu = self.vehicles[vid]
            keys, cert = self._rotate(vu, at - 2.0)
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
                seal_to_key(self.p2_shared_key, stmt.encode(), self.rng_payload)
            )
        enc_witness = tuple(statements)

        tracker = _CollisionTracker(
            case_id=f"case-{case_index}",
            event=ev,
            collision_at=at,
            involved=involved_ids,
            fleeing=fleeing,
            witnesses=witness_ids,
            collision_certs=certs,
        )
        self._collisions.append(tracker)

        def pet_terminal(entity: EntityId, is_witness: bool, tid: Hash256):
            def hook(state: str, round_: Optional[ConsensusRound]) -> None:
                if state == "committed":
                    if is_witness:
                        tracker.witness_pet_tids.append(tid)
                    else:
                        tracker.pet_tids[entity] = tid
                tracker.pending_pets -= 1
                self._maybe_start_requests(tracker)

            return hook

        # Build every PET before submitting any: a zero-loss network
        # delivers synchronously, and the request stage must not open
        # until the whole batch has resolved.
        pending: list[tuple[EntityId, bool, Transaction]] = []
        for vid in ev.vehicles:
            vu = self.vehicles[vid]
            if vu.entity_id == fleeing:
                continue  # the runaway submits nothing
            keys, cert = creds[vu.entity_id]
            loc = self._jittered_loc(center)
            ts = at + self.rng_sim.uniform(-0.9, 0.9)
            hv = self._make_esm(vu, EventTrigger.HARD_BRAKE, loc=loc, speed=self.rng_sim.uniform(4.0, 26.0))
            edata = EvidenceData.make(
                loc=loc,
                ts=ts,
                hv_data=hv,
                ts_data=self._capture_media(ts),
                enc_witness=enc_witness,
            )
            body = CollisionEvidenceBody(edata=edata, ts_data=self._capture_media(ts, n=1))
            tx = build_transaction(TxKind.COLLISION_EVIDENCE, body, keys, cert=cert)
            pending.append((vu.entity_id, False, tx))

        for w_entity in witness_ids:
            keys, cert = creds[w_entity]
            vu = next(v for v in self.vehicles if v.entity_id == w_entity)
            loc = self._jittered_loc(center)
            ts = at + self.rng_sim.uniform(-0.9, 0.9)
            hv = self._make_esm(vu, EventTrigger.HARD_BRAKE, loc=loc, speed=self.rng_sim.uniform(0.0, 20.0))
            edata = EvidenceData.make(
                loc=loc,
                ts=ts,
                hv_data=hv,
                ts_data=self._capture_media(ts),
                enc_witness=(),
            )
            body = CollisionEvidenceBody(edata=edata, ts_data=self._capture_media(ts, n=1))
            tx = build_transaction(TxKind.COLLISION_EVIDENCE, body, keys, cert=cert)
            pending.append((w_entity, True, tx))

        tracker.pending_pets = len(pending)
        for entity, is_witness, tx in pending:
            self._submit(
                tx, entity, P1, on_terminal=pet_terminal(entity, is_witness, tx.tid)
            )
        if not pending:
            # nothing was submitted (single fleeing vehicle); close out
            self._maybe_start_requests(tracker)

    # -- evidence requests -------------------------------------------------------

    def _maybe_start_requests(self, tracker: _CollisionTracker) -> None:
        if tracker.rets_scheduled or tracker.pending_pets > 0:
            return
        tracker.rets_scheduled = True
        base = self.now
        delay = 5.0
        attack = self.config.attack
        forge = (
            attack is not None
            and attack.attack_class is AttackClass.FALSE_INFORMATION
        )
        forger = (attack.actor or "am-0") if forge else None

        planned: list[tuple[float, Callable[[], None]]] = []
        for requester_entity, requester_role, offset in (
            ("ic-0", Role.INSURER, delay),
            ("am-0", Role.MANUFACTURER, delay + 15.0),
        ):
            for entity in tracker.involved:
                if entity == tracker.fleeing or entity not in tracker.pet_tids:
                    continue
                planned.append(
                    (
                        base + offset,
                        self._make_request_submitter(
                            tracker,
                            requester_entity,
                            requester_role,
                            entity,
                            forged=(forge and requester_entity == forger),
                        ),
                    )
                )
        # Every planned request counts as pending up front; adjudication
        # waits for the last one to resolve (or be abandoned) no matter
        # how quickly the early ones complete.
        tracker.pending_rets = len(planned)
        for when, fn in planned:
            self._schedule(when, fn)
        if not planned:
            self._schedule(base + delay, lambda: self._maybe_adjudicate(tracker))

    def _make_request_submitter(
        self,
        tracker: _CollisionTracker,
        requester_entity: EntityId,
        requester_role: Role,
        subject: EntityId,
        forged: bool,
    ) -> Callable[[], None]:
        def abandon() -> None:
            tracker.pending_rets -= 1
            self._maybe_adjudicate(tracker)

        def submit() -> None:
            honest_p1 = self.honest_replica(P1)
            pet_tid = tracker.pet_tids.get(subject)
            if pet_tid is None:
                abandon()
                return
            pet = honest_p1.find(pet_tid)
            if pet is None or self.halted[P1]:
                # evidence never made it or the partition stopped; no request
                abandon()
                return
            vehicle = next(v for v in self.vehicles if v.entity_id == subject)
            edata = pet.body.edata
            if forged:
                edata = inject_false_information(edata)
                if requester_entity not in tracker.forged_submitters:
                    tracker.forged_submitters.append(requester_entity)
            digests = est_history(honest_p1, vehicle.cert_ids())
            body = EvidenceRequestBody(
                edata=edata,
                requester=requester_role,
                submitted_at=self.now,
                est_digests=digests,
            )
            tx = build_transaction(
                TxKind.EVIDENCE_REQUEST,
                body,
                self.fixed_keys[requester_entity],
                cert=pet.cert,
                signer_role=requester_role,
            )
            tracker.submissions[(subject, requester_entity)] = edata
            tracker.ret_tids[(subject, requester_entity)] = tx.tid

            def p1_terminal(state: str, round_: Optional[ConsensusRound]) -> None:
                if state != "committed":
                    tracker.pending_rets -= 1
                    self._maybe_adjudicate(tracker)
                    return
                # The bridge send can deliver synchronously, so the tracking
                # token is parked under the tid before the forward happens
                # and the receipt is linked up afterwards via a box.
                receipt_box: list = []

                def p2_terminal(state2: str, round2: Optional[ConsensusRound]) -> None:
                    if receipt_box:
                        receipt_box[0].p2_outcome = state2
                    if state2 == "committed":
                        self._maybe_reveal(tracker, tx)
                    tracker.pending_rets -= 1
                    self._maybe_adjudicate(tracker)

                sub2 = _Submission(
                    kind=TxKind.EVIDENCE_REQUEST, partition=P2, on_terminal=p2_terminal
                )
                self._p2_pending[tx.tid] = sub2
                self.counts[P2.value]["emitted"][TxKind.EVIDENCE_REQUEST.value] += 1
                receipt = forward_evidence_request(self.net, tx, self.honest_replica(P1))
                receipt_box.append(receipt)
                if sub2.state != "pending":
                    receipt.p2_outcome = sub2.state

            self._submit(tx, requester_entity, P1, on_terminal=p1_terminal)

        return submit

    # -- reveal and adjudication ---------------------------------------------------

    def _maybe_reveal(self, tracker: _CollisionTracker, ret: Transaction) -> None:
        if not tracker.event.hit_and_run or tracker.revealed:
            return
        honest_p1 = self.honest_replica(P1)
        for sealed in ret.body.edata.enc_witness:
            stmt = WitnessStatement.decode(open_sealed(self.p2_shared_key, sealed))
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

    def _maybe_adjudicate(self, tracker: _CollisionTracker) -> None:
        if tracker.adjudicated or tracker.pending_rets > 0 or not tracker.rets_scheduled:
            return
        tracker.adjudicated = True
        honest_p1 = self.honest_replica(P1)

        parties = []
        for entity in tracker.involved:
            vehicle = next(v for v in self.vehicles if v.entity_id == entity)
            submitted = {
                requester: edata
                for (subject, requester), edata in sorted(tracker.submissions.items())
                if subject == entity
            }
            ret_tids = {
                requester: tid
                for (subject, requester), tid in sorted(tracker.ret_tids.items())
                if subject == entity
            }
            parties.append(
                PartyEvidence(
                    vehicle=entity,
                    cert_ids=vehicle.cert_ids(),
                    pet_tid=tracker.pet_tids.get(entity),
                    submitted=submitted,
                    ret_tids=ret_tids,
                    est_digests=est_history(honest_p1, vehicle.cert_ids()),
                )
            )
        case = CollisionCase(
            case_id=tracker.case_id,
            collision_at=tracker.collision_at,
            parties=tuple(parties),
            maker="am-0",
            witness_pet_tids=tuple(tracker.witness_pet_tids),
            suspect_absent=tracker.fleeing is not None,
        )
        try:
            verdict = adjudicate(case, honest_p1, self.config.adjudication, at=self.now)
        except MalformedCase as exc:
            log.info("case %s not adjudicable: %s", tracker.case_id, exc)
            return
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
                        tracker.ret_tids[(subject, requester)].hex()
                        for (subject, requester) in sorted(tracker.ret_tids)
                        if requester in verdict.forgers
                    ],
                }
            )

    # -- main loop -----------------------------------------------------------------

    def run(self) -> ScenarioResult:
        config = self.config
        case_index = 0
        for ev in sorted(config.timeline, key=lambda e: e.at):
            if isinstance(ev, SafetyEvent):
                self._schedule(ev.at, lambda ev=ev: self.trigger_event_safety(ev))
            elif isinstance(ev, UpdateEvent):
                self._schedule(ev.at, lambda ev=ev: self._run_update_event(ev))
            elif isinstance(ev, MaintenanceEvent):
                self._schedule(ev.at, lambda ev=ev: self._run_maintenance_event(ev))
            else:
                self._schedule(
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
            partition = P1 if rogue in self.validators[P1] else P2
            if rogue not in self.validators[partition]:
                raise ConfigError("$.attack.actor", f"{rogue!r} is not a validator")
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

        # interleave engine timers with network retries
        while self._timers or self.net.has_pending():
            next_timer = self._timers[0][0] if self._timers else math.inf
            next_net = self.net.next_due()
            next_net = math.inf if next_net is None else next_net
            if next_timer <= next_net:
                at, _, fn = heapq.heappop(self._timers)
                if at > self.now:
                    self.net.advance(at - self.now)
                fn()
            else:
                self.net.advance(next_net - self.now)

        # close out any collision whose requests never ran (halted partition
        # or undelivered evidence)
        for tracker in self._collisions:
            if not tracker.adjudicated:
                tracker.rets_scheduled = True
                tracker.pending_rets = 0
                self._maybe_adjudicate(tracker)

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
                "blocks": len(replica.blocks),
                "open_tx": len(replica.current.transactions),
                "tx_total": len(replica.tid_index),
                "cblock_id": replica.cblock_id.hex(),
            }
        delivered = sum(1 for r in self.net.records if r.status == "delivered")
        undeliverable = sum(1 for r in self.net.records if r.status == "undeliverable")
        refused = sum(1 for r in self.net.records if r.status == "refused")
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
                "sends": len(self.net.records),
                "delivered": delivered,
                "undeliverable": undeliverable,
                "refused": refused,
            },
            attack_scripted=attack.attack_class.value if attack else None,
            attack_detected=self._attack_detected(),
        )


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    return ScenarioEngine(config).run().report


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
