"""Seeded fleet generator: one `ScenarioConfig` per (shape, seed).

Every benchmark workload draws its scenarios from here, so the program
under test receives only generated configs and never sees the benchmark
seed as anything but `ScenarioConfig.seed`.

The realised event mix is exact: event counts per type are the largest-
remainder split of `n_events` over the requested shares, and the seed
only decides order, timing, vehicles and per-event details.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from avledger.scenarios import (
    CollisionEvent,
    MaintenanceEvent,
    NetworkConfig,
    SafetyEvent,
    ScenarioConfig,
    UpdateEvent,
    VehicleSpec,
)
from avledger.txmodel import DriveMode, EventTrigger

EVENT_TYPES = ("safety", "update", "maintenance", "collision")

_TRIGGERS = tuple(EventTrigger)
# Mean virtual seconds between timeline events. Wider than the netsim retry
# interval is unnecessary: certificate windows are judged at each body's own
# timestamp, so retries never push honest traffic out of its window.
_MEAN_GAP_SECS = 6.0
_HIT_AND_RUN_SHARE = 0.10
_COLLISION_PARTIES = 2
_COLLISION_WITNESSES = 1


@dataclass(frozen=True)
class FleetShape:
    """Size and traffic mix of one generated fleet."""

    n_vehicles: int
    n_events: int
    mix: tuple[float, float, float, float]  # safety, update, maintenance, collision
    drop_prob: float

    def __post_init__(self) -> None:
        if len(self.mix) != len(EVENT_TYPES) or any(s < 0 for s in self.mix):
            raise ValueError(f"mix needs {len(EVENT_TYPES)} non-negative shares")
        if sum(self.mix) <= 0:
            raise ValueError("mix must have a positive share")
        if self.mix[3] > 0 and self.n_vehicles < _COLLISION_PARTIES + _COLLISION_WITNESSES:
            raise ValueError("collisions need at least three vehicles")


def event_counts(n_events: int, mix: tuple[float, ...]) -> dict[str, int]:
    """Largest-remainder split of n_events over the mix shares."""
    total = sum(mix)
    exact = [n_events * share / total for share in mix]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(mix)), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[: n_events - sum(counts)]:
        counts[i] += 1
    return dict(zip(EVENT_TYPES, counts))


def generate(shape: FleetShape, seed: int) -> ScenarioConfig:
    rng = random.Random(f"perfbench.fleet:{seed}")
    vehicles = tuple(
        VehicleSpec(
            drive_mode=DriveMode.AUTONOMOUS if rng.random() < 0.8 else DriveMode.MANUAL
        )
        for _ in range(shape.n_vehicles)
    )
    order = [
        kind
        for kind, count in event_counts(shape.n_events, shape.mix).items()
        for _ in range(count)
    ]
    rng.shuffle(order)

    timeline = []
    t = 0.0
    for kind in order:
        t += rng.expovariate(1.0 / _MEAN_GAP_SECS)
        at = round(t, 3)
        vehicle = rng.randrange(shape.n_vehicles)
        if kind == "safety":
            timeline.append(SafetyEvent(at=at, vehicle=vehicle, trigger=rng.choice(_TRIGGERS)))
        elif kind == "update":
            roll = rng.random()
            execution = "executed" if roll < 0.8 else "failed" if roll < 0.9 else "none"
            timeline.append(
                UpdateEvent(
                    at=at,
                    vehicle=vehicle,
                    execution=execution,
                    exec_delay_secs=round(rng.uniform(60.0, 600.0), 3),
                )
            )
        elif kind == "maintenance":
            timeline.append(
                MaintenanceEvent(at=at, vehicle=vehicle, roadworthy=rng.random() < 0.9)
            )
        else:
            parties = tuple(rng.sample(range(shape.n_vehicles), _COLLISION_PARTIES))
            timeline.append(
                CollisionEvent(
                    at=at,
                    vehicles=parties,
                    n_witnesses=_COLLISION_WITNESSES,
                    hit_and_run=rng.random() < _HIT_AND_RUN_SHARE,
                )
            )
    return ScenarioConfig(
        seed=seed,
        vehicles=vehicles,
        timeline=tuple(timeline),
        network=NetworkConfig(drop_prob=shape.drop_prob),
    )


def realised_counts(config: ScenarioConfig) -> dict[str, int]:
    kinds = {
        SafetyEvent: "safety",
        UpdateEvent: "update",
        MaintenanceEvent: "maintenance",
        CollisionEvent: "collision",
    }
    out = dict.fromkeys(EVENT_TYPES, 0)
    for ev in config.timeline:
        out[kinds[type(ev)]] += 1
    return out
