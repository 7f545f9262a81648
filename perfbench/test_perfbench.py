"""Checks of the benchmark itself: generator determinism and mix, the
correctness gate (including a negative self-test), the reference-scaled
clock and the tracer.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from avledger import identity, scenarios, validation
from avledger.scenarios import config_from_jsonable, config_to_jsonable

import reference
import workloads
from fleetgen import EVENT_TYPES, FleetShape, event_counts, generate, realised_counts
from tracer import METRICS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
SMALL_FLEET = FleetShape(n_vehicles=6, n_events=60, mix=(60, 15, 15, 10), drop_prob=0.1)
SMALL_AUDIT = FleetShape(n_vehicles=6, n_events=80, mix=(80, 9, 9, 2), drop_prob=0.1)


def _config_bytes(shape: FleetShape, seed: int) -> bytes:
    return json.dumps(config_to_jsonable(generate(shape, seed)), sort_keys=True).encode()


def test_same_seed_gives_identical_config_bytes():
    assert _config_bytes(SMALL_FLEET, 7) == _config_bytes(SMALL_FLEET, 7)
    assert _config_bytes(SMALL_FLEET, 7) != _config_bytes(SMALL_FLEET, 8)


def test_generated_config_passes_the_parser():
    config = generate(SMALL_FLEET, 3)
    assert config_from_jsonable(config_to_jsonable(config)) == config


@pytest.mark.parametrize(
    "shape",
    [
        workloads.FLEET_TELEMETRY,
        workloads.FLEET_DISPUTES,
        workloads.LEDGER_AUDIT,
        FleetShape(n_vehicles=5, n_events=37, mix=(1, 1, 1, 1), drop_prob=0.0),
    ],
)
def test_realised_mix_matches_requested(shape):
    counts = realised_counts(generate(shape, 3))
    assert counts == event_counts(shape.n_events, shape.mix)
    assert sum(counts.values()) == shape.n_events
    total = sum(shape.mix)
    for kind, share in zip(EVENT_TYPES, shape.mix):
        assert abs(counts[kind] - shape.n_events * share / total) < 1


def test_collisions_have_two_parties_and_one_witness():
    collisions = [
        ev for ev in generate(SMALL_FLEET, 4).timeline if isinstance(ev, scenarios.CollisionEvent)
    ]
    assert collisions
    assert all(len(ev.vehicles) == 2 and ev.n_witnesses == 1 for ev in collisions)


# --- gate ----------------------------------------------------------------------


def _prepared_audit(tmp_path):
    tally = workloads.Tally()
    prepared = workloads.prepare_audit(SMALL_AUDIT, 5, str(tmp_path), tally)
    assert tally.failed == 0
    return tally, prepared


def test_audit_gate_passes_intact_ledgers(tmp_path):
    tally, prepared = _prepared_audit(tmp_path)
    workloads.measure_audit(prepared, 0.001, str(tmp_path), tally, workloads.Runner(tally))
    assert tally.failed == 0 and tally.attempted > 0
    assert tally.samples["verify_tx_per_s"] and tally.samples["history_lookups_per_s"]


@pytest.mark.parametrize("where", ["block capacity", "genesis", "middle", "last byte"])
def test_flipped_byte_fails_the_audit_run(tmp_path, where):
    tally, prepared = _prepared_audit(tmp_path)
    path = prepared[0][0].path
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    offset = {"block capacity": 9, "genesis": 20, "middle": len(data) // 2, "last byte": -1}[where]
    data[offset] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(data)
    workloads.measure_audit(prepared, 0.001, str(tmp_path), tally, workloads.Runner(tally))
    assert tally.failed > 0
    assert tally.problems


def test_fleet_run_loops_until_time_is_spent_and_replays(tmp_path):
    tally = workloads.Tally()
    workloads.run_fleet(SMALL_FLEET, 2, 3.0, str(tmp_path), tally, workloads.Runner(tally))
    assert tally.failed == 0
    assert len(tally.fingerprints) >= 2
    assert len(tally.samples["rounds_per_s"]) == len(tally.fingerprints)
    again = workloads.Tally()
    workloads.run_fleet(SMALL_FLEET, 2, 0.001, str(tmp_path), again, workloads.Runner(again))
    assert again.fingerprints == tally.fingerprints[:1]


# --- clock -----------------------------------------------------------------------


@pytest.fixture
def fixed_reference(monkeypatch):
    """The reference reads twice NOMINAL_S, as on a host at half speed."""
    monkeypatch.setattr(reference.Reference, "measure", lambda self: 2 * reference.NOMINAL_S)


def test_clock_scales_wall_time_by_the_reference(fixed_reference):
    clock = reference.Clock()
    result, seconds = clock.timed(lambda: time.sleep(0.05) or "done")
    assert result == "done"
    assert 0.025 <= seconds < 0.04
    assert len(clock.reference_s) == 2


def test_clock_reads_the_reference_during_long_work(fixed_reference):
    clock = reference.Clock()
    before = signal.getsignal(signal.SIGALRM)
    _, seconds = clock.timed(lambda: time.sleep(3 * reference.TICK_S + 0.1))
    assert len(clock.reference_s) >= 2 + 3
    assert 0.5 * 3 * reference.TICK_S <= seconds < 0.5 * (4 * reference.TICK_S)
    assert signal.getsignal(signal.SIGALRM) is before


def test_clock_ticks_only_when_outermost_and_enabled(fixed_reference):
    clock = reference.Clock()
    clock.timed(lambda: clock.timed(lambda: time.sleep(2 * reference.TICK_S)))
    inner_and_outer = 2 + 2
    assert len(clock.reference_s) > inner_and_outer
    clock = reference.Clock()
    clock.ticking = False
    clock.timed(lambda: time.sleep(2 * reference.TICK_S))
    assert len(clock.reference_s) == 2


# --- tracer ----------------------------------------------------------------------


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("a.inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    tracer.wrap("b.outer", outer_body)()
    own = tracer.self_times()
    assert own["a.inner"] >= 0.02
    assert 0.01 <= own["b.outer"] < 0.02
    assert [span[3] for span in tracer.spans] == [-1, 0]


def test_install_then_uninstall_restores_originals():
    originals = (identity._verify_raw, scenarios.run_consensus, scenarios.ScenarioEngine.run)
    tracer = Tracer()
    tracer.install()
    try:
        assert identity._verify_raw is not originals[0]
        assert scenarios.run_consensus is validation.run_consensus is not originals[1]
    finally:
        tracer.uninstall()
    assert (identity._verify_raw, scenarios.run_consensus, scenarios.ScenarioEngine.run) == originals


def test_traced_run_reports_every_layer_and_same_output(tmp_path):
    tally = workloads.Tally()
    tracer = Tracer()
    workloads.run_fleet(SMALL_FLEET, 2, 0.001, str(tmp_path), tally, workloads.Runner(tally, tracer))
    assert tally.failed == 0
    metrics = tracer.summary(tally.traced_s, tally.untraced_s, 1.0)
    assert list(metrics) == [name for name, _unit, _better in METRICS]
    assert metrics["validation.rounds"]["value"] > 0
    assert metrics["ledger.query_calls"]["value"] > 0
    assert metrics["adjudicator.cases"]["value"] > 0


def test_untraced_run_never_imports_the_tracer():
    code = "import sys, workloads; sys.exit('tracer' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([HERE, os.path.join(HERE, "..", "src")]))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            shutil.copy(os.path.join(HERE, name), bench / name)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-telemetry",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
