"""End-to-end scenario runs: determinism, accounting conservation, the
three adversary classes, and configuration handling."""

import copy
import dataclasses
import json

import pytest

from avledger.errors import ConfigError, NotFound
from avledger.ledger import verify_chain
from avledger.scenarios import (
    AttackClass,
    AttackConfig,
    CollisionEvent,
    NetworkConfig,
    SafetyEvent,
    ScenarioConfig,
    ScenarioEngine,
    UpdateEvent,
    VehicleSpec,
    config_from_jsonable,
    config_to_jsonable,
    inject_false_information,
    load_config,
    make_attack_config,
    make_benign_config,
    run_scenario,
    tamper_cblock,
)
from avledger.txmodel import EventTrigger, TxKind, compute_edata_hash

from worldkit import make_edata, make_est, make_world


def _run(config):
    return ScenarioEngine(config).run()


# --- attack helpers -----------------------------------------------------------

def test_tamper_cblock_rewrites_local_fold():
    world = make_world(seed=100)
    ledger = world.ledger()
    a = make_est(world, at=1000.0)
    b = make_est(world, at=1010.0)
    ledger.append_validated(a)
    ledger.append_validated(b)
    tamper_cblock(ledger, a.tid)
    assert ledger.find(a.tid) is None
    assert [t.tid for t in ledger.current.transactions] == [b.tid]
    # The local trail is internally consistent after the edit, so the
    # deletion is invisible to a lone replica and only consensus sees it.
    assert verify_chain(ledger)
    with pytest.raises(NotFound):
        tamper_cblock(ledger, a.tid)


def test_inject_false_information_is_internally_consistent():
    world = make_world(seed=101)
    edata = make_edata(world, 1000.0)
    forged = inject_false_information(edata)
    assert forged.hv_data.speed_mps == edata.hv_data.speed_mps + 15.0
    assert forged.ts == edata.ts + 5.0
    assert forged.edata_hash != edata.edata_hash
    assert forged.edata_hash == compute_edata_hash(
        forged.loc, forged.ts, forged.hv_data, forged.ts_data, forged.enc_witness
    )


# --- determinism and conservation ---------------------------------------------

def test_identical_configs_replay_byte_identically(tmp_path):
    config = make_benign_config(3)
    first = _run(config)
    second = _run(config)
    assert first.report.to_json() == second.report.to_json()
    assert first.audit_lines == second.audit_lines
    from avledger.ledger import save_ledger

    for partition in ("P1", "P2"):
        a = tmp_path / f"a_{partition}.bin"
        b = tmp_path / f"b_{partition}.bin"
        save_ledger(first.ledgers[partition], str(a))
        save_ledger(second.ledgers[partition], str(b))
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("seed", [0, 1, 2, 5, 8])
def test_emitted_equals_committed_plus_rejected_plus_undeliverable(seed):
    report = run_scenario(make_benign_config(seed))
    for partition, buckets in report.counts.items():
        for kind in buckets["emitted"]:
            emitted = buckets["emitted"][kind]
            settled = (
                buckets["committed"][kind]
                + buckets["rejected"][kind]
                + buckets["undeliverable"][kind]
            )
            assert emitted == settled, (partition, kind)


@pytest.mark.parametrize("seed", range(10))
def test_benign_runs_raise_no_detections(seed):
    report = run_scenario(make_benign_config(seed))
    assert report.detections == []
    assert report.attack_scripted is None and report.attack_detected is None
    assert not report.halted["P1"] and not report.halted["P2"]


def test_scenario_ledgers_verify_and_match_report(tmp_path):
    result = _run(make_benign_config(4))
    for partition in ("P1", "P2"):
        ledger = result.ledgers[partition]
        assert verify_chain(ledger)
        chain = result.report.chain[partition]
        assert chain["blocks"] == len(ledger.blocks)
        assert chain["tx_total"] == len(ledger.tid_index)
        assert chain["cblock_id"] == ledger.cblock_id.hex()


def test_audit_lines_are_json_rounds():
    result = _run(make_benign_config(6))
    assert result.audit_lines
    for line in result.audit_lines:
        record = json.loads(line)
        assert record["outcome"] in ("Committed", "Rejected", "Diverged", "SkippedHalted")


# --- the three adversary classes ----------------------------------------------

def test_tamper_cblock_attack_diverges_with_attribution():
    report = run_scenario(make_attack_config(1, AttackClass.TAMPER_CBLOCK))
    assert report.attack_detected is True
    hits = [d for d in report.detections if d["kind"] == "diverged_round"]
    assert hits and hits[0]["partition"] == "P1"
    assert hits[0]["attributed"] == ["am-0"]
    assert report.halted["P1"]


def test_suppress_evidence_attack_diverges_next_round():
    report = run_scenario(make_attack_config(2, AttackClass.SUPPRESS_EVIDENCE))
    assert report.attack_detected is True
    assert any(
        d["kind"] == "diverged_round" and d["partition"] == "P1" for d in report.detections
    )


def test_suppression_by_decision_validator_is_seen_but_unattributable():
    base = make_attack_config(3, AttackClass.SUPPRESS_EVIDENCE)
    config = dataclasses.replace(
        base,
        attack=AttackConfig(
            attack_class=AttackClass.SUPPRESS_EVIDENCE,
            at=base.attack.at,
            actor="gta-0",
        ),
    )
    report = run_scenario(config)
    assert report.attack_detected is True
    hits = [d for d in report.detections if d["kind"] == "diverged_round"]
    assert hits and hits[0]["partition"] == "P2"
    # Two validators, one honest each way: no plurality, nobody named.
    assert hits[0]["attributed"] == []


def test_false_information_attack_names_the_forger():
    report = run_scenario(make_attack_config(4, AttackClass.FALSE_INFORMATION))
    assert report.attack_detected is True
    hits = [d for d in report.detections if d["kind"] == "forged_evidence"]
    assert hits and "am-0" in hits[0]["attributed"]
    assert hits[0]["forged_ret_tids"]
    assert any("FalseInfoDetected" in v["flags"] for v in report.verdicts)
    # Replica state never went out of sync: no divergence for this class.
    assert not any(d["kind"] == "diverged_round" for d in report.detections)


@pytest.mark.parametrize("attack_class", list(AttackClass))
def test_every_attack_class_detected_on_a_second_seed(attack_class):
    report = run_scenario(make_attack_config(7, attack_class))
    assert report.attack_scripted == attack_class.value
    assert report.attack_detected is True


# --- collisions and identity reveal -------------------------------------------

def _hit_and_run_config():
    return ScenarioConfig(
        seed=11,
        vehicles=(VehicleSpec(), VehicleSpec(), VehicleSpec()),
        timeline=(
            SafetyEvent(at=50.0, vehicle=0, trigger=EventTrigger.HARD_BRAKE),
            CollisionEvent(at=400.0, vehicles=(0, 1), n_witnesses=1, hit_and_run=True),
        ),
    )


def test_hit_and_run_reveals_the_fleeing_vehicle():
    report = run_scenario(_hit_and_run_config())
    assert len(report.reveals) == 1
    reveal = report.reveals[0]
    assert reveal["entity"].startswith("av-")
    assert len(bytes.fromhex(reveal["cert_id"])) == 32
    # The fleeing party never submitted evidence, so its PET count is
    # one short of the involved count.
    pets = report.counts["P1"]["committed"]["PET"]
    assert pets == 2  # one involved submitter plus one witness
    assert report.verdicts and report.verdicts[0]["case_id"] == reveal["case_id"]


def test_benign_collision_produces_verdict_and_no_reveal():
    config = dataclasses.replace(
        _hit_and_run_config(),
        timeline=(
            SafetyEvent(at=50.0, vehicle=0, trigger=EventTrigger.HARD_BRAKE),
            CollisionEvent(at=400.0, vehicles=(0, 1), n_witnesses=1, hit_and_run=False),
        ),
    )
    report = run_scenario(config)
    assert report.reveals == []
    assert len(report.verdicts) == 1
    assert report.counts["P1"]["committed"]["PET"] == 3


def test_empty_timeline_still_reports():
    config = ScenarioConfig(seed=0, vehicles=(VehicleSpec(),), timeline=())
    report = run_scenario(config)
    assert report.verdicts == [] and report.detections == []
    assert all(
        count == 0
        for buckets in report.counts.values()
        for kinds in buckets.values()
        for count in kinds.values()
    )


def test_update_without_execution_counts_ut_only():
    config = ScenarioConfig(
        seed=5,
        vehicles=(VehicleSpec(),),
        timeline=(UpdateEvent(at=100.0, vehicle=0, execution="none"),),
    )
    report = run_scenario(config)
    assert report.counts["P1"]["committed"]["UT"] == 1
    assert report.counts["P1"]["committed"]["ET"] == 0


def test_lossy_network_still_conserves_and_verifies():
    config = dataclasses.replace(
        make_benign_config(9), network=NetworkConfig(drop_prob=0.45, retry_interval_secs=5.0)
    )
    result = _run(config)
    report = result.report
    for buckets in report.counts.values():
        for kind in buckets["emitted"]:
            assert buckets["emitted"][kind] == (
                buckets["committed"][kind]
                + buckets["rejected"][kind]
                + buckets["undeliverable"][kind]
            )
    assert verify_chain(result.ledgers["P1"])


# --- configuration ------------------------------------------------------------

def test_config_json_round_trip():
    for config in (
        make_benign_config(0),
        make_attack_config(1, AttackClass.TAMPER_CBLOCK),
        _hit_and_run_config(),
    ):
        assert config_from_jsonable(config_to_jsonable(config)) == config


def test_load_config_reads_files(tmp_path):
    config = make_benign_config(12)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config_to_jsonable(config)))
    assert load_config(str(path)) == config


@pytest.mark.parametrize(
    "mangle, path_hint",
    [
        (lambda d: d.__setitem__("seed", "zero"), "$.seed"),
        (lambda d: d["timeline"][0].__setitem__("vehicle", 99), "vehicle"),
        (lambda d: d["timeline"][0].__setitem__("at", 1e9), "at"),
        (lambda d: d["network"].__setitem__("drop_prob", 1.0), "drop_prob"),
        (lambda d: d["timeline"][0].__setitem__("type", "eclipse"), "type"),
        (lambda d: d.__setitem__("vehicles", []), "vehicles"),
    ],
)
def test_config_validation_names_the_bad_field(mangle, path_hint):
    data = config_to_jsonable(make_benign_config(0))
    mangle(data)
    with pytest.raises(ConfigError) as err:
        config_from_jsonable(data)
    assert path_hint in str(err.value)


def test_attack_actor_must_hold_infrastructure_role():
    data = config_to_jsonable(make_attack_config(0, AttackClass.TAMPER_CBLOCK))
    data["attack"]["actor"] = "av-0"
    with pytest.raises(ConfigError):
        config_from_jsonable(data)


def test_witness_demand_cannot_exceed_bystanders():
    data = config_to_jsonable(make_benign_config(0))
    for event in data["timeline"]:
        if event["type"] == "collision":
            event["n_witnesses"] = 50
    with pytest.raises(ConfigError):
        config_from_jsonable(data)


def test_hit_and_run_needs_a_second_party():
    data = config_to_jsonable(_hit_and_run_config())
    for event in data["timeline"]:
        if event["type"] == "collision":
            event["vehicles"] = [0]
    with pytest.raises(ConfigError):
        config_from_jsonable(data)


def test_report_json_is_sorted_and_stable():
    report = run_scenario(make_benign_config(1))
    rendered = report.to_json()
    parsed = json.loads(rendered)
    assert rendered == json.dumps(parsed, sort_keys=True, indent=2) + "\n"
    assert list(parsed) == sorted(parsed)
