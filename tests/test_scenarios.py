"""End-to-end scenario runs: determinism, accounting conservation, the
three adversary classes, and configuration handling."""

import dataclasses
import json
import math
import os
import random
import signal
import subprocess
import sys
import threading
import time

import pytest

from avledger import forks, identity, scenarios
from avledger import ledger as ledger_module
from avledger.errors import ConfigError, MalformedCase, NotFound
from avledger.identity import InlineChecks, PseudonymCertificate, generate_keypair
from avledger.ledger import CaRootCert, chain_faults, load_ledger, make_genesis, save_ledger
from avledger.scenarios import (
    PET_CLOCK_OFFSET_SECS,
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
)
from avledger.txmodel import EventTrigger, Reason, TxKind, body_timestamp, check_tx_genesis, compute_edata_hash

from worldkit import append_by_hand, disputes_shaped_config, make_edata, make_est, make_world


def _run(config):
    return ScenarioEngine(config).run()


# --- attack helpers -----------------------------------------------------------

def test_tamper_cblock_rewrites_local_fold():
    world = make_world(seed=100)
    ledger = world.ledger()
    a = make_est(world, at=1000.0)
    b = make_est(world, at=1010.0)
    append_by_hand(ledger, a)
    append_by_hand(ledger, b)
    ledger.remove_open(a.tid)
    assert ledger.find(a.tid) is None
    assert [t.tid for t in ledger.open_transactions()] == [b.tid]
    # The local trail is internally consistent after the edit, so the
    # deletion is invisible to a lone replica and only consensus sees it.
    assert chain_faults(ledger) == []
    with pytest.raises(NotFound):
        ledger.remove_open(a.tid)


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
    for partition in ("P1", "P2"):
        a = tmp_path / f"a_{partition}.bin"
        b = tmp_path / f"b_{partition}.bin"
        save_ledger(first.ledgers[partition], str(a))
        save_ledger(second.ledgers[partition], str(b))
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("seed", [0, 1, 2, 5, 8])
def test_emitted_equals_committed_plus_rejected_plus_undeliverable(seed):
    report = _run(make_benign_config(seed)).report
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
    report = _run(make_benign_config(seed)).report
    assert report.detections == []
    assert report.attack_scripted is None and report.attack_detected is None
    assert not report.halted["P1"] and not report.halted["P2"]


def test_scenario_ledgers_verify_and_match_report(tmp_path):
    result = _run(make_benign_config(4))
    for partition in ("P1", "P2"):
        ledger = result.ledgers[partition]
        assert chain_faults(ledger) == []
        chain = result.report.chain[partition]
        assert chain["blocks"] == len(ledger.block_ids())
        assert chain["tx_total"] == len(ledger.tid_index)
        assert chain["cblock_id"] == ledger.cblock_id.hex()


def test_a_collision_free_run_and_every_loaded_file_hold_no_query_index(tmp_path):
    # Only a collision case queries a replica by kind, so no replica of a
    # run without one, and no ledger load_ledger returns, builds the index.
    config = make_benign_config(4)
    timeline = tuple(e for e in config.timeline if not isinstance(e, CollisionEvent))
    assert len(timeline) < len(config.timeline)
    engine = ScenarioEngine(dataclasses.replace(config, timeline=timeline))
    result = engine.run()
    replicas = [lg for by_validator in engine.replicas.values() for lg in by_validator.values()]
    assert len(replicas) == 5 and result.ledgers["P1"].tid_index
    assert [lg._rows for lg in replicas] == [None] * 5
    for partition in ("P1", "P2"):
        path = tmp_path / f"{partition}.avl"
        save_ledger(result.ledgers[partition], str(path))
        loaded = load_ledger(str(path))
        assert loaded._rows is None and loaded.tid_index == result.ledgers[partition].tid_index


def test_audit_lines_are_json_rounds():
    result = _run(make_benign_config(6))
    assert result.audit_lines
    for line in result.audit_lines:
        record = json.loads(line)
        assert record["outcome"] in ("Committed", "Rejected", "Diverged", "SkippedHalted")


# --- the three adversary classes ----------------------------------------------

def test_tamper_cblock_attack_diverges_with_attribution():
    report = _run(make_attack_config(1, AttackClass.TAMPER_CBLOCK)).report
    assert report.attack_detected is True
    hits = [d for d in report.detections if d["kind"] == "diverged_round"]
    assert hits and hits[0]["partition"] == "P1"
    assert hits[0]["attributed"] == ["am-0"]
    assert report.halted["P1"]


def test_suppress_evidence_attack_diverges_next_round():
    report = _run(make_attack_config(2, AttackClass.SUPPRESS_EVIDENCE)).report
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
    report = _run(config).report
    assert report.attack_detected is True
    hits = [d for d in report.detections if d["kind"] == "diverged_round"]
    assert hits and hits[0]["partition"] == "P2"
    # Two validators, one honest each way: no plurality, nobody named.
    assert hits[0]["attributed"] == []


def test_false_information_attack_names_the_forger():
    report = _run(make_attack_config(4, AttackClass.FALSE_INFORMATION)).report
    assert report.attack_detected is True
    hits = [d for d in report.detections if d["kind"] == "forged_evidence"]
    assert hits and "am-0" in hits[0]["attributed"]
    assert hits[0]["forged_ret_tids"]
    assert any("FalseInfoDetected" in v["flags"] for v in report.verdicts)
    # Replica state never went out of sync: no divergence for this class.
    assert not any(d["kind"] == "diverged_round" for d in report.detections)


@pytest.mark.parametrize("attack_class", list(AttackClass))
def test_every_attack_class_detected_on_a_second_seed(attack_class):
    report = _run(make_attack_config(7, attack_class)).report
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
    report = _run(_hit_and_run_config()).report
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
    report = _run(config).report
    assert report.reveals == []
    assert len(report.verdicts) == 1
    assert report.counts["P1"]["committed"]["PET"] == 3


def test_empty_timeline_still_reports():
    config = ScenarioConfig(seed=0, vehicles=(VehicleSpec(),), timeline=())
    report = _run(config).report
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
    report = _run(config).report
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
    assert chain_faults(result.ledgers["P1"]) == []


def test_each_case_is_adjudicated_once_over_a_committed_pet(monkeypatch):
    """A case goes to the adjudicator once, after its last evidence
    request ends, and only when some party's PET committed; a scene whose
    PETs all died has nothing to adjudicate."""
    calls = []

    def spy(case, ledger, decisions, params, at=None):
        calls.append((case, ledger))
        return adjudicate(case, ledger, decisions, params, at)

    adjudicate = scenarios.adjudicate
    monkeypatch.setattr(scenarios, "adjudicate", spy)
    runs = verdicts = 0
    for drop, attempts in ((0.0, 10), (0.7, 10), (0.7, 3), (0.9, 2)):
        for seed in range(20):
            config = dataclasses.replace(
                make_benign_config(seed), network=NetworkConfig(drop_prob=drop, max_attempts=attempts)
            )
            calls.clear()
            report = _run(config).report
            runs += 1
            verdicts += len(report.verdicts)
            case_ids = [case.case_id for case, _ in calls]
            assert len(set(case_ids)) == len(case_ids), (drop, attempts, seed)
            for case, ledger in calls:
                assert any(
                    party.pet_tid is not None and ledger.find(party.pet_tid) is not None
                    for party in case.parties
                ), (drop, attempts, seed)
            assert [v["case_id"] for v in report.verdicts] == case_ids
    assert (runs, verdicts) == (80, 56)


def test_a_case_naming_another_partys_evidence_requests_is_refused(monkeypatch):
    """Every RET the engine commits carries its party's PET certificate,
    so a case that swaps two parties' RETs names none of its own: the
    adjudicator refuses it rather than finding the honest requesters
    forgers."""
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return adjudicate(*args, **kwargs)

    adjudicate = scenarios.adjudicate
    monkeypatch.setattr(scenarios, "adjudicate", spy)
    report = _run(make_benign_config(0)).report
    [((case, ledger, decisions, params), kwargs)] = calls
    assert adjudicate(case, ledger, decisions, params, **kwargs).to_jsonable() == report.verdicts[0]
    first, second = case.parties
    assert first.ret_tids and second.ret_tids
    swapped = dataclasses.replace(
        case,
        parties=(
            dataclasses.replace(first, ret_tids=second.ret_tids),
            dataclasses.replace(second, ret_tids=first.ret_tids),
        ),
    )
    with pytest.raises(MalformedCase, match="PET certificate"):
        adjudicate(swapped, ledger, decisions, params, **kwargs)


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


def test_cert_validity_below_the_pet_clock_offset_is_refused():
    """A pool key used just before the next fleet batch keeps about one
    validity of its window, and a PET's clock may run up to
    PET_CLOCK_OFFSET_SECS ahead of its scene. So a shorter validity is
    refused at its path, and at the floor itself no benign run rejects
    an honest transaction."""
    data = config_to_jsonable(make_benign_config(0))
    for short in (1e-9, 0.5, math.nextafter(PET_CLOCK_OFFSET_SECS, 0.0)):
        data["cert_validity_secs"] = short
        with pytest.raises(ConfigError) as err:
            config_from_jsonable(data)
        assert err.value.field == "$.cert_validity_secs"
        assert "clock" in str(err.value) and "expires honest evidence" in str(err.value)
    for seed in range(20):
        data = config_to_jsonable(make_benign_config(seed))
        data["cert_validity_secs"] = PET_CLOCK_OFFSET_SECS
        report = _run(config_from_jsonable(data)).report
        for part in ("P1", "P2"):
            assert not any(report.counts[part]["rejected"].values()), (seed, part)
            assert report.consensus[part]["diverged"] == 0, (seed, part)
        assert report.detections == [], seed


def test_attack_actor_must_hold_infrastructure_role():
    data = config_to_jsonable(make_attack_config(0, AttackClass.TAMPER_CBLOCK))
    data["attack"]["actor"] = "av-0"
    with pytest.raises(ConfigError):
        config_from_jsonable(data)


@pytest.mark.parametrize("actor", ["st-0", "gta-0", "la-0"])
def test_false_information_actor_must_request_evidence(actor):
    """Only an evidence requester can forge a copy, so any other
    infrastructure actor is refused at its path; a replica attack takes
    every one of them, since each validates a partition."""
    data = config_to_jsonable(make_attack_config(0, AttackClass.FALSE_INFORMATION))
    data["attack"]["actor"] = actor
    with pytest.raises(ConfigError) as err:
        config_from_jsonable(data)
    assert err.value.field == "$.attack.actor"
    for ok_actor in ("ic-0", "am-0", None):
        data["attack"]["actor"] = ok_actor
        assert config_from_jsonable(data).attack.actor == ok_actor
    for cls in (AttackClass.TAMPER_CBLOCK, AttackClass.SUPPRESS_EVIDENCE):
        replica = config_to_jsonable(make_attack_config(0, cls))
        replica["attack"]["actor"] = actor
        assert config_from_jsonable(replica).attack.actor == actor


def test_false_information_takes_no_target_kind():
    data = config_to_jsonable(make_attack_config(0, AttackClass.FALSE_INFORMATION))
    data["attack"]["target_kind"] = "RET"
    with pytest.raises(ConfigError) as err:
        config_from_jsonable(data)
    assert err.value.field == "$.attack.target_kind"


def test_false_information_forges_only_requests_built_at_or_after_at():
    """The insurer's requests go out 5 s and the maker's 20 s after the
    scene's last PET; arming the forger between or after them decides
    which copies are forged."""
    base = make_attack_config(4, AttackClass.FALSE_INFORMATION)
    assert _run(base).report.attack_detected is True
    for actor, late in (("am-0", 1e9), ("ic-0", base.attack.at + 10.0)):
        config = dataclasses.replace(base, attack=dataclasses.replace(base.attack, actor=actor, at=late))
        report = _run(config).report
        assert report.attack_detected is False, actor
        assert not any("FalseInfoDetected" in v["flags"] for v in report.verdicts)
    early_insurer = dataclasses.replace(base, attack=dataclasses.replace(base.attack, actor="ic-0"))
    hits = [d for d in _run(early_insurer).report.detections if d["kind"] == "forged_evidence"]
    assert hits and hits[0]["attributed"] == ["ic-0"]


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
    report = _run(make_benign_config(1)).report
    rendered = report.to_json()
    parsed = json.loads(rendered)
    assert rendered == json.dumps(parsed, sort_keys=True, indent=2) + "\n"
    assert list(parsed) == sorted(parsed)


# --- pseudonym batches ----------------------------------------------------------

@pytest.fixture
def issued(monkeypatch):
    """Every batch the engine's CA issues, in order."""
    batches = []
    real = scenarios.issue_certificate

    def recording(*args):
        certs = real(*args)
        batches.append(certs)
        return certs

    monkeypatch.setattr(scenarios, "issue_certificate", recording)
    return batches


def _owners(engine) -> dict:
    """Vehicle of every certificate the engine's CA issued, by subject key.
    A key stays with one vehicle until it is used, so every key is in
    some vehicle's history or pool when the run ends. Where the
    certificate was used, the escrow must name the same vehicle."""
    owners = {}
    for vehicle in engine.vehicles:
        for pubkey, cert in vehicle.cert_history:
            owners[pubkey] = engine.escrow.reveal_identity(cert.cert_id, {"gta-0", "la-0"})
            assert owners[pubkey] == vehicle.entity_id
        for keys, _batch, _index in vehicle.pool:
            owners[keys.public_key] = vehicle.entity_id
    return owners


def test_no_batch_root_ties_pseudonyms_to_one_vehicle(issued):
    """Every root over more than one leaf covers the whole fleet, and its
    leaves are shuffled: across all batches, neighbouring leaves of one
    vehicle are far fewer than if each vehicle's keys sat together."""
    configs = [make_benign_config(seed) for seed in range(20)] + [disputes_shaped_config(5)]
    together = neighbours = shared = 0
    for config in configs:
        issued.clear()
        engine = ScenarioEngine(config)
        engine.run()
        owners = _owners(engine)
        for certs in issued:
            if len(certs) == 1:
                continue
            shared += 1
            order = [owners[cert.subject_pubkey] for cert in certs]
            assert set(order) == {v.entity_id for v in engine.vehicles}
            neighbours += sum(a == b for a, b in zip(order, order[1:]))
            together += len(order) - len(set(order))
    assert shared >= len(configs)
    assert neighbours < together / 2, (neighbours, together)


def test_a_run_builds_a_certificate_for_each_key_used_and_no_other(issued, monkeypatch):
    """A batch builds a certificate when its key is first used, so a run
    builds as many as its vehicles' histories hold, while the CA still
    certifies every pooled key."""
    built = []
    init = PseudonymCertificate.__init__

    def counting(self, *values):
        built.append(values[0])
        init(self, *values)

    monkeypatch.setattr(PseudonymCertificate, "__init__", counting)
    configs = [make_benign_config(seed) for seed in range(5)]
    configs += [make_attack_config(0, attack) for attack in AttackClass] + [disputes_shaped_config(6)]
    for config in configs:
        built.clear()
        issued.clear()
        engine = ScenarioEngine(config)
        engine.run()
        used = [cert.cert_id for v in engine.vehicles for _, cert in v.cert_history]
        assert sorted(built) == sorted(used)
        assert sum(len(batch) for batch in issued) >= len(used) > 0
    assert sum(len(batch) for batch in issued) > len(used)  # the fleet run left keys unused


def test_pools_lose_no_key_and_leave_every_use_a_full_window(issued):
    config = disputes_shaped_config(6)
    engine = ScenarioEngine(config)
    assert issued == []  # the constructor issues nothing
    result = engine.run()
    certified = {cert.subject_pubkey for certs in issued for cert in certs}
    used = [pubkey for v in engine.vehicles for pubkey, _ in v.cert_history]
    pooled = [keys.public_key for v in engine.vehicles for keys, _batch, _index in v.pool]
    assert len(set(used)) == len(used) and not set(used) & set(pooled)
    assert certified == set(used) | set(pooled)
    # A batch is the whole fleet's pools, or one key of a vehicle whose
    # pool ran dry; some of each happen here.
    sizes = [len(certs) for certs in issued]
    assert 1 in sizes and any(size > len(engine.vehicles) for size in sizes)
    validity = config.cert_validity_secs
    for tx in result.ledgers["P1"].all_transactions():
        if tx.kind is not TxKind.EVIDENCE_REQUEST:
            left = tx.cert.issued_at + tx.cert.validity_secs - body_timestamp(tx)
            assert left > validity - 1.0, (tx.kind, left)


# --- every check of a run made in one helper process -----------------------------

def _outputs(result, tmp_path, name) -> tuple:
    """The report JSON, the audit lines and both saved ledger files."""
    files = []
    for part, ledger in sorted(result.ledgers.items()):
        path = tmp_path / f"{name}-{part}.bin"
        save_ledger(ledger, str(path))
        files.append(path.read_bytes())
    return result.report.to_json(), list(result.audit_lines), files


def _force_helper(monkeypatch, deferred: bool) -> None:
    """Every run from now on makes its checks in the process's check
    helper, or inline, whatever this host."""
    monkeypatch.setattr(forks, "fork_pays", lambda: deferred)


def _run_with_helper(monkeypatch, config, deferred: bool):
    """The run with its checks made in a helper process, or inline."""
    _force_helper(monkeypatch, deferred)
    return _run(config)


def _counting_plays(monkeypatch) -> list:
    plays = []
    play = ScenarioEngine._play

    def counting_play(engine):
        plays.append(engine)
        return play(engine)

    monkeypatch.setattr(ScenarioEngine, "_play", counting_play)
    return plays


def _counting_forks(monkeypatch) -> list:
    """The pid of every child forked from now on."""
    pids = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failed_deferred_check_replays_the_run_inline(monkeypatch, tmp_path):
    """One EST's signature has a bit flipped after it was signed, its tid
    kept, so only its signature check fails. In the helper that check
    fails after the round accepted the EST; run() throws that run away
    and replays it inline, which gives the inline path's bytes."""
    build = scenarios.build_transaction
    ests = []

    def flip_second_est(kind, *args, **kwargs):
        tx = build(kind, *args, **kwargs)
        if kind is TxKind.EVENT_SAFETY:
            ests.append(tx.tid)
            if len(ests) == 2:
                entry = tx.signatures[0]
                flipped = bytes([entry.signature[0] ^ 0x01]) + entry.signature[1:]
                tx = dataclasses.replace(tx, signatures=(dataclasses.replace(entry, signature=flipped),))
        return tx

    monkeypatch.setattr(scenarios, "build_transaction", flip_second_est)
    plays = []
    play = ScenarioEngine._play

    def counting_play(engine):
        plays.append(engine)
        ests.clear()  # each play flips its own second EST
        return play(engine)

    monkeypatch.setattr(ScenarioEngine, "_play", counting_play)
    config = make_benign_config(0)

    deferred = _run_with_helper(monkeypatch, config, True)
    assert len(plays) == 2 and plays[0] is plays[1]  # the deferred run, then its replay
    bad = [line for line in deferred.audit_lines if '"BadSignature"' in line]
    assert len(bad) == 1 and ests[1].hex() in bad[0]
    assert json.loads(bad[0])["outcome"] == "Rejected"
    assert deferred.report.counts["P1"]["rejected"]["EST"] == 1

    plays.clear()
    inline = _run_with_helper(monkeypatch, config, False)
    assert len(plays) == 1
    assert _outputs(deferred, tmp_path, "deferred") == _outputs(inline, tmp_path, "inline")


def _flip(blob: bytes) -> bytes:
    return bytes([blob[0] ^ 0x01]) + blob[1:]


# Four ways to forge a certificate that only its audit path or root
# signature can refuse, and one forgery whose window is wrong too.
CERT_FORGERIES = {
    "flipped path node": lambda cert: dataclasses.replace(cert, audit_path=_flip(cert.audit_path)),
    "wrong leaf index": lambda cert: dataclasses.replace(cert, leaf_index=(cert.leaf_index + 1) % cert.batch_size),
    "wrong batch size": lambda cert: dataclasses.replace(cert, batch_size=cert.batch_size + 1),
    "flipped root signature": lambda cert: dataclasses.replace(cert, root_signature=_flip(cert.root_signature)),
    # A window that opens long after the EST: a new leaf, so the path
    # leads to a root the CA never signed.
    "forged and out of its window": lambda cert: dataclasses.replace(cert, issued_at=cert.issued_at + 1e6),
}


@pytest.mark.parametrize("forgery", sorted(CERT_FORGERIES))
def test_a_forged_certificate_fails_in_the_helper_and_replays_inline(monkeypatch, tmp_path, forgery):
    """The second EST whose batch holds two keys or more is built under a
    forged certificate, and signed over its new tid, so only the
    certificate rule can refuse it. In the helper that check fails after
    the round accepted the EST; run() replays the run inline, which logs
    BadSignature for it and gives the inline path's bytes. The inline
    rule judges the certificate before its window, so a forgery out of
    its window is BadSignature too, though the helper's play, which
    judged the window alone, logged ExpiredCert."""
    build = scenarios.build_transaction
    ests, tids = [], []

    def forge_second_est(kind, body, keys, cert, *args, **kwargs):
        if kind is TxKind.EVENT_SAFETY and cert.batch_size > 1:
            ests.append(cert)
            if len(ests) == 2:
                tx = build(kind, body, keys, CERT_FORGERIES[forgery](cert), *args, **kwargs)
                tids.append(tx.tid)
                return tx
        return build(kind, body, keys, cert, *args, **kwargs)

    monkeypatch.setattr(scenarios, "build_transaction", forge_second_est)
    plays = []
    play = ScenarioEngine._play

    def recording_play(engine):
        ests.clear()  # each play forges its own second EST
        result = play(engine)
        plays.append(result.audit_lines[:])
        return result

    monkeypatch.setattr(ScenarioEngine, "_play", recording_play)
    config = make_benign_config(0)
    deferred = _run_with_helper(monkeypatch, config, True)
    assert len(plays) == 2 and len(tids) == 2 and tids[0] == tids[1]  # the deferred run, then its replay
    bad = [line for line in deferred.audit_lines if '"BadSignature"' in line]
    assert len(bad) == 1 and tids[0].hex() in bad[0]
    assert json.loads(bad[0])["outcome"] == "Rejected"
    [helper_line] = [line for line in plays[0] if tids[0].hex() in line]
    if forgery == "forged and out of its window":
        assert '"ExpiredCert"' in helper_line
    else:
        assert json.loads(helper_line)["outcome"] == "Committed"

    inline = _run_with_helper(monkeypatch, config, False)
    assert len(plays) == 3
    assert _outputs(deferred, tmp_path, "deferred") == _outputs(inline, tmp_path, "inline")


def test_a_certificate_under_a_second_ca_root_holds_in_the_helper(monkeypatch, tmp_path):
    """The helper tries every CA root of the genesis, as the inline rule
    does, so certificates the second root signed hold there: the run is
    played once, in one helper, and gives the inline path's bytes."""
    add_root = scenarios.make_genesis

    def two_roots(partition, ca_certificates, membership, b_max):
        [root] = ca_certificates
        decoy = dataclasses.replace(root, name="decoy-root-ca", public_key=bytes(range(32)))
        return add_root(partition, [decoy, root], membership, b_max)

    monkeypatch.setattr(scenarios, "make_genesis", two_roots)
    plays = _counting_plays(monkeypatch)
    pids = _counting_forks(monkeypatch)
    config = make_benign_config(2)
    deferred = _run_with_helper(monkeypatch, config, True)
    assert len(plays) == 1 and len(pids) == 1
    inline = _run_with_helper(monkeypatch, config, False)
    assert len(plays) == 2 and len(pids) == 1
    assert sum(deferred.report.counts["P1"]["committed"].values()) > 0
    assert _outputs(deferred, tmp_path, "deferred") == _outputs(inline, tmp_path, "inline")


def test_one_inline_checks_object_carries_no_verdict_across_ca_roots():
    """A batch root found signed under one genesis's CA roots is not
    taken as signed under another's, in either order."""
    world = make_world(seed=29)
    tx = make_est(world, at=1000.0)
    rogue = CaRootCert("rogue-root-ca", generate_keypair(world.rng).public_key)
    other = make_genesis(world.p1.partition, [rogue], world.p1.membership, world.p1.b_max)
    checks = InlineChecks()
    for _ in range(2):
        assert check_tx_genesis(tx, world.p1, checks) is Reason.OK
        assert check_tx_genesis(tx, other, checks) is Reason.BAD_SIGNATURE
    assert [keys for keys, *_ in checks.signed_roots] == [world.p1.ca_keys()]
    checks = InlineChecks()
    assert check_tx_genesis(tx, other, checks) is Reason.BAD_SIGNATURE
    assert check_tx_genesis(tx, world.p1, checks) is Reason.OK


class _Planted(Exception):
    """An error a test plants in the program."""


def test_a_worker_that_raises_makes_run_raise_as_inline(monkeypatch):
    """BACKEND.verify raises on the check that is its n-th call in an
    inline run, a transaction signature. In the helper that error only
    ends the helper; the inline replay raises it from run()."""
    config = make_benign_config(0)
    real = identity.BACKEND
    messages = []

    def recording(public_key, message, signature):
        messages.append(message)
        return real.verify(public_key, message, signature)

    monkeypatch.setattr(identity, "BACKEND", real._replace(verify=recording))
    _run_with_helper(monkeypatch, config, False)
    nth = [m for m in messages if m.startswith(identity._TX_SIGN_PREFIX)][5]

    def raising(public_key, message, signature):
        if message == nth:
            raise _Planted(message.hex())
        return real.verify(public_key, message, signature)

    monkeypatch.setattr(identity, "BACKEND", real._replace(verify=raising))
    threads = threading.active_count()
    for deferred in (False, True):
        with pytest.raises(_Planted):
            _run_with_helper(monkeypatch, config, deferred)
        assert threading.active_count() == threads


@pytest.mark.parametrize("failure", ["killed", "backend raises"])
def test_a_helper_that_fails_mid_run_replays_inline(monkeypatch, tmp_path, failure):
    """The helper is killed with SIGKILL while the run goes on, or its
    backend raises on a check the parent's would pass: run() replays the
    scenario inline and gives the inline path's bytes."""
    config = make_benign_config(3)
    plays = _counting_plays(monkeypatch)
    inline = _run_with_helper(monkeypatch, config, False)
    parent, real = os.getpid(), identity.BACKEND

    def raising_in_helper(public_key, message, signature):
        if os.getpid() != parent:
            raise _Planted("the helper's backend failed")
        return real.verify(public_key, message, signature)

    pids = _counting_forks(monkeypatch)
    if failure == "killed":
        calls = []
        trigger = ScenarioEngine.trigger_event_safety

        def killing(engine, event):
            calls.append(event)
            if len(calls) == 3 and pids:
                os.kill(pids[0], signal.SIGKILL)
            trigger(engine, event)

        monkeypatch.setattr(ScenarioEngine, "trigger_event_safety", killing)
    else:
        monkeypatch.setattr(identity, "BACKEND", real._replace(verify=raising_in_helper))
    deferred = _run_with_helper(monkeypatch, config, True)
    assert len(pids) == 1 and len(plays) == 3  # inline, then the deferred run and its replay
    assert _outputs(deferred, tmp_path, "deferred") == _outputs(inline, tmp_path, "inline")


def test_a_run_with_a_second_thread_alive_forks_nothing(monkeypatch, tmp_path):
    """The one fork rule: with another thread alive, run() forks no
    helper and makes every check inline, in this process, even where two
    CPUs are usable."""
    config = make_benign_config(4)
    real = identity.BACKEND
    checks = []

    def counting(public_key, message, signature):
        checks.append(message)
        return real.verify(public_key, message, signature)

    monkeypatch.setattr(identity, "BACKEND", real._replace(verify=counting))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    pids = _counting_forks(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait, args=(60,))
    other.start()
    try:
        alive = _run(config)
    finally:
        release.set()
        other.join(timeout=60)
    assert not other.is_alive()
    assert pids == []
    alive_checks = len(checks)
    checks.clear()
    inline = _run_with_helper(monkeypatch, config, False)
    assert alive_checks == len(checks) > 0
    assert _outputs(alive, tmp_path, "alive") == _outputs(inline, tmp_path, "inline")


def test_run_leaves_no_thread_alive_when_it_returns_or_raises(monkeypatch):
    """Nor a second child process or an open pipe end: a run that
    returns and one that raises use the one check helper, which
    forks.close() ends and reaps."""
    _force_helper(monkeypatch, True)
    threads = threading.active_count()
    fds = set(os.listdir("/proc/self/fd"))
    pids = _counting_forks(monkeypatch)
    config = make_benign_config(1)
    _run(config)
    assert threading.active_count() == threads and len(pids) == 1
    assert [helper.pid for helper in forks._HELPERS] == pids

    calls = []
    real = ScenarioEngine.trigger_event_safety

    def failing(engine, event):
        calls.append(event)
        if len(calls) == 3:
            raise _Planted("a timer handler failed")
        real(engine, event)

    monkeypatch.setattr(ScenarioEngine, "trigger_event_safety", failing)
    with pytest.raises(_Planted):
        _run(config)
    assert len(calls) == 3 and len(pids) == 1
    assert threading.active_count() == threads
    [helper] = forks._HELPERS
    assert helper.pid == pids[0] and helper.in_flight == 0
    forks.close()
    assert set(os.listdir("/proc/self/fd")) == fds
    _no_child_left()


def test_a_run_and_the_verify_after_it_share_one_helper(monkeypatch):
    """The run's helper serves chain_faults right after it: one fork in
    all, and chain_faults' lists go to the helper the run used. Each
    check is slowed down in the helper, so that the run returns only
    after waiting for its acks: the helper holds nothing in flight when
    chain_faults starts."""
    real = identity.BACKEND

    def slow(public_key, message, signature):
        time.sleep(0.001)
        return real.verify(public_key, message, signature)

    monkeypatch.setattr(identity, "BACKEND", real._replace(verify=slow))
    _force_helper(monkeypatch, True)
    pids = _counting_forks(monkeypatch)
    ledger = _run(disputes_shaped_config(5, n_events=120)).ledgers["P1"]
    monkeypatch.setattr(identity, "BACKEND", real)
    assert len(ledger.all_transactions()) >= ledger_module.MIN_SENT_RECORDS
    [helper] = forks._HELPERS
    assert helper.in_flight == 0
    sends = []
    send = forks.Helper.send

    def recording(helper, message):
        sends.append(helper.pid)
        send(helper, message)

    monkeypatch.setattr(forks.Helper, "send", recording)
    assert chain_faults(ledger) == []
    assert pids == [helper.pid] and set(sends) == {helper.pid}


def test_no_helper_outlives_its_process():
    """A process that runs chain_faults on a 200-record ledger and one
    fleet run of 128 events or more uses one check helper for both, and
    reaps it before it exits: once the process is gone, so is its
    helper, zombie or not."""
    tests = os.path.dirname(os.path.abspath(__file__))
    code = (
        "import os, sys\n"
        f"sys.path.insert(0, {tests!r})\n"
        "from avledger import forks\n"
        "from avledger.ledger import PartitionLedger, chain_faults\n"
        "from avledger.scenarios import ScenarioEngine\n"
        "from worldkit import disputes_shaped_config\n"
        "forks.fork_pays = lambda: True\n"
        "real_fork, forked = os.fork, []\n"
        "os.fork = lambda: forked.append(1) or real_fork()\n"
        "config = disputes_shaped_config(5, n_events=200)\n"
        "assert len(config.timeline) >= 128\n"
        "p1 = ScenarioEngine(config).run().ledgers['P1']\n"
        "ledger = PartitionLedger(p1.genesis)\n"
        "for tx, fold in list(zip(p1.records, p1.folds))[:200]:\n"
        "    ledger.append_claimed(tx, fold)\n"
        "assert len(ledger.records) == 200 and chain_faults(ledger) == []\n"
        "assert len(forked) == len(forks._HELPERS)\n"
        "print(*[helper.pid for helper in forks._HELPERS])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(tests), "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    pids = [int(pid) for pid in done.stdout.split()]
    assert len(pids) >= 1
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# --- pseudonym keys derived ahead ---------------------------------------------------

# The backends a run may take keys from its helper under: the host's when
# it builds a signer from a seed and its public key at no cost
# (libsodium), and `cryptography` given a signer that derives the key
# again, so that the path runs on a host without libsodium too.
KEY_BACKENDS = {
    "cryptography": identity.CRYPTOGRAPHY._replace(
        signer=lambda seed, public: identity.CRYPTOGRAPHY.keypair(seed)[1]
    ),
}
if identity.BACKEND.signer is not None:
    KEY_BACKENDS[identity.BACKEND.name] = identity.BACKEND


def _taking_keys(monkeypatch, backend) -> list:
    """Runs from now on use backend, and the seed of every key this
    process takes from a helper is listed: Backend.signer builds a
    signer for those keys and no other."""
    taken = []

    def signer(seed, public):
        taken.append(seed)
        return backend.signer(seed, public)

    monkeypatch.setattr(identity, "BACKEND", backend._replace(signer=signer))
    return taken


def _wrong_key(rng, n):
    """Every public key derived ahead with its last bit flipped."""
    return bytes(byte ^ (at % 64 == 63) for at, byte in enumerate(_KEYS_AHEAD(rng, n)))


def _no_key(rng, n):
    return b""


def _dying(rng, n):
    """Derives a group of keys, then the helper dies before it writes
    them."""
    _KEYS_AHEAD(rng, n)
    os._exit(1)


_KEYS_AHEAD = identity._keys_ahead
HELPER_KEYS = {"honest": None, "wrong public key": _wrong_key, "derives nothing": _no_key, "dies mid-derivation": _dying}


@pytest.mark.parametrize("helper_keys", sorted(HELPER_KEYS))
@pytest.mark.parametrize("backend", sorted(KEY_BACKENDS))
def test_keys_from_the_helper_never_move_a_byte(monkeypatch, tmp_path, backend, helper_keys):
    """A fleet run that takes its keys from a helper gives the inline
    bytes: in one play when the helper derives right, and in a replay
    when it answers a wrong public key or dies mid-derivation. A helper
    that derives nothing leaves every key to the engine, which never
    waits for one, in one play."""
    config = disputes_shaped_config(5, n_events=120)
    plays = _counting_plays(monkeypatch)
    taken = _taking_keys(monkeypatch, KEY_BACKENDS[backend])
    inline = _run_with_helper(monkeypatch, config, False)
    assert taken == [] and len(plays) == 1
    if HELPER_KEYS[helper_keys] is not None:
        monkeypatch.setattr(identity, "_keys_ahead", HELPER_KEYS[helper_keys])
    deferred = _run_with_helper(monkeypatch, config, True)
    assert _outputs(deferred, tmp_path, "deferred") == _outputs(inline, tmp_path, "inline")
    replayed = helper_keys in ("wrong public key", "dies mid-derivation")
    assert len(plays) == (3 if replayed else 2)
    assert (len(taken) > 0) is (helper_keys in ("honest", "wrong public key"))


def test_a_run_under_cryptography_takes_no_key_from_its_helper(monkeypatch, tmp_path):
    """Under `cryptography` a signer costs a derivation, so a run sends
    its helper no copy of its stream and derives every key itself: same
    bytes, one play."""
    config = disputes_shaped_config(5, n_events=60)
    monkeypatch.setattr(identity, "BACKEND", identity.CRYPTOGRAPHY)
    inline = _run_with_helper(monkeypatch, config, False)
    told = []
    tell = forks.Helper.tell

    def recording(helper, message):
        told.append(message)
        tell(helper, message)

    monkeypatch.setattr(forks.Helper, "tell", recording)
    plays = _counting_plays(monkeypatch)
    deferred = _run_with_helper(monkeypatch, config, True)
    assert len(plays) == 1 and told == [identity._BEGIN]
    assert _outputs(deferred, tmp_path, "deferred") == _outputs(inline, tmp_path, "inline")


def test_no_derivation_outlives_the_run_that_asked_for_it(monkeypatch, tmp_path):
    """Each key the helper derives ahead takes 0.1 s, so the run's last
    bound asks for seconds of them. close() stops them: the run ends
    without waiting for them, and chain_faults right after it sends its
    checks to the same helper, which derives nothing more, and finds no
    fault."""
    log = tmp_path / "derived"

    def slow(rng, n):
        time.sleep(0.1 * n)
        with open(log, "a") as out:
            out.write("k\n" * n)
        return _KEYS_AHEAD(rng, n)

    monkeypatch.setattr(identity, "_keys_ahead", slow)
    _force_helper(monkeypatch, True)
    monkeypatch.setattr(identity, "BACKEND", identity.BACKEND if identity.BACKEND.signer else KEY_BACKENDS["cryptography"])
    config = disputes_shaped_config(5, n_events=120)
    start = time.monotonic()
    ledger = _run(config).ledgers["P1"]
    assert time.monotonic() - start < 2.0  # each bound asks for 2.4 s of keys or more
    assert len(ledger.records) >= ledger_module.MIN_SENT_RECORDS
    derived = log.read_text().count("k")
    sends = []
    send = forks.Helper.send

    def recording(helper, message):
        sends.append(helper.pid)
        send(helper, message)

    monkeypatch.setattr(forks.Helper, "send", recording)
    assert chain_faults(ledger) == []
    time.sleep(0.2)
    assert sends and log.read_text().count("k") == derived


def test_the_helper_derives_a_prefix_of_the_runs_seed_stream(monkeypatch, tmp_path):
    """The seeds a run's helper derives ahead are the first seeds of
    rng_pseudonyms, in draw order, however far the helper got: it derives
    no seed that the run's draws skip, and none twice."""
    log = tmp_path / "derived"

    def logging(rng, n):
        pairs = _KEYS_AHEAD(rng, n)
        with open(log, "ab") as out:
            out.write(b"".join(pairs[at:at + 32] for at in range(0, len(pairs), 64)))
        return pairs

    monkeypatch.setattr(identity, "_keys_ahead", logging)
    _force_helper(monkeypatch, True)
    monkeypatch.setattr(identity, "BACKEND", identity.BACKEND if identity.BACKEND.signer else KEY_BACKENDS["cryptography"])
    config = disputes_shaped_config(5, n_events=120)
    _run(config)
    derived = log.read_bytes()
    derived = derived[:len(derived) - len(derived) % 32]  # a write the helper may still be making
    assert derived
    stream = scenarios._substream(config.seed, "pseudonyms")
    assert derived == b"".join(stream.randbytes(32) for _ in range(len(derived) // 32))


def test_after_init_the_key_streams_draw_only_nonces_and_seeds():
    """After __init__, rng_keys draws nothing but 16-byte certificate
    nonces and rng_pseudonyms nothing but 32-byte seeds, so the seeds a
    helper derives from its copy of rng_pseudonyms are the seeds the run
    draws, in the same order. A run that draws anything else from
    either, or draws any other way, fails here."""
    engine = ScenarioEngine(disputes_shaped_config(5, n_events=120))

    class Recording(random.Random):
        def randbytes(self, n):
            self.sizes.append(n)
            return super().randbytes(n)

    sizes, starts = {}, {}
    for name in ("rng_keys", "rng_pseudonyms"):
        starts[name] = getattr(engine, name).getstate()
        recording = Recording()
        recording.setstate(starts[name])
        recording.sizes = sizes[name] = []
        setattr(engine, name, recording)
    engine.run()
    assert set(sizes["rng_keys"]) == {16} and set(sizes["rng_pseudonyms"]) == {32}
    assert len(sizes["rng_pseudonyms"]) > 200
    for name, drawn in sizes.items():
        replay = random.Random()
        replay.setstate(starts[name])
        for n in drawn:
            replay.randbytes(n)
        assert replay.getstate() == getattr(engine, name).getstate()
