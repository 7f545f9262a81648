"""End-to-end scenario runs: determinism, accounting conservation, the
three adversary classes, and configuration handling."""

import dataclasses
import json
import os
import threading
import time

import pytest

from avledger import identity, scenarios
from avledger import ledger as ledger_module
from avledger.errors import ConfigError, MalformedCase, NotFound
from avledger.identity import PseudonymCertificate
from avledger.ledger import chain_faults, load_ledger, save_ledger
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
)
from avledger.txmodel import EventTrigger, TxKind, body_timestamp, compute_edata_hash

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


# --- transaction signatures checked on a worker thread ---------------------------

def _outputs(result, tmp_path, name) -> tuple:
    """The report JSON, the audit lines and both saved ledger files."""
    files = []
    for part, ledger in sorted(result.ledgers.items()):
        path = tmp_path / f"{name}-{part}.bin"
        save_ledger(ledger, str(path))
        files.append(path.read_bytes())
    return result.report.to_json(), list(result.audit_lines), files


def _run_with_verifier(monkeypatch, config, deferred: bool):
    """The run with signature checks on the worker thread, or inline."""
    monkeypatch.setattr(scenarios, "background_verify_pays", lambda: deferred)
    return _run(config)


def test_a_failed_deferred_check_replays_the_run_inline(monkeypatch, tmp_path):
    """One EST's signature has a bit flipped after it was signed, its tid
    kept, so only its signature check fails. On the worker that check
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

    deferred = _run_with_verifier(monkeypatch, config, True)
    assert len(plays) == 2 and plays[0] is plays[1]  # the deferred run, then its replay
    bad = [line for line in deferred.audit_lines if '"BadSignature"' in line]
    assert len(bad) == 1 and ests[1].hex() in bad[0]
    assert json.loads(bad[0])["outcome"] == "Rejected"
    assert deferred.report.counts["P1"]["rejected"]["EST"] == 1

    plays.clear()
    inline = _run_with_verifier(monkeypatch, config, False)
    assert len(plays) == 1
    assert _outputs(deferred, tmp_path, "deferred") == _outputs(inline, tmp_path, "inline")


class _Planted(Exception):
    """An error a test plants in the program."""


def test_a_worker_that_raises_makes_run_raise_as_inline(monkeypatch):
    """BACKEND.verify raises on the check that is its n-th call in an
    inline run, a transaction signature. On the worker that error only
    ends the checks; the inline replay raises it from run()."""
    config = make_benign_config(0)
    real = identity.BACKEND
    messages = []

    def recording(public_key, message, signature):
        messages.append(message)
        return real.verify(public_key, message, signature)

    monkeypatch.setattr(identity, "BACKEND", real._replace(verify=recording))
    _run_with_verifier(monkeypatch, config, False)
    nth = [m for m in messages if m.startswith(identity._TX_SIGN_PREFIX)][5]

    def raising(public_key, message, signature):
        if message == nth:
            raise _Planted(message.hex())
        return real.verify(public_key, message, signature)

    monkeypatch.setattr(identity, "BACKEND", real._replace(verify=raising))
    threads = threading.active_count()
    for deferred in (False, True):
        with pytest.raises(_Planted):
            _run_with_verifier(monkeypatch, config, deferred)
        assert threading.active_count() == threads


def test_run_leaves_no_thread_alive_when_it_returns_or_raises(monkeypatch):
    monkeypatch.setattr(scenarios, "background_verify_pays", lambda: True)
    threads = threading.active_count()
    config = make_benign_config(1)
    _run(config)
    assert threading.active_count() == threads

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
    assert len(calls) == 3
    assert threading.active_count() == threads


def test_chain_faults_forks_its_helpers_right_after_a_run(monkeypatch):
    """The worker is joined before run() returns, so the process has one
    thread again and chain_faults spreads the chain over forked helpers.
    Each check is slowed down, so that a worker left running would still
    be behind when chain_faults starts."""
    real = identity.BACKEND

    def slow(public_key, message, signature):
        time.sleep(0.001)
        return real.verify(public_key, message, signature)

    monkeypatch.setattr(identity, "BACKEND", real._replace(verify=slow))
    monkeypatch.setattr(scenarios, "background_verify_pays", lambda: True)
    ledger = _run(disputes_shaped_config(5, n_events=120)).ledgers["P1"]
    monkeypatch.setattr(identity, "BACKEND", real)
    assert len(ledger.all_transactions()) >= 2 * ledger_module.MIN_SHARE
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counting_fork)
    assert chain_faults(ledger) == []
    assert len(forks) == 1
