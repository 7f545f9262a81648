"""Command-line contract: exit codes (0 success, 1 integrity or detection
failure, 2 usage error), stable JSON, and the file workflows."""

import dataclasses
import json

import pytest

from avledger import scenarios
from avledger.adjudicator import AdjudicationParams
from avledger.cli import main
from avledger.errors import ConfigError
from avledger.ledger import load_ledger, save_ledger
from avledger.scenarios import (
    AttackClass,
    NetworkConfig,
    ScenarioEngine,
    case_from_jsonable,
    case_params_from_jsonable,
    config_to_jsonable,
    make_attack_config,
    make_benign_config,
)
from avledger.txmodel import DriveMode, Partition, TxKind

from test_golden import golden_configs

from worldkit import append_by_hand, make_edata, make_pet, make_ret, make_ut, make_world, vehicle_credentials


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def artifacts(tmp_path, capsys):
    """One benign scenario exported to disk."""
    out = tmp_path / "out"
    code = run_cli("run", "--seed", "0", "--out", str(out))
    capsys.readouterr()
    assert code == 0
    return out


# --- run ----------------------------------------------------------------------

def test_run_writes_report_audit_and_ledgers(artifacts):
    names = {p.name for p in artifacts.iterdir()}
    assert names == {"report.json", "audit.jsonl", "ledger_p1.bin", "ledger_p2.bin"}
    report = json.loads((artifacts / "report.json").read_text())
    assert report["seed"] == 0
    assert report["attack"] == {"scripted": None, "detected": None}


def test_run_to_stdout_emits_sorted_json(capsys):
    assert run_cli("run", "--seed", "1") == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_run_accepts_config_file_and_seed_override(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config_to_jsonable(make_benign_config(2))))
    assert run_cli("run", str(path)) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 2
    assert run_cli("run", str(path), "--seed", "5") == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 5


def test_run_attack_scenarios_detect_and_exit_zero(capsys):
    for name in ("TamperCBlock", "SuppressEvidence", "FalseInformation"):
        assert run_cli("run", "--attack", name, "--seed", "1") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["attack"] == {"scripted": name, "detected": True}


def test_run_usage_errors(tmp_path, capsys):
    assert run_cli("run") == 2
    assert run_cli("run", "--attack", "Imaginary") == 2
    assert run_cli("run", str(tmp_path / "missing.json")) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("run", str(bad)) == 2
    bad.write_bytes(b"\xff\xfe{}")
    assert run_cli("run", str(bad)) == 2
    capsys.readouterr()
    assert run_cli("run", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: cannot read {tmp_path}: Is a directory\n"
    # An --out path that cannot be made a directory: an existing file, and
    # a path under one.
    taken = tmp_path / "taken"
    taken.write_text("")
    for out, reason in ((taken, "File exists"), (taken / "under", "Not a directory")):
        assert run_cli("run", "--seed", "0", "--out", str(out)) == 2
        assert capsys.readouterr() == ("", f"error: cannot write {out}: {reason}\n")


def test_run_nan_drop_probability_is_a_usage_error(tmp_path, capsys):
    data = config_to_jsonable(make_benign_config(0))
    data["network"]["drop_prob"] = float("nan")
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(data))  # json writes the bare token NaN
    assert run_cli("run", str(path)) == 2
    assert "$.network.drop_prob" in capsys.readouterr().err


# --- verify -------------------------------------------------------------------

def test_verify_intact_ledger(artifacts, capsys):
    assert run_cli("verify", str(artifacts / "ledger_p1.bin")) == 0
    out = capsys.readouterr().out
    assert "genesis" in out and "chain ok" in out


def test_verify_flipped_byte_fails(artifacts, capsys):
    path = artifacts / "ledger_p1.bin"
    data = bytearray(path.read_bytes())
    data[len(data) - 40] ^= 0x01  # inside the last record or its fold claim
    path.write_bytes(bytes(data))
    assert run_cli("verify", str(path)) == 1
    assert "invalid:" in capsys.readouterr().err


def test_verify_empty_file_reports_missing_genesis(tmp_path, capsys):
    empty = tmp_path / "empty.bin"
    empty.write_bytes(b"")
    assert run_cli("verify", str(empty)) == 1
    assert "missing genesis" in capsys.readouterr().err
    assert run_cli("verify", str(tmp_path / "absent.bin")) == 2


@pytest.mark.parametrize("command", ["verify", "inspect"])
def test_a_ledger_path_that_cannot_be_read_is_a_usage_error(tmp_path, capsys, command):
    """A directory cannot be read as a ledger file. A file without read
    permission takes the same path, but root reads any file, so only the
    directory is tried here."""
    assert run_cli(command, str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: cannot read {tmp_path}: Is a directory\n"


# --- inspect ------------------------------------------------------------------

def test_inspect_filters_by_kind(artifacts, capsys):
    assert run_cli("inspect", str(artifacts / "ledger_p1.bin"), "--kind", "EST", "--json") == 0
    rows = json.loads(capsys.readouterr().out)
    report = json.loads((artifacts / "report.json").read_text())
    assert len(rows) == report["counts"]["P1"]["committed"]["EST"]
    assert all(row["kind"] == "EST" for row in rows)


def test_inspect_filters_by_certificate(artifacts, capsys):
    assert run_cli("inspect", str(artifacts / "ledger_p1.bin"), "--json") == 0
    rows = json.loads(capsys.readouterr().out)
    cert = rows[0]["cert"]["cert_id"]
    assert run_cli("inspect", str(artifacts / "ledger_p1.bin"), "--cert", cert, "--json") == 0
    filtered = json.loads(capsys.readouterr().out)
    assert filtered and all(row["cert"]["cert_id"] == cert for row in filtered)


def test_inspect_human_table(artifacts, capsys):
    assert run_cli("inspect", str(artifacts / "ledger_p1.bin")) == 0
    out = capsys.readouterr().out
    assert "EST" in out and "tid" in out.lower()


def test_inspect_bad_filters_are_usage_errors(artifacts, capsys):
    assert run_cli("inspect", str(artifacts / "ledger_p1.bin"), "--kind", "XX") == 2
    err = capsys.readouterr().err
    for kind in ("EST", "PET", "UT", "ET", "MT", "RET"):
        assert kind in err
    assert run_cli("inspect", str(artifacts / "ledger_p1.bin"), "--cert", "zz") == 2
    capsys.readouterr()


# --- adjudicate ---------------------------------------------------------------

def _small_case(tmp_path):
    """A one-party P1 ledger with an overdue update, the insurer's copy of
    the party's evidence on P2, and a case naming both, exported for the
    CLI. The update is signed under a pseudonym valid when it was stamped,
    so both files authenticate."""
    world = make_world(seed=130)
    ledger = world.ledger()
    decisions = world.ledger(Partition.DECISIONAL)
    creds = vehicle_credentials(world, 5000.0)
    ut_creds = vehicle_credentials(world, 100.0)
    edata = make_edata(world, 5000.0)
    pet = make_pet(world, at=5000.0, creds=creds, edata=edata)
    ut = make_ut(world, at=100.0, creds=ut_creds)
    ret = make_ret(world, edata, at=5005.0, cert=creds[1])
    append_by_hand(ledger, pet)
    append_by_hand(ledger, ut)
    append_by_hand(decisions, ret)
    p1_path, p2_path = tmp_path / "p1.bin", tmp_path / "p2.bin"
    save_ledger(ledger, str(p1_path))
    save_ledger(decisions, str(p2_path))
    case = {
        "case_id": "case-cli",
        "collision_at": 5000.0,
        "maker": "am-0",
        "parties": [
            {
                "vehicle": "av-0",
                "cert_ids": [creds[1].cert_id.hex(), ut_creds[1].cert_id.hex()],
                "pet_tid": pet.tid.hex(),
                "ret_tids": {"ic-0": ret.tid.hex()},
            }
        ],
    }
    case_path = tmp_path / "case.json"
    case_path.write_text(json.dumps(case))
    return p1_path, p2_path, case_path, case


def test_adjudicate_reads_case_from_disk(tmp_path, capsys):
    p1_path, p2_path, case_path, _ = _small_case(tmp_path)
    for path in (p1_path, p2_path):
        assert run_cli("verify", str(path)) == 0
    capsys.readouterr()
    late = str(100.0 + 8 * 24 * 3600.0)
    assert run_cli("adjudicate", str(p1_path), str(p2_path), str(case_path), "--at", late) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["class"] == "OwnerNegligence"
    assert verdict["liable"] == "av-0"
    # Without the deadline passed, drive mode decides instead.
    assert run_cli("adjudicate", str(p1_path), str(p2_path), str(case_path)) == 0
    assert json.loads(capsys.readouterr().out)["class"] == "ProductDefect"


def test_adjudicate_rejects_unresolvable_evidence(tmp_path, capsys):
    """A PET or witness PET missing from P1, or a RET missing from P2."""
    for mangle in (
        lambda c: c["parties"][0].__setitem__("pet_tid", "ab" * 32),
        lambda c: c["parties"][0]["ret_tids"].__setitem__("am-0", "ab" * 32),
        lambda c: c.__setitem__("witness_pet_tids", ["ab" * 32]),
    ):
        p1_path, p2_path, case_path, case = _small_case(tmp_path)
        mangle(case)
        case_path.write_text(json.dumps(case))
        assert run_cli("adjudicate", str(p1_path), str(p2_path), str(case_path)) == 1
        assert "unresolvable" in capsys.readouterr().err


def test_adjudicate_refuses_swapped_ledger_files(tmp_path, capsys):
    p1_path, p2_path, case_path, _ = _small_case(tmp_path)
    assert run_cli("adjudicate", str(p2_path), str(p1_path), str(case_path)) == 2
    assert "expected P1" in capsys.readouterr().err
    assert run_cli("adjudicate", str(p1_path), str(p1_path), str(case_path)) == 2
    assert "expected P2" in capsys.readouterr().err


@pytest.mark.parametrize("at", ["nan", "inf", "-inf", "1e999"])
def test_a_non_finite_at_is_a_usage_error(tmp_path, capsys, at):
    """NaN fails every deadline comparison, so it would switch the
    negligence rule off; --at is read as a config number is."""
    p1_path, p2_path, case_path, _ = _small_case(tmp_path)
    assert run_cli("adjudicate", str(p1_path), str(p2_path), str(case_path), f"--at={at}") == 2
    assert capsys.readouterr() == ("", f"error: --at: expected a finite number, got {float(at)!r}\n")


@pytest.mark.parametrize("which", [0, 1], ids=["P1", "P2"])
def test_adjudicate_authenticates_both_files_before_any_verdict(tmp_path, capsys, which):
    """The party's evidence rewritten in place to the other drive mode,
    its tid kept, is a fault that `verify` reports; adjudicate exits 1 on
    it and prints no verdict."""
    p1_path, p2_path, case_path, _ = _small_case(tmp_path)
    path = (p1_path, p2_path)[which]
    ledger = load_ledger(str(path))
    tx = ledger.records[0]
    hv = tx.body.edata.hv_data
    other = next(mode for mode in DriveMode if mode is not hv.drive_mode)
    edata = dataclasses.replace(tx.body.edata, hv_data=dataclasses.replace(hv, drive_mode=other))
    ledger.records[0] = dataclasses.replace(tx, body=dataclasses.replace(tx.body, edata=edata))
    save_ledger(ledger, str(path))
    assert run_cli("verify", str(path)) == 1
    capsys.readouterr()
    assert run_cli("adjudicate", str(p1_path), str(p2_path), str(case_path)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"invalid: {path}: ")


def test_adjudicate_usage_errors(tmp_path, capsys):
    p1_path, p2_path, case_path, case = _small_case(tmp_path)
    del case["collision_at"]
    case_path.write_text(json.dumps(case))
    assert run_cli("adjudicate", str(p1_path), str(p2_path), str(case_path)) == 2
    assert run_cli("adjudicate", str(p1_path), str(p2_path), str(tmp_path / "nope.json")) == 2
    assert run_cli("adjudicate", str(p1_path), str(tmp_path / "nope.bin"), str(case_path)) == 2
    case_path.write_bytes(b"\xff\xfe{}")
    assert run_cli("adjudicate", str(p1_path), str(p2_path), str(case_path)) == 2
    capsys.readouterr()
    for paths in ((tmp_path, p2_path, case_path), (p1_path, tmp_path, case_path), (p1_path, p2_path, tmp_path)):
        assert run_cli("adjudicate", *map(str, paths)) == 2
        assert capsys.readouterr().err == f"error: cannot read {tmp_path}: Is a directory\n"


@pytest.mark.parametrize(
    "mangle, field",
    [
        (lambda c: c["parties"][0].__setitem__("cert_ids", 5), "$.parties[0].cert_ids"),
        (lambda c: c.__setitem__("witness_pet_tids", 7), "$.witness_pet_tids"),
        (lambda c: c.__setitem__("maker", None), "$.maker"),
    ],
    ids=["cert_ids", "witness_pet_tids", "maker"],
)
def test_adjudicate_case_shape_errors_name_the_field(tmp_path, capsys, mangle, field):
    p1_path, p2_path, case_path, case = _small_case(tmp_path)
    mangle(case)
    case_path.write_text(json.dumps(case))
    assert run_cli("adjudicate", str(p1_path), str(p2_path), str(case_path)) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


def _case_jsonable(case) -> dict:
    """A collision case in the case-file shape the CLI reads."""
    return {
        "case_id": case.case_id,
        "collision_at": case.collision_at,
        "maker": case.maker,
        "suspect_absent": case.suspect_absent,
        "witness_pet_tids": [tid.hex() for tid in case.witness_pet_tids],
        "parties": [
            {
                "vehicle": party.vehicle,
                "cert_ids": sorted(cert_id.hex() for cert_id in party.cert_ids),
                "pet_tid": None if party.pet_tid is None else party.pet_tid.hex(),
                "ret_tids": {requester: tid.hex() for requester, tid in party.ret_tids.items()},
            }
            for party in case.parties
        ],
    }


def _replay_configs() -> dict:
    """The golden runs, and false-information seeds 0-39 under four
    drop/attempts settings, where some forged copies never reach P2."""
    configs = dict(golden_configs())
    for drop, attempts in ((0.0, 10), (0.7, 10), (0.7, 3), (0.9, 2)):
        for seed in range(40):
            configs[f"FalseInformation-drop{drop}-att{attempts}-s{seed}"] = dataclasses.replace(
                make_attack_config(seed, AttackClass.FALSE_INFORMATION),
                network=NetworkConfig(drop_prob=drop, max_attempts=attempts),
            )
    return configs


def _replay_every_verdict(tmp_path, capsys, monkeypatch, params=None) -> tuple[int, int]:
    """Runs every replay config, under params where given, and replays
    each case the engine adjudicates through `avledger adjudicate` from
    the two saved ledgers, with params in the case file. Returns the
    number of verdicts replayed and of forged copies found on P2."""
    calls = []

    def spy(case, ledger, decisions, params, at=None):
        calls.append((case, at))
        return adjudicate(case, ledger, decisions, params, at)

    adjudicate = scenarios.adjudicate
    monkeypatch.setattr(scenarios, "adjudicate", spy)
    p1_path, p2_path, case_path = tmp_path / "p1.bin", tmp_path / "p2.bin", tmp_path / "case.json"
    replayed = forged_copies = 0
    for name, config in sorted(_replay_configs().items()):
        if params is not None:
            config = dataclasses.replace(config, adjudication=params)
        calls.clear()
        result = ScenarioEngine(config).run()
        p1, p2 = result.ledgers["P1"], result.ledgers["P2"]
        save_ledger(p1, str(p1_path))
        save_ledger(p2, str(p2_path))
        assert [case.case_id for case, _ in calls] == [v["case_id"] for v in result.report.verdicts], name
        for (case, at), verdict in zip(calls, result.report.verdicts):
            data = _case_jsonable(case)
            assert case_from_jsonable(data) == case, name
            if params is not None:
                data["adjudication"] = config_to_jsonable(config)["adjudication"]
                assert case_params_from_jsonable(data) == params, name
            case_path.write_text(json.dumps(data))
            assert run_cli("adjudicate", str(p1_path), str(p2_path), str(case_path), "--at", repr(at)) == 0, name
            assert json.loads(capsys.readouterr().out) == verdict, name
            assert all(p1.find(bytes.fromhex(tid)) for tid in verdict["evidence_tids"]), name
            replayed += 1
        for detection in result.report.detections:
            for tid in detection.get("forged_ret_tids", ()):
                assert p2.find(bytes.fromhex(tid)).kind is TxKind.EVIDENCE_REQUEST, name
                forged_copies += 1
    return replayed, forged_copies


def test_every_engine_verdict_replays_from_the_saved_ledgers(tmp_path, capsys, monkeypatch):
    """The engine and `avledger adjudicate` judge one case of tids by one
    rule: each case the engine adjudicates, written as a case file,
    gives the same verdict JSON from the two saved ledger files. No
    verdict or detection cites a record missing from its partition."""
    assert _replay_every_verdict(tmp_path, capsys, monkeypatch) == (163, 190)


# Every adjudication key off its default, each tighter than it.
OFF_DEFAULT_PARAMS = AdjudicationParams(
    negligence_deadline_secs=600.0,
    maintenance_window_secs=300.0,
    staged_window_secs=60.0,
    staged_threshold=2,
    time_tol_secs=0.5,
    dist_tol_m=20.0,
)


def test_every_engine_verdict_replays_under_off_default_adjudication(tmp_path, capsys, monkeypatch):
    """The same replay under a config that sets every adjudication key
    off its default: the case file carries the parameters, and the CLI
    judges under them, not under the defaults."""
    assert all(
        getattr(OFF_DEFAULT_PARAMS, f.name) != f.default for f in dataclasses.fields(AdjudicationParams)
    )
    assert _replay_every_verdict(tmp_path, capsys, monkeypatch, OFF_DEFAULT_PARAMS) == (163, 190)


def test_a_case_file_reads_its_parameters_as_a_config_does():
    """A case file without "adjudication" is judged under the defaults;
    one with it under its keys, each read and refused as a scenario
    config's, with the config's default for a key it leaves out."""
    case = {"case_id": "c", "collision_at": 1.0, "parties": [{"vehicle": "av-0"}]}
    assert case_params_from_jsonable(case) == AdjudicationParams()
    partial = dict(case, adjudication={"staged_threshold": 5})
    assert case_params_from_jsonable(partial) == AdjudicationParams(staged_threshold=5)
    with pytest.raises(ConfigError, match=r"\$\.adjudication\.staged_threshold"):
        case_params_from_jsonable(dict(case, adjudication={"staged_threshold": 0}))
    with pytest.raises(ConfigError, match=r"\$\.adjudication"):
        case_params_from_jsonable(dict(case, adjudication=[]))


# --- keys ---------------------------------------------------------------------

def test_keys_seeded_generation_is_reproducible(capsys):
    assert run_cli("keys", "--seed", "9", "--json") == 0
    first = json.loads(capsys.readouterr().out)
    assert run_cli("keys", "--seed", "9", "--json") == 0
    assert json.loads(capsys.readouterr().out) == first
    assert len(bytes.fromhex(first["public_key"])) == 32


def test_keys_unseeded_generation_varies(capsys):
    assert run_cli("keys", "--json") == 0
    a = json.loads(capsys.readouterr().out)
    assert run_cli("keys", "--json") == 0
    assert json.loads(capsys.readouterr().out) != a
