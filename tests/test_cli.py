"""Command-line contract: exit codes (0 success, 1 integrity or detection
failure, 2 usage error), stable JSON, and the file workflows."""

import json

import pytest

from avledger.cli import main
from avledger.ledger import save_ledger
from avledger.scenarios import config_to_jsonable, make_benign_config

from worldkit import make_edata, make_pet, make_ut, make_world, vehicle_credentials


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
    capsys.readouterr()


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
    """A one-party ledger with an overdue update, exported for the CLI."""
    world = make_world(seed=130)
    ledger = world.ledger()
    creds = vehicle_credentials(world, 5000.0)
    pet = make_pet(world, at=5000.0, creds=creds, edata=make_edata(world, 5000.0))
    ut = make_ut(world, at=100.0, creds=creds)
    ledger.append_validated(pet)
    ledger.append_validated(ut)
    ledger_path = tmp_path / "p1.bin"
    save_ledger(ledger, str(ledger_path))
    case = {
        "case_id": "case-cli",
        "collision_at": 5000.0,
        "maker": "am-0",
        "parties": [
            {
                "vehicle": "av-0",
                "cert_ids": [creds[1].cert_id.hex()],
                "pet_tid": pet.tid.hex(),
                "ret_tids": {},
            }
        ],
    }
    case_path = tmp_path / "case.json"
    case_path.write_text(json.dumps(case))
    return ledger_path, case_path, case


def test_adjudicate_reads_case_from_disk(tmp_path, capsys):
    ledger_path, case_path, _ = _small_case(tmp_path)
    late = str(100.0 + 8 * 24 * 3600.0)
    assert run_cli("adjudicate", str(ledger_path), str(case_path), "--at", late) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["class"] == "OwnerNegligence"
    assert verdict["liable"] == "av-0"
    # Without the deadline passed, drive mode decides instead.
    assert run_cli("adjudicate", str(ledger_path), str(case_path)) == 0
    assert json.loads(capsys.readouterr().out)["class"] == "ProductDefect"


def test_adjudicate_rejects_unresolvable_evidence(tmp_path, capsys):
    ledger_path, case_path, case = _small_case(tmp_path)
    case["parties"][0]["pet_tid"] = "ab" * 32
    case_path.write_text(json.dumps(case))
    assert run_cli("adjudicate", str(ledger_path), str(case_path)) == 1
    assert "unresolvable" in capsys.readouterr().err


def test_adjudicate_usage_errors(tmp_path, capsys):
    ledger_path, case_path, case = _small_case(tmp_path)
    del case["collision_at"]
    case_path.write_text(json.dumps(case))
    assert run_cli("adjudicate", str(ledger_path), str(case_path)) == 2
    assert run_cli("adjudicate", str(ledger_path), str(tmp_path / "nope.json")) == 2
    capsys.readouterr()


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
