"""Golden output fingerprints: the bytes a run writes, pinned over fixed
seeds.

Each run stores one SHA-256 per artefact that ``avledger run --out``
writes: the report JSON, the audit log, and the saved P1 and P2 ledger
files. A refactor that moves any of these bytes is a behaviour change and
fails here, naming the run and the artefact that moved. The runs cover
benign seeds 0-19, seeds 0-4 of each attack class, benign seeds 0-4 at
drop probability 0.7, which exercises the retry and undeliverable paths,
and benign seeds 0-4 at drop 0.7 with a budget of three attempts. The
last five lose every kind of engine message at least once: an update
instruction to a vehicle (seeds 0 and 1), a signed update back to the
maker (seed 2), a bridge forward of an evidence request to the decision
partition (seeds 0 and 3) and plain submissions to the operational
partition (all five).

tests/golden_fingerprints.json is data, not something this module
writes: when a change moves the bytes on purpose, it says so and the file
is regenerated from its code by hand.
"""

import hashlib
import json
import os
from dataclasses import replace

import pytest

from avledger import forks, identity
from avledger.ledger import save_ledger
from avledger.scenarios import (
    AttackClass,
    ScenarioConfig,
    ScenarioEngine,
    make_attack_config,
    make_benign_config,
)

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_fingerprints.json")


def golden_configs() -> dict[str, ScenarioConfig]:
    configs = {f"benign-s{seed}": make_benign_config(seed) for seed in range(20)}
    for attack in AttackClass:
        for seed in range(5):
            configs[f"{attack.value}-s{seed}"] = make_attack_config(seed, attack)
    for seed in range(5):
        base = make_benign_config(seed)
        configs[f"benign-drop0.7-s{seed}"] = replace(
            base, network=replace(base.network, drop_prob=0.7)
        )
        configs[f"benign-drop0.7-att3-s{seed}"] = replace(
            base, network=replace(base.network, drop_prob=0.7, max_attempts=3)
        )
    return configs


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artefact_fingerprints(config: ScenarioConfig, work_dir: str) -> dict[str, str]:
    """SHA-256 of each artefact, in the bytes the CLI writes them."""
    result = ScenarioEngine(config).run()
    out = {
        "report": _sha(result.report.to_json().encode()),
        "audit": _sha("".join(line + "\n" for line in result.audit_lines).encode()),
    }
    for name, ledger in sorted(result.ledgers.items()):
        path = os.path.join(work_dir, f"ledger_{name.lower()}.bin")
        save_ledger(ledger, path)
        with open(path, "rb") as fh:
            out[name] = _sha(fh.read())
    return out


with open(GOLDEN_PATH, "r", encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)

CONFIGS = golden_configs()


def test_golden_file_covers_every_run():
    assert sorted(GOLDEN) == sorted(CONFIGS)


@pytest.mark.parametrize("run", sorted(CONFIGS))
def test_golden_fingerprints(run, tmp_path):
    got = artefact_fingerprints(CONFIGS[run], str(tmp_path))
    want = GOLDEN[run]
    moved = [name for name in sorted(want) if got.get(name) != want[name]]
    assert sorted(got) == sorted(want), f"{run}: artefact set changed: {sorted(got)}"
    assert not moved, f"{run}: bytes moved in {', '.join(moved)}"


def test_golden_run_with_the_cryptography_backend(monkeypatch, tmp_path):
    """Both Ed25519 backends give the same bytes: a run whose keys,
    signatures and verdicts all come from `cryptography` matches the pins
    taken with whichever backend this host loads."""
    monkeypatch.setattr(identity, "BACKEND", identity.CRYPTOGRAPHY)
    run = "TamperCBlock-s0"
    assert artefact_fingerprints(CONFIGS[run], str(tmp_path)) == GOLDEN[run]


@pytest.mark.parametrize("path", ["helper", "inline", "helper on cryptography"])
def test_golden_bytes_on_every_check_path(monkeypatch, tmp_path, path):
    """Every golden run gives its pinned bytes with its Ed25519 checks
    made in the process's check helper or inline, whatever this host
    would choose, and with the helper under the `cryptography`
    backend. On the helper path, where the backend builds a signer from
    a seed and its public key (libsodium), the runs take pseudonym keys
    that the helper derived ahead; on the others they take none."""
    monkeypatch.setattr(forks, "fork_pays", lambda: path != "inline")
    real, taken = identity.BACKEND, []
    if path.endswith("cryptography"):
        monkeypatch.setattr(identity, "BACKEND", identity.CRYPTOGRAPHY)
    elif real.signer is not None:

        def signer(seed, public):
            taken.append(seed)
            return real.signer(seed, public)

        monkeypatch.setattr(identity, "BACKEND", real._replace(signer=signer))
    moved = [run for run in sorted(CONFIGS) if artefact_fingerprints(CONFIGS[run], str(tmp_path)) != GOLDEN[run]]
    assert not moved, f"bytes moved in {moved}"
    assert bool(taken) is (path == "helper" and real.signer is not None)
