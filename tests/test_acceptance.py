"""Acceptance gate: eight end-to-end properties, each reported as one
numbered pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``
to see the lines while green; on a failure the captured line is shown).

Every oracle here is computed independently of the code under test: the
fold is re-derived with hashlib, the authorization table is restated by
hand, negligence is recomputed from the raw tuple, and the retry channel
is checked against the closed-form loss rate.
"""

import dataclasses
import enum
import hashlib
import json
import math
import os
import random
import tempfile
import time

from avledger.adjudicator import check_negligence
from avledger.identity import sign_tx_digest
from avledger.ledger import save_ledger, verify_chain
from avledger.netsim import Network
from avledger.scenarios import (
    AttackClass,
    ScenarioEngine,
    make_attack_config,
    make_benign_config,
)
from avledger.txmodel import Partition, Role, SigEntry, TxKind
from avledger.validation import Reason, verify_transaction

from worldkit import (
    make_edata,
    make_est,
    make_et,
    make_mt,
    make_pet,
    make_ret,
    make_ut,
    make_world,
    vehicle_credentials,
)


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{num}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


# --- 1. tamper evidence -------------------------------------------------------

def _leaf_mutations(value):
    """One representative corruption for a scalar leaf."""
    if isinstance(value, enum.Enum):
        members = list(type(value))
        return [members[(members.index(value) + 1) % len(members)]]
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, float):
        return [value + 1.0]
    if isinstance(value, int):
        return [value + 1]
    if isinstance(value, str):
        return [value + "x"]
    if isinstance(value, bytes):
        return [b"\x01" if not value else bytes([value[0] ^ 0x01]) + value[1:]]
    if value is None:
        return [b"\x01" * 32]
    raise AssertionError(f"unhandled leaf type {type(value)!r}")


def _field_mutations(obj, path=()):
    """Every (field path, corrupted value) pair over a transaction tree."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _field_mutations(getattr(obj, f.name), path + (f.name,))
        return
    if isinstance(obj, tuple):
        for i, item in enumerate(obj):
            yield from _field_mutations(item, path + (i,))
        if obj:
            yield path, obj[:-1]
        return
    for new in _leaf_mutations(obj):
        yield path, new


def _apply(obj, path, new_value):
    if not path:
        return new_value
    head, rest = path[0], path[1:]
    if isinstance(head, int):
        items = list(obj)
        items[head] = _apply(items[head], rest, new_value)
        return tuple(items)
    return dataclasses.replace(obj, **{head: _apply(getattr(obj, head), rest, new_value)})


def test_acceptance_1_tamper_evidence():
    world = make_world(seed=201)
    ledger = world.ledger(b_max=8)
    txs = [make_est(world, at=1000.0 + 10.0 * i) for i in range(12)]
    txs += [make_pet(world, at=1130.0), make_pet(world, at=1140.0)]
    ut_a = make_ut(world, at=1150.0)
    ut_b = make_ut(world, at=1160.0)
    txs += [ut_a, ut_b]
    txs += [
        make_et(world, ut_a.tid, vehicle_credentials(world, 1170.0), at=1170.0),
        make_et(world, ut_b.tid, vehicle_credentials(world, 1180.0), at=1180.0),
        make_mt(world, at=1190.0),
        make_mt(world, at=1200.0),
        make_ret(world, make_edata(world, 1130.0), at=1210.0),
        make_ret(world, make_edata(world, 1140.0), at=1220.0),
        make_ret(world, make_edata(world, 1150.0), at=1230.0, requester="am-0", role=Role.MANUFACTURER),
        make_ret(world, make_edata(world, 1160.0), at=1240.0, requester="am-0", role=Role.MANUFACTURER),
    ]
    assert len(txs) == 24
    for tx in txs:
        ledger.append_validated(tx)
        ledger.maybe_seal()
    assert len(ledger.blocks) == 3 and not ledger.current.transactions
    assert verify_chain(ledger)

    start = time.perf_counter()
    total = misses = 0
    for block in ledger.blocks:
        for pos, victim in enumerate(list(block.transactions)):
            mutations = list(_field_mutations(victim))
            if victim.parent_tid is not None:
                mutations.append((("parent_tid",), None))
            for path, new_value in mutations:
                block.transactions[pos] = _apply(victim, path, new_value)
                total += 1
                if verify_chain(ledger):
                    misses += 1
                block.transactions[pos] = victim
    elapsed = time.perf_counter() - start
    assert verify_chain(ledger)

    ok = misses == 0 and elapsed < 10.0
    _criterion(
        1,
        "tamper evidence",
        ok,
        f"{total} single-field mutations over 24 committed transactions, "
        f"{misses} undetected, {elapsed:.1f}s",
    )


# --- 2 + 3 shared benign corpus -----------------------------------------------

_BENIGN: dict[int, tuple[bytes, object]] = {}


def _fingerprinted_run(config):
    """Runs a scenario and hashes its report, audit trail, and the exact
    bytes of both saved ledger files."""
    result = ScenarioEngine(config).run()
    digest = hashlib.sha256()
    digest.update(result.report.to_json().encode())
    digest.update("\0".join(result.audit_lines).encode())
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(result.ledgers):
            path = os.path.join(tmp, f"{name}.bin")
            save_ledger(result.ledgers[name], path)
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.digest(), result


def _benign_run(seed: int):
    if seed not in _BENIGN:
        _BENIGN[seed] = _fingerprinted_run(make_benign_config(seed))
    return _BENIGN[seed]


def _diverged_rounds(result) -> int:
    return sum(
        json.loads(line)["outcome"] == "Diverged" for line in result.audit_lines
    )


def test_acceptance_2_consensus_determinism():
    mismatches = diverged = 0
    for seed in range(100):
        fingerprint, result = _benign_run(seed)
        replay_fingerprint, _ = _fingerprinted_run(make_benign_config(seed))
        if fingerprint != replay_fingerprint:
            mismatches += 1
        diverged += _diverged_rounds(result)
    ok = mismatches == 0 and diverged == 0
    _criterion(
        2,
        "consensus determinism",
        ok,
        f"100 seeds replayed twice: {mismatches} fingerprint mismatches "
        f"(report + audit + ledger bytes), {diverged} diverged rounds",
    )


def test_acceptance_3_attack_detection():
    hits = {cls: 0 for cls in AttackClass}
    for seed in range(50):
        report = ScenarioEngine(
            make_attack_config(seed, AttackClass.TAMPER_CBLOCK)
        ).run().report.to_jsonable()
        if report["attack"]["detected"] and any(
            d["kind"] == "diverged_round" and d["attributed"] == ["am-0"]
            for d in report["detections"]
        ):
            hits[AttackClass.TAMPER_CBLOCK] += 1

        report = ScenarioEngine(
            make_attack_config(seed, AttackClass.FALSE_INFORMATION)
        ).run().report.to_jsonable()
        if report["attack"]["detected"] and any(
            d["kind"] == "forged_evidence" and "am-0" in d["attributed"]
            for d in report["detections"]
        ):
            hits[AttackClass.FALSE_INFORMATION] += 1

        report = ScenarioEngine(
            make_attack_config(seed, AttackClass.SUPPRESS_EVIDENCE)
        ).run().report.to_jsonable()
        if report["attack"]["detected"] and any(
            d["kind"] == "diverged_round" and d["partition"] == "P1"
            for d in report["detections"]
        ):
            hits[AttackClass.SUPPRESS_EVIDENCE] += 1

    false_positives = 0
    for seed in range(100):
        _, result = _benign_run(seed)
        false_positives += len(result.report.detections)

    ok = all(count == 50 for count in hits.values()) and false_positives == 0
    _criterion(
        3,
        "attack detection",
        ok,
        f"tamper {hits[AttackClass.TAMPER_CBLOCK]}/50 attributed, "
        f"forged evidence {hits[AttackClass.FALSE_INFORMATION]}/50 naming the forger, "
        f"suppression {hits[AttackClass.SUPPRESS_EVIDENCE]}/50 diverged, "
        f"{false_positives} detections on 100 benign seeds",
    )


# --- 4. authorization matrix --------------------------------------------------

# Restated by hand: who may put which kind into which partition.
_ALLOWED = {
    ("P1", "EST", "AV"),
    ("P1", "PET", "AV"),
    ("P1", "UT", "AM"),
    ("P1", "ET", "AV"),
    ("P1", "MT", "ST"),
    ("P1", "RET", "IC"),
    ("P1", "RET", "AM"),
    ("P2", "RET", "IC"),
    ("P2", "RET", "AM"),
}

_ROLE_ENTITY = {
    Role.MANUFACTURER: "am-0",
    Role.TECHNICIAN: "st-0",
    Role.INSURER: "ic-0",
    Role.TRANSPORT_AUTHORITY: "gta-0",
    Role.LEGAL_AUTHORITY: "la-0",
}


def test_acceptance_4_authorization_matrix():
    world = make_world(seed=204)
    creds = vehicle_credentials(world, 1000.0)
    kp, cert = creds

    def signed_as(tx, role: Role):
        if role is Role.VEHICLE:
            secret = kp.secret_key
        elif role is Role.CERT_AUTHORITY:
            secret = world.ca.secret_key
        else:
            secret = world.keys[_ROLE_ENTITY[role]].secret_key
        entry = SigEntry(role, sign_tx_digest(secret, tx.tid))
        return dataclasses.replace(tx, signatures=(entry,) + tuple(tx.signatures[1:]))

    p1 = world.ledger(Partition.OPERATIONAL)
    p2 = world.ledger(Partition.DECISIONAL)
    parent_ut = make_ut(world, at=1004.0, creds=creds)
    p1.append_validated(parent_ut)

    templates = {
        TxKind.EVENT_SAFETY: make_est(world, at=1001.0, creds=creds),
        TxKind.COLLISION_EVIDENCE: make_pet(world, at=1002.0, creds=creds),
        TxKind.UPDATE: make_ut(world, at=1003.0, creds=creds),
        TxKind.EXECUTION: make_et(world, parent_ut.tid, creds, at=1005.0),
        TxKind.MAINTENANCE: make_mt(world, at=1006.0, cert=cert),
    }
    ret_by_role = {
        Role.INSURER: make_ret(world, make_edata(world, 1007.0), at=1007.0, cert=cert),
        Role.MANUFACTURER: make_ret(
            world,
            make_edata(world, 1008.0),
            at=1008.0,
            requester="am-0",
            role=Role.MANUFACTURER,
            cert=cert,
        ),
    }

    cells = wrong = 0
    for partition, ledger in (("P1", p1), ("P2", p2)):
        for kind in TxKind:
            for role in Role:
                if kind is TxKind.EVIDENCE_REQUEST:
                    template = ret_by_role.get(role, ret_by_role[Role.INSURER])
                else:
                    template = templates[kind]
                tx = signed_as(template, role)
                verdict = verify_transaction(tx, ledger)
                cells += 1
                if (partition, kind.value, role.value) in _ALLOWED:
                    if not verdict.accepted:
                        wrong += 1
                elif verdict.accepted or verdict.reason is not Reason.UNAUTHORIZED:
                    wrong += 1

    solo_ut = verify_transaction(make_ut(world, at=1009.0, creds=creds, countersigned=False), p1)
    duplicate_est = make_est(world, at=1010.0, creds=creds)
    p1.append_validated(duplicate_est)
    dup = verify_transaction(duplicate_est, p1)
    expired = verify_transaction(make_est(world, at=1400.0, creds=creds), p1)
    probes_ok = (
        solo_ut.reason is Reason.INCOMPLETE
        and dup.reason is Reason.DUPLICATE
        and expired.reason is Reason.EXPIRED_CERT
    )

    ok = cells == 84 and wrong == 0 and probes_ok
    _criterion(
        4,
        "authorization matrix",
        ok,
        f"{cells} partition/kind/role cells, {wrong} off-table verdicts, "
        f"probes incomplete={solo_ut.reason.value} duplicate={dup.reason.value} "
        f"expired={expired.reason.value}",
    )


# --- 5. negligence oracle -----------------------------------------------------

def test_acceptance_5_negligence_oracle():
    world = make_world(seed=205)
    creds = vehicle_credentials(world, 1000.0)
    _, cert = creds
    rng = random.Random(777)
    agree = 0
    n = 1000
    for i in range(n):
        ut_time = rng.uniform(0.0, 1e6)
        et_time = None if rng.random() < 0.5 else ut_time + rng.uniform(-1e4, 1e5)
        deadline = rng.uniform(0.0, 1e5)
        if i % 20 == 0:
            query_time = ut_time + deadline  # exactly on the deadline
        else:
            query_time = ut_time + rng.uniform(-1e4, 2e5)

        ledger = world.ledger()
        ut = make_ut(world, at=ut_time, creds=creds)
        ledger.append_validated(ut)
        if et_time is not None:
            ledger.append_validated(make_et(world, ut.tid, creds, at=et_time))

        rows = check_negligence(ledger, frozenset({cert.cert_id}), deadline, query_time)
        got = any(negligent for _tid, negligent in rows)
        want = et_time is None and (query_time - ut_time) > deadline
        agree += got == want
    _criterion(5, "negligence oracle", agree == n, f"{agree}/{n} tuples agree")


# --- 6. fold oracle -----------------------------------------------------------

def test_acceptance_6_fold_oracle():
    world = make_world(seed=206)
    template = make_est(world, at=1000.0)
    rng = random.Random(4242)
    sequences = 1000
    exact = 0
    for _ in range(sequences):
        ledger = world.ledger(b_max=8)
        acc = ledger.genesis.block_id
        good = True
        for i in range(1, rng.randrange(0, 25) + 1):
            tid = rng.randbytes(32)
            acc = hashlib.sha256(tid + acc).digest()
            returned = ledger.append_validated(dataclasses.replace(template, tid=tid))
            sealed = ledger.maybe_seal()
            good &= returned == acc and ledger.cblock_id == acc
            if i % 8 == 0:
                good &= sealed is not None and sealed.block_id == acc
            else:
                good &= sealed is None
        exact += good
    _criterion(
        6,
        "fold oracle",
        exact == sequences,
        f"{exact}/{sequences} random sequences byte-exact against an "
        "independent left fold",
    )


# --- 7. retry channel ---------------------------------------------------------

def test_acceptance_7_retry_channel():
    sends = 10_000
    details = []
    ok = True
    for drop_prob in (0.0, 0.3, 0.9):
        net = Network(
            rng=random.Random(int(drop_prob * 10) + 99),
            drop_prob=drop_prob,
            retry_interval=5.0,
            max_attempts=5,
        )
        net.register_endpoint("rx", lambda envelope: None)
        net.register_endpoint("tx", lambda envelope: None)
        for i in range(sends):
            net.send_with_retry("tx", "rx", i)
        net.run_until_quiet()
        rate = sum(r.status == "undeliverable" for r in net.records) / sends
        expected = drop_prob**5
        ok &= abs(rate - expected) <= 0.02
        details.append(f"p={drop_prob}: {rate:.4f} vs {expected:.4f}")
    _criterion(7, "retry channel", ok, "; ".join(details))


# --- 8. certificate window ----------------------------------------------------

def test_acceptance_8_certificate_window():
    world = make_world(seed=208)
    _, cert = vehicle_credentials(world, 10_000.0, validity=300.0)
    issued = cert.issued_at
    expiry = issued + cert.validity_secs
    timestamps = [issued - 200.0 + 0.7 * i for i in range(993)]
    timestamps += [
        issued,
        expiry,
        math.nextafter(issued, -math.inf),
        math.nextafter(expiry, -math.inf),
        math.nextafter(expiry, math.inf),
        issued + 150.0,
        issued - 1e6,
    ]
    assert len(timestamps) == 1000
    mismatches = sum(
        cert.window_contains(t) != (issued <= t < expiry) for t in timestamps
    )
    _criterion(
        8,
        "certificate window",
        mismatches == 0,
        f"1000 timestamps swept, {mismatches} disagreements with the "
        "half-open predicate",
    )
