"""Key handling and the Ed25519 backends, pseudonym certificates, the
identity escrow, and the sealed witness payloads."""

import ctypes
import dataclasses
import functools
import hashlib
import os
import random
import struct
import subprocess
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from avledger import identity
from avledger.errors import EscrowDenied, InvalidValidity, UnknownCertificate, UnknownEntity
from avledger.identity import (
    IdentityEscrow,
    PseudonymCertificate,
    TxVerifier,
    certificate_signature_ok,
    derive_shared_key,
    generate_keypair,
    issue_certificate,
    leaf_hash,
    merkle_tree,
    node_hash,
    open_sealed,
    path_root,
    seal_to_key,
    sign_tx_digest,
    verify_tx_digest,
)

from avledger.ledger import chain_faults, load_ledger, save_ledger
from avledger.txmodel import check_tx
from avledger.validation import Reason

from worldkit import append_by_hand, batch_credentials, fill_ledger, make_est, make_world

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_keypair_generation_is_seed_deterministic():
    a = generate_keypair(random.Random(42))
    b = generate_keypair(random.Random(42))
    assert a.public_key == b.public_key
    assert a.secret_key == b.secret_key
    assert generate_keypair(random.Random(43)).public_key != a.public_key


def test_sign_verify_round_trip():
    keys = generate_keypair(random.Random(0))
    tid = b"\x07" * 32
    sig = sign_tx_digest(keys, tid)
    assert verify_tx_digest(keys.public_key, tid, sig)
    assert not verify_tx_digest(keys.public_key, b"\x08" * 32, sig)
    other = generate_keypair(random.Random(1))
    assert not verify_tx_digest(other.public_key, tid, sig)


def test_garbage_signature_rejected_not_raised():
    keys = generate_keypair(random.Random(0))
    assert not verify_tx_digest(keys.public_key, b"\x00" * 32, b"junk")


# --- Ed25519 backends -----------------------------------------------------------

def _libsodium_loads() -> bool:
    try:
        ctypes.CDLL("libsodium.so.23")
    except OSError:
        return False
    return True


BACKENDS = [identity.CRYPTOGRAPHY]
if identity.BACKEND is not identity.CRYPTOGRAPHY:
    BACKENDS.append(identity.BACKEND)


@pytest.fixture(params=BACKENDS, ids=lambda backend: backend.name)
def backend(request, monkeypatch):
    """Runs the test once per backend that loads here, as the backend of
    every key, signature and verdict."""
    monkeypatch.setattr(identity, "BACKEND", request.param)
    return request.param


def test_importing_identity_starts_no_subprocess():
    watch = {"subprocess.Popen", "os.system", "os.posix_spawn", "os.spawn", "os.fork", "os.exec"}
    code = (
        "import sys\n"
        "seen = []\n"
        f"sys.addaudithook(lambda event, args: event in {sorted(watch)!r} and seen.append(event))\n"
        "import avledger.identity\n"
        "print(avledger.identity.BACKEND.name, seen)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split(" ", 1)[1].strip() == "[]", done.stdout


def test_libsodium_backs_identity_wherever_it_loads():
    """A binding slip must fail here, not fall back to the slower backend."""
    if not _libsodium_loads():
        pytest.skip("libsodium.so.23 does not load on this host")
    assert identity.BACKEND.name == "libsodium"


def test_backends_derive_the_same_keys_and_signatures():
    if len(BACKENDS) < 2:
        pytest.skip("only one Ed25519 backend loads on this host")
    for seed in range(50):
        secret = random.Random(seed).randbytes(32)
        message = b"message %d" % seed
        derived = [b.keypair(secret) for b in BACKENDS]
        assert len({public for public, _ in derived}) == 1
        assert len({b.sign(signer, message) for b, (_, signer) in zip(BACKENDS, derived)}) == 1


P = 2**255 - 19
L = 2**252 + 27742317777372353535851937790883648493


def _point(y: int, sign: int = 0) -> bytes:
    return (y | sign << 255).to_bytes(32, "little")


# The encodings libsodium refuses as small-order points, each with either
# sign bit: y of the points of order 4, 1, 8, 8 and 2, then p and p + 1.
SMALL_ORDER = [
    _point(y, sign)
    for y in (
        0,
        1,
        2707385501144840649318225287225658788936804267575313519463743609750303402022,
        55188659117513257062467267217118295137698188065244968500265048394206261417927,
        P - 1,
        P,
        P + 1,
    )
    for sign in (0, 1)
]
NON_CANONICAL = [_point(y, sign) for y in range(P, 2**255) for sign in (0, 1)]


def _bit_flips(data: bytes):
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << bit % 8
        yield bytes(flipped)


@functools.cache
def verify_corpus() -> tuple:
    """(public key, tid, signature) cases, each with the one verdict every
    backend must give: only the two honest signatures verify."""
    cases = []
    for seed in (0, 1):
        public, signer = identity.CRYPTOGRAPHY.keypair(random.Random(seed).randbytes(32))
        tid = hashlib.sha256(bytes([seed])).digest()
        sig = identity.CRYPTOGRAPHY.sign(signer, b"avledger.tx.v1:" + tid)
        r, s = sig[:32], int.from_bytes(sig[32:], "little")
        cases.append((public, tid, sig, True))
        cases += [(public, tid, flipped, False) for flipped in _bit_flips(sig)]
        cases += [(public, flipped, sig, False) for flipped in _bit_flips(tid)]
        cases += [(flipped, tid, sig, False) for flipped in _bit_flips(public)]
        cases += [(public, tid, r + bad.to_bytes(32, "little"), False) for bad in (L, L + 1, s + L)]
        cases += [(a, tid, sig, False) for a in SMALL_ORDER + NON_CANONICAL]
        cases += [(public, tid, r + sig[32:], False) for r in SMALL_ORDER]
    # With a small-order key and R, S = 0 or 1 passes a cofactorless
    # equation for some messages.
    any_tid = hashlib.sha256(b"any").digest()
    cases += [
        (a, any_tid, r + s.to_bytes(32, "little"), False)
        for a in SMALL_ORDER + NON_CANONICAL
        for r in SMALL_ORDER
        for s in (0, 1)
    ]
    return tuple(cases)


def test_verify_corpus_gives_one_verdict_on_every_backend(backend):
    corpus = verify_corpus()
    got = [verify_tx_digest(public, tid, sig) for public, tid, sig, _ in corpus]
    wrong = [i for i, (case, verdict) in enumerate(zip(corpus, got)) if verdict is not case[3]]
    assert not wrong, f"{len(wrong)} of {len(corpus)} verdicts wrong, first case {wrong[0]}"


def test_the_identity_point_key_verifies_no_message(backend):
    for tid in (bytes(32), b"\x07" * 32, hashlib.sha256(b"any").digest()):
        assert not verify_tx_digest(b"\x01" + bytes(31), tid, b"\x01" + bytes(63))


@pytest.mark.parametrize("size", [0, 3, 63, 65])
def test_a_wrong_length_is_refused_before_the_backend(backend, monkeypatch, size):
    keys = generate_keypair(random.Random(0))
    tid = b"\x07" * 32
    sig = sign_tx_digest(keys, tid)
    # 63 bytes are the signature cut short, 65 the signature and one more.
    wrong = (sig + b"\x00")[:size]
    assert verify_tx_digest(keys.public_key, tid, wrong) is False
    calls = []
    monkeypatch.setattr(identity, "BACKEND", backend._replace(verify=lambda *a: calls.append(a)))
    assert verify_tx_digest(keys.public_key, tid, wrong) is False
    assert verify_tx_digest(keys.public_key[:31], tid, sig) is False
    assert verify_tx_digest(keys.public_key + b"\x00", tid, sig) is False
    assert calls == []


@pytest.mark.parametrize("size", [0, 3, 63, 65])
def test_a_stored_signature_of_the_wrong_length_is_a_fault(backend, tmp_path, size):
    world = make_world(seed=19)
    ledger = world.ledger(b_max=4)
    fill_ledger(world, ledger, 6)
    victim = ledger.records[2]
    entry = victim.signatures[0]
    forged = dataclasses.replace(
        victim, signatures=(dataclasses.replace(entry, signature=(entry.signature + b"\x00")[:size]),)
    )
    assert check_tx(forged, world.p1, {}) is Reason.BAD_SIGNATURE
    cert = dataclasses.replace(
        victim.cert, root_signature=(victim.cert.root_signature + b"\x00")[:size]
    )
    assert not certificate_signature_ok(cert, world.ca.public_key)
    ledger.records[2] = forged
    path = str(tmp_path / "p1.bin")
    save_ledger(ledger, path)
    faults = chain_faults(load_ledger(path))
    assert len(faults) == 1 and "(BadSignature)" in faults[0], faults


# --- certificates -------------------------------------------------------------

def _one_cert(world, at: float, validity: float = 300.0):
    [cert] = issue_certificate(world.ca, [generate_keypair(world.rng).public_key], at, validity, world.rng)
    return cert


def test_certificate_window_is_half_open():
    world = make_world()
    cert = _one_cert(world, 1000.0)
    assert certificate_signature_ok(cert, world.ca.public_key)
    assert cert.window_contains(1000.0)
    assert cert.window_contains(1299.999)
    assert not cert.window_contains(1300.0)
    assert not cert.window_contains(999.999)


@given(st.floats(min_value=-400.0, max_value=700.0, allow_nan=False))
def test_certificate_window_matches_interval_predicate(offset):
    world = make_world(seed=9)
    cert = _one_cert(world, 5000.0)
    expected = 5000.0 <= 5000.0 + offset < 5300.0
    assert cert.window_contains(5000.0 + offset) == expected


def test_certificate_signature_binds_all_fields():
    world = make_world()
    subjects = [generate_keypair(world.rng).public_key for _ in range(5)]
    certs = issue_certificate(world.ca, subjects, 1000.0, 300.0, world.rng)
    cert = certs[2]
    assert certificate_signature_ok(cert, world.ca.public_key)
    path = cert.audit_path
    for tampered in (
        dataclasses.replace(cert, issued_at=cert.issued_at + 1.0),
        dataclasses.replace(cert, validity_secs=cert.validity_secs + 1.0),
        dataclasses.replace(cert, cert_id=bytes(32)),
        dataclasses.replace(cert, subject_pubkey=generate_keypair(world.rng).public_key),
        dataclasses.replace(cert, leaf_index=3),
        dataclasses.replace(cert, batch_size=6),
        dataclasses.replace(cert, audit_path=bytes([path[0] ^ 1]) + path[1:]),
        dataclasses.replace(cert, root_signature=bytes(64)),
    ):
        assert not certificate_signature_ok(tampered, world.ca.public_key)
    rogue_ca = generate_keypair(world.rng)
    assert not certificate_signature_ok(cert, rogue_ca.public_key)


def test_nonpositive_validity_rejected():
    world = make_world()
    subject = generate_keypair(world.rng)
    with pytest.raises(InvalidValidity):
        issue_certificate(world.ca, [subject.public_key], 0.0, 0.0, world.rng)
    with pytest.raises(InvalidValidity):
        issue_certificate(world.ca, [subject.public_key], 0.0, -5.0, world.rng)


@pytest.mark.parametrize("size", [31, 33])
def test_a_subject_key_of_the_wrong_length_is_refused(size):
    world = make_world()
    subjects = [generate_keypair(world.rng).public_key, bytes(size)]
    with pytest.raises(ValueError, match="subject key must be 32 bytes"):
        issue_certificate(world.ca, subjects, 0.0, 300.0, world.rng)


def test_a_cert_id_hashes_key_issue_time_and_nonce():
    world = make_world(seed=4)
    subjects = [generate_keypair(world.rng).public_key for _ in range(3)]
    replay = random.Random()
    replay.setstate(world.rng.getstate())
    certs = issue_certificate(world.ca, subjects, 42.5, 300.0, world.rng)
    for cert in certs:
        nonce = replay.randbytes(16)
        preimage = cert.subject_pubkey + struct.pack(">d", 42.5) + nonce
        assert cert.cert_id == hashlib.sha256(preimage).digest()


def test_a_batch_signs_once_and_every_certificate_checks():
    world = make_world(seed=3)
    subjects = [generate_keypair(world.rng).public_key for _ in range(11)]
    certs = issue_certificate(world.ca, subjects, 50.0, 300.0, world.rng)
    assert [c.subject_pubkey for c in certs] == subjects
    assert [c.leaf_index for c in certs] == list(range(11))
    assert {c.batch_size for c in certs} == {11}
    assert len({c.root_signature for c in certs}) == 1
    assert len({c.batch_root() for c in certs}) == 1
    assert len({c.cert_id for c in certs}) == 11
    assert all(certificate_signature_ok(c, world.ca.public_key) for c in certs)


# A forged certificate under an otherwise valid transaction: the vehicle
# key signs the tid, so only the certificate check can refuse it.
def _path_from_another_batch(world, creds, other):
    keys, cert = creds[1]
    return keys, dataclasses.replace(
        cert, audit_path=other[1][1].audit_path, root_signature=other[1][1].root_signature
    )


def _rogue_ca(world, creds, other):
    keys = creds[1][0]
    rogue = generate_keypair(world.rng)
    subjects = [keys.public_key] + [generate_keypair(world.rng).public_key for _ in range(4)]
    return keys, issue_certificate(rogue, subjects, 1000.0, 300.0, world.rng)[0]


def _edit(**fields):
    def forge(world, creds, other):
        keys, cert = creds[0]
        changes = {name: edit(cert) for name, edit in fields.items()}
        return keys, dataclasses.replace(cert, **changes)

    return forge


FORGED_CERTIFICATES = {
    "path-from-another-batch": _path_from_another_batch,
    "root-signed-by-a-ca-not-in-genesis": _rogue_ca,
    "leaf-index-at-batch-size": _edit(leaf_index=lambda c: c.batch_size),
    "path-one-node-long": _edit(audit_path=lambda c: c.audit_path + c.audit_path[:32]),
    "path-one-node-short": _edit(audit_path=lambda c: c.audit_path[:-32]),
    # Leaf 0 of 5 and of 6 take paths of one shape, so the root comes out
    # the same; the CA signed it with size 5.
    "batch-size-changed": _edit(batch_size=lambda c: 6),
    # Leaf 0's place offered as the inner node above leaves 0 and 1: one
    # level up, the batch has 3 nodes and the path skips leaf 1.
    "inner-node-as-leaf": _edit(batch_size=lambda c: 3, audit_path=lambda c: c.audit_path[32:]),
}


@pytest.mark.parametrize("case", sorted(FORGED_CERTIFICATES))
def test_a_forged_certificate_is_refused(tmp_path, case):
    world = make_world(seed=23)
    creds = batch_credentials(world, 1000.0, 5)
    other = batch_credentials(world, 1000.0, 5)
    keys, forged = FORGED_CERTIFICATES[case](world, creds, other)
    if case == "batch-size-changed":
        assert forged.batch_root() == creds[0][1].batch_root()
    assert not certificate_signature_ok(forged, world.ca.public_key)
    tx = make_est(world, at=1010.0, creds=(keys, forged))
    assert check_tx(tx, world.p1, {}) is Reason.BAD_SIGNATURE
    # Honest neighbours from both batches come first, so both batch roots
    # are already known signed when the forgery is judged.
    ledger = world.ledger(b_max=4)
    for i, honest in enumerate((creds[3], other[3], creds[4])):
        append_by_hand(ledger, make_est(world, at=1000.0 + i, creds=honest))
    append_by_hand(ledger, tx)
    path = str(tmp_path / "p1.bin")
    save_ledger(ledger, path)
    faults = chain_faults(load_ledger(path))
    assert len(faults) == 1 and tx.tid.hex()[:16] in faults[0] and "(BadSignature)" in faults[0], faults


# --- batch trees ---------------------------------------------------------------

def _rfc6962_root(leaves: list) -> bytes:
    """MTH of RFC 6962, 2.1, written out recursively as an oracle."""
    if len(leaves) == 1:
        return leaves[0]
    k = 1 << ((len(leaves) - 1).bit_length() - 1)  # largest power of two below n
    left, right = _rfc6962_root(leaves[:k]), _rfc6962_root(leaves[k:])
    return hashlib.sha256(b"\x01" + left + right).digest()


@pytest.mark.parametrize("size", list(range(1, 34)) + [64, 65, 100])
def test_merkle_tree_is_the_rfc6962_tree_and_every_path_leads_to_its_root(size):
    leaves = [hashlib.sha256(b"\x00" + bytes([i % 256]) * 3).digest() for i in range(size)]
    root, paths = merkle_tree(leaves)
    assert root == _rfc6962_root(leaves)
    for index, (leaf, path) in enumerate(zip(leaves, paths)):
        assert len(path) % 32 == 0
        assert path_root(leaf, index, size, path) == root
        # One node more or fewer, or another index, does not lead to the
        # root. Another size can: leaf 0 of 5 and of 6 take paths of one
        # shape. That is why the CA signs the size with the root.
        assert path_root(leaf, index, size, path + leaves[0]) is None
        if path:
            assert path_root(leaf, index, size, path[:-32]) is None
        for other in {index ^ 1, size}:
            assert path_root(leaf, other, size, path) != root


def test_path_root_refuses_what_does_not_fit():
    leaves = [hashlib.sha256(bytes([i])).digest() for i in range(4)]
    root, paths = merkle_tree(leaves)
    assert path_root(leaves[3], 3, 4, paths[3]) == root
    assert path_root(leaves[3], 4, 4, paths[3]) is None  # index out of range
    assert path_root(leaves[3], 0, 0, b"") is None  # empty batch
    assert path_root(leaves[3], 3, 4, paths[3][:-1]) is None  # not whole nodes
    assert path_root(leaves[3], 3, 4, paths[3][:32]) is None  # too few nodes
    assert path_root(leaves[3], 3, 4, paths[3] + root) is None  # too many nodes
    with pytest.raises(ValueError):
        merkle_tree([])


def test_an_inner_node_is_never_a_leaf():
    """The second-preimage attack on a tree without domain separation:
    the two children of an inner node, offered as one leaf of the tree
    one level up, rebuild the same root there. Leaves hash under 0x00 and
    nodes under 0x01, so here they do not."""
    data = [bytes([i]) * 80 for i in range(4)]

    def naive(left, right):
        return hashlib.sha256(left + right).digest()

    h = [hashlib.sha256(d).digest() for d in data]
    naive_root = naive(naive(h[0], h[1]), naive(h[2], h[3]))
    inner_as_leaf = h[0] + h[1]
    assert naive(hashlib.sha256(inner_as_leaf).digest(), naive(h[2], h[3])) == naive_root

    leaves = [leaf_hash(d) for d in data]
    root, paths = merkle_tree(leaves)
    upper = node_hash(leaves[2], leaves[3])
    assert path_root(leaf_hash(leaves[0] + leaves[1]), 0, 2, upper) != root
    assert path_root(leaf_hash(leaves[0] + leaves[1]), 0, 4, upper) is None
    assert node_hash(leaves[0], leaves[1]) != leaf_hash(leaves[0] + leaves[1])


def _eager_batch(ca, subjects, issued_at, validity_secs, rng):
    """Every certificate of a batch built at issue, with merkle_tree's
    audit paths: the reference a batch's indexed certificates match."""
    issued = struct.pack(">d", issued_at)
    window = struct.pack(">dd", issued_at, validity_secs)
    cert_ids = [hashlib.sha256(subject + issued + rng.randbytes(16)).digest() for subject in subjects]
    root, paths = merkle_tree([leaf_hash(c + s + window) for c, s in zip(cert_ids, subjects)])
    signature = identity._sign_raw(ca, identity.root_payload(root, len(subjects)))
    return [
        PseudonymCertificate(cert_id, subject, issued_at, validity_secs, index, len(subjects), path, signature)
        for index, (cert_id, subject, path) in enumerate(zip(cert_ids, subjects, paths))
    ]


@pytest.mark.parametrize("size", [*range(1, 18), 213])
def test_a_batch_builds_each_certificate_when_indexed_as_the_eager_issue_did(size, monkeypatch):
    world = make_world(seed=size)
    subjects = [generate_keypair(world.rng).public_key for _ in range(size)]
    draws = random.Random()
    draws.setstate(world.rng.getstate())
    built = []
    init = PseudonymCertificate.__init__

    def counting(self, *values):
        built.append(values[4])  # the leaf index
        init(self, *values)

    monkeypatch.setattr(PseudonymCertificate, "__init__", counting)
    batch = issue_certificate(world.ca, subjects, 1000.0, 300.0, world.rng)
    assert built == [] and len(batch) == size
    index = size // 2
    cert = batch[index]
    assert built == [index]  # indexing one certificate builds no other
    eager = _eager_batch(world.ca, subjects, 1000.0, 300.0, draws)
    assert draws.getstate() == world.rng.getstate()  # the batch drew every nonce at issue
    assert cert == eager[index]
    assert list(batch) == eager and batch[-1] == eager[-1]
    with pytest.raises(IndexError):
        batch[size]
    assert all(certificate_signature_ok(cert, world.ca.public_key) for cert in batch)


# --- escrow -------------------------------------------------------------------

def test_rotation_yields_unique_cert_ids_and_records_links():
    world = make_world()
    escrow = IdentityEscrow("gta-0", "la-0")
    escrow.register_vehicle("av-0")
    seen = set()
    for i in range(8):
        subjects = [generate_keypair(world.rng).public_key for _ in range(8)]
        for cert in issue_certificate(world.ca, subjects, 100.0 * i, 300.0, world.rng):
            assert cert.cert_id not in seen
            seen.add(cert.cert_id)
            escrow.record(cert.cert_id, "av-0")
            assert escrow.reveal_identity(cert.cert_id, {"gta-0", "la-0"}) == "av-0"
    assert len(seen) == 64


def test_reveal_requires_both_authorities():
    world = make_world()
    escrow = IdentityEscrow("gta-0", "la-0")
    escrow.register_vehicle("av-1")
    cert = _one_cert(world, 0.0)
    escrow.record(cert.cert_id, "av-1")
    with pytest.raises(EscrowDenied):
        escrow.reveal_identity(cert.cert_id, {"gta-0"})
    with pytest.raises(EscrowDenied):
        escrow.reveal_identity(cert.cert_id, {"la-0"})
    with pytest.raises(EscrowDenied):
        escrow.reveal_identity(cert.cert_id, set())
    # Extra approvers beyond the required pair do not hurt.
    assert escrow.reveal_identity(cert.cert_id, {"gta-0", "la-0", "ic-0"}) == "av-1"


def test_escrow_rejects_unknown_parties():
    escrow = IdentityEscrow("gta-0", "la-0")
    with pytest.raises(UnknownEntity):
        escrow.record(b"\x01" * 32, "av-9")
    escrow.register_vehicle("av-9")
    escrow.record(b"\x01" * 32, "av-9")
    with pytest.raises(UnknownCertificate):
        escrow.reveal_identity(b"\x02" * 32, {"gta-0", "la-0"})


# --- sealed witness payloads --------------------------------------------------

@given(st.binary(max_size=200))
def test_seal_open_round_trip(plaintext):
    rng = random.Random(5)
    key = derive_shared_key(rng)
    sealed = seal_to_key(key, plaintext, rng)
    assert open_sealed(key, sealed) == plaintext


def test_sealed_payloads_differ_per_nonce():
    rng = random.Random(6)
    key = derive_shared_key(rng)
    a = seal_to_key(key, b"same words", rng)
    b = seal_to_key(key, b"same words", rng)
    assert a != b
    assert open_sealed(key, a) == open_sealed(key, b)


def test_open_sealed_rejects_short_payload():
    with pytest.raises(ValueError):
        open_sealed(b"\x00" * 32, b"short")


# --- transaction signatures on a worker thread ----------------------------------

def _signed_checks(n: int, seed: int) -> list[tuple[bytes, bytes, bytes]]:
    rng = random.Random(seed)
    keys = [generate_keypair(rng) for _ in range(4)]
    checks = []
    for i in range(n):
        tid = rng.randbytes(32)
        checks.append((keys[i % 4].public_key, tid, sign_tx_digest(keys[i % 4], tid)))
    return checks


def _spoil(check: tuple[bytes, bytes, bytes], how: int) -> tuple[bytes, bytes, bytes]:
    public_key, tid, signature = check
    if how == 0:
        return public_key, tid, bytes([signature[0] ^ 0x01]) + signature[1:]
    if how == 1:
        return public_key, bytes([tid[0] ^ 0x80]) + tid[1:], signature
    return public_key, tid, signature[:63]  # refused before the backend


def test_verifiers_under_fast_thread_switching_run_every_check_once():
    """Four verifiers, each fed by a thread of its own, with the
    interpreter switching threads every microsecond: each runs every
    check it was given, and reports a failure exactly when a bad check
    was among them."""
    valid = _signed_checks(64, seed=5)
    rng = random.Random(17)
    feeds = []
    for index in range(4):
        checks = [valid[rng.randrange(len(valid))] for _ in range(1000)]
        if index % 2:
            for at in rng.sample(range(len(checks)), 2):
                checks[at] = _spoil(checks[at], rng.randrange(3))
        feeds.append(checks)
    before = threading.active_count()
    verifiers = [TxVerifier() for _ in feeds]
    held = [None] * len(feeds)

    def feed(index: int) -> None:
        verifier = verifiers[index]
        for check in feeds[index]:
            assert verifier.check(*check) is True
        held[index] = verifier.close()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        feeders = [threading.Thread(target=feed, args=(index,)) for index in range(len(feeds))]
        for thread in feeders:
            thread.start()
        for thread in feeders:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(switch)
    assert held == [True, False, True, False]
    for verifier, checks in zip(verifiers, feeds):
        assert verifier.queued == verifier.checked == len(checks)
    assert threading.active_count() == before


def test_a_verifier_whose_backend_raises_stops_and_reports_it(monkeypatch):
    checks = _signed_checks(40, seed=6)
    seen = []

    def raising(public_key, message, signature):
        seen.append(message)
        if len(seen) == 10:
            raise RuntimeError("backend failed")
        return True

    monkeypatch.setattr(identity, "BACKEND", identity.BACKEND._replace(verify=raising))
    verifier = TxVerifier()
    for check in checks:
        verifier.check(*check)
    assert verifier.close() is False
    assert verifier.close() is False  # a second close waits for nothing
    assert verifier.queued == 40 and verifier.checked == 9 and len(seen) == 10
