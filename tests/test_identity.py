"""Key handling, pseudonym certificates, the identity escrow, and the
sealed witness payloads."""

import random

import pytest
from hypothesis import given, strategies as st

from avledger.errors import EscrowDenied, InvalidValidity, UnknownCertificate, UnknownEntity
from avledger.identity import (
    IdentityEscrow,
    certificate_signature_ok,
    derive_shared_key,
    generate_keypair,
    issue_certificate,
    open_sealed,
    rotate_pseudonym,
    seal_to_key,
    sign_tx_digest,
    verify_tx_digest,
)

from worldkit import make_world


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


# --- certificates -------------------------------------------------------------

def test_certificate_window_is_half_open():
    world = make_world()
    subject = generate_keypair(world.rng)
    cert = issue_certificate(world.ca, subject.public_key, 1000.0, 300.0, world.rng)
    assert certificate_signature_ok(cert, world.ca.public_key)
    assert cert.window_contains(1000.0)
    assert cert.window_contains(1299.999)
    assert not cert.window_contains(1300.0)
    assert not cert.window_contains(999.999)


@given(st.floats(min_value=-400.0, max_value=700.0, allow_nan=False))
def test_certificate_window_matches_interval_predicate(offset):
    world = make_world(seed=9)
    subject = generate_keypair(world.rng)
    cert = issue_certificate(world.ca, subject.public_key, 5000.0, 300.0, world.rng)
    expected = 5000.0 <= 5000.0 + offset < 5300.0
    assert cert.window_contains(5000.0 + offset) == expected


def test_certificate_signature_binds_all_fields():
    world = make_world()
    subject = generate_keypair(world.rng)
    cert = issue_certificate(world.ca, subject.public_key, 1000.0, 300.0, world.rng)
    assert certificate_signature_ok(cert, world.ca.public_key)
    import dataclasses

    for tampered in (
        dataclasses.replace(cert, issued_at=cert.issued_at + 1.0),
        dataclasses.replace(cert, validity_secs=cert.validity_secs + 1.0),
        dataclasses.replace(cert, cert_id=bytes(32)),
        dataclasses.replace(cert, subject_pubkey=generate_keypair(world.rng).public_key),
    ):
        assert not certificate_signature_ok(tampered, world.ca.public_key)
    rogue_ca = generate_keypair(world.rng)
    assert not certificate_signature_ok(cert, rogue_ca.public_key)


def test_nonpositive_validity_rejected():
    world = make_world()
    subject = generate_keypair(world.rng)
    with pytest.raises(InvalidValidity):
        issue_certificate(world.ca, subject.public_key, 0.0, 0.0, world.rng)
    with pytest.raises(InvalidValidity):
        issue_certificate(world.ca, subject.public_key, 0.0, -5.0, world.rng)


# --- escrow -------------------------------------------------------------------

def test_rotation_yields_unique_cert_ids_and_records_links():
    world = make_world()
    escrow = IdentityEscrow("gta-0", "la-0")
    escrow.register_vehicle("av-0")
    seen = set()
    for i in range(64):
        _, cert = rotate_pseudonym("av-0", escrow, world.ca, 100.0 * i, world.rng)
        assert cert.cert_id not in seen
        seen.add(cert.cert_id)
        assert escrow.reveal_identity(cert.cert_id, {"gta-0", "la-0"}) == "av-0"


def test_reveal_requires_both_authorities():
    world = make_world()
    escrow = IdentityEscrow("gta-0", "la-0")
    escrow.register_vehicle("av-1")
    _, cert = rotate_pseudonym("av-1", escrow, world.ca, 0.0, world.rng)
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
