"""Key material, pseudonym certificates, and identity escrow.

Vehicles never sign with a long-term key: each transaction is signed under
a short-lived pseudonym certificate issued by the certificate authority,
and the mapping from certificate id back to the real entity lives only in
an escrow that both settlement authorities must approve to open.

The CA certifies keys in batches. A batch is a Merkle tree in the shape of
RFC 6962 over one leaf per certificate (a leaf is hashed as 0x00 || leaf,
an inner node as 0x01 || left || right), and the CA signs only the root
and the batch size. Each certificate carries its leaf index, the batch
size and its audit path, so checking it costs about log2(batch) SHA-256
calls to rebuild the root plus one signature check of that root. A batch
of one leaf has an empty path and is checked the same way. A batch keeps
its tree and builds a certificate, audit path first, when it is indexed,
so a key that is never used costs no path and no certificate object.

Signing is Ed25519 (RFC 8032: deterministic signatures, 32-byte raw public
keys) behind generate_keypair / sign / verify. Two backends give the same
keys, signatures and verdicts. The system libsodium, called through ctypes,
backs them wherever libsodium.so.23 loads; the `cryptography` package backs
them everywhere else. No option, environment variable or config key
chooses. One verify rule holds on both: a signature or public key of the
wrong length, a public key or R that is a small-order point, and a
non-canonical public key are refused, as libsodium refuses them.

Every check is made, and no verdict is remembered here; only
txmodel.check_tx_genesis remembers one: the batch roots it found
CA-signed, in a set its caller owns. Most checks run inline, on the
caller's thread, before the verdict that needs them. A scenario run is
the one exception. Where background_verify_pays() holds (the backend's
verify gives up the interpreter lock, and the process may use two CPUs
or more), ScenarioEngine.run hands each transaction signature to a
TxVerifier, whose worker thread checks it while the engine goes on, and
confirms every one of them when it joins the worker at the end of the
run. A check that failed there makes the run repeat with every check
inline.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import queue
import random
import threading
from dataclasses import field
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .encoding import BLOB, F64, U32, encode, fixed, frozen, pack, wire
from .errors import EscrowDenied, InvalidValidity, UnknownCertificate, UnknownEntity

EntityId = str

PUBLIC_KEY_SIZE = 32
SECRET_KEY_SIZE = 32
SIGNATURE_SIZE = 64
CERT_NONCE_SIZE = 16
NODE_SIZE = 32  # one SHA-256 node of an audit path

# Certificates are short-lived by design: one rotation per transaction, and
# a roughly five-minute validity window unless a scenario overrides it.
DEFAULT_CERT_VALIDITY_SECS = 300.0

# Domain separation between the two things a key ever signs, and between
# the two things a batch tree hashes.
_ROOT_SIGN_PREFIX = b"avledger.cert-root.v2:"
_TX_SIGN_PREFIX = b"avledger.tx.v1:"
_LEAF_TAG = b"\x00"
_NODE_TAG = b"\x01"


# --- Ed25519 backends ---------------------------------------------------------

class Backend(NamedTuple):
    """The three Ed25519 primitives. keypair(seed) gives (public key,
    signer); signer is what sign takes to sign under that seed. verify is
    called only with a 32-byte key and a 64-byte signature.
    releases_lock says whether verify gives up the interpreter lock while
    it runs, so that another thread can run beside it."""

    name: str
    keypair: Callable[[bytes], tuple[bytes, object]]
    sign: Callable[[object, bytes], bytes]
    verify: Callable[[bytes, bytes, bytes], bool]
    releases_lock: bool


def _load_libsodium() -> Optional[Backend]:
    """The system libsodium's Ed25519, or None where it does not load.

    The library is opened by soname: ctypes.util.find_library would start
    ldconfig or a compiler at import.
    """
    try:
        lib = ctypes.CDLL("libsodium.so.23")
        init = lib.sodium_init
        seed_keypair = lib.crypto_sign_ed25519_seed_keypair
        detached = lib.crypto_sign_ed25519_detached
        verify_detached = lib.crypto_sign_ed25519_verify_detached
    except (OSError, AttributeError):
        return None
    byte_p, size = ctypes.c_char_p, ctypes.c_ulonglong
    for function, argtypes in (
        (init, ()),
        (seed_keypair, (byte_p, byte_p, byte_p)),
        (detached, (byte_p, ctypes.c_void_p, byte_p, size, byte_p)),
        (verify_detached, (byte_p, byte_p, size, byte_p)),
    ):
        function.argtypes, function.restype = argtypes, ctypes.c_int
    if init() < 0:
        return None

    # libsodium reads a fixed number of bytes behind each pointer, so every
    # input is sized here first.
    def keypair(seed: bytes) -> tuple[bytes, bytes]:
        # The signer is libsodium's 64-byte secret key: seed || public key.
        if len(seed) != SECRET_KEY_SIZE:
            raise ValueError(f"seed must be {SECRET_KEY_SIZE} bytes")
        public = ctypes.create_string_buffer(PUBLIC_KEY_SIZE)
        secret = ctypes.create_string_buffer(SECRET_KEY_SIZE + PUBLIC_KEY_SIZE)
        if seed_keypair(public, secret, seed) != 0:
            raise RuntimeError("crypto_sign_ed25519_seed_keypair failed")
        return public.raw, secret.raw

    def sign(secret: bytes, message: bytes) -> bytes:
        if len(secret) != SECRET_KEY_SIZE + PUBLIC_KEY_SIZE:
            raise ValueError("libsodium signs with a 64-byte secret key")
        signature = ctypes.create_string_buffer(SIGNATURE_SIZE)
        if detached(signature, None, message, len(message), secret) != 0:
            raise RuntimeError("crypto_sign_ed25519_detached failed")
        return signature.raw

    def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
        return verify_detached(signature, message, len(message), public_key) == 0

    # ctypes gives up the interpreter lock for every call through a CDLL.
    return Backend("libsodium", keypair, sign, verify, True)


_P = 2**255 - 19
_Y_MASK = 2**255 - 1  # an encoding without its sign bit: the y coordinate
# libsodium's small-order encodings (ge25519_has_small_order), as y without
# the sign bit: the points of order 4, 1, 8, 8 and 2, then p and p + 1, the
# non-canonical forms of y = 0 and 1. OpenSSL's cofactorless check accepts
# some of them: with A and R the identity and S = 0, every message verifies.
_SMALL_ORDER_Y = frozenset({
    0,
    1,
    2707385501144840649318225287225658788936804267575313519463743609750303402022,
    55188659117513257062467267217118295137698188065244968500265048394206261417927,
    _P - 1,
    _P,
    _P + 1,
})


def _cryptography_keypair(seed: bytes) -> tuple[bytes, Ed25519PrivateKey]:
    private = Ed25519PrivateKey.from_private_bytes(seed)
    public = private.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    return public, private


def _cryptography_sign(private: Ed25519PrivateKey, message: bytes) -> bytes:
    return private.sign(message)


def _cryptography_verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    # Refuse first what libsodium refuses before its equation check.
    a = int.from_bytes(public_key, "little") & _Y_MASK
    r = int.from_bytes(signature[:32], "little") & _Y_MASK
    if a >= _P or a in _SMALL_ORDER_Y or r in _SMALL_ORDER_Y:
        return False
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


# `cryptography` holds the interpreter lock while it verifies.
CRYPTOGRAPHY = Backend(
    "cryptography", _cryptography_keypair, _cryptography_sign, _cryptography_verify, False
)

# The backend every key, signature and verdict of this process comes from.
BACKEND = _load_libsodium() or CRYPTOGRAPHY


@frozen
class KeyPair:
    """Ed25519 key pair; secret_key is the 32-byte RFC 8032 seed.

    `signer` is the backend's signing key that generate_keypair derived
    from that seed (libsodium's 64-byte secret key, or an
    Ed25519PrivateKey), held so that a sign does not derive it again.
    It is derived from secret_key, so equality and repr leave it out.
    """

    public_key: bytes
    secret_key: bytes
    signer: object = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.public_key) != PUBLIC_KEY_SIZE:
            raise ValueError(f"public key must be {PUBLIC_KEY_SIZE} bytes")
        if len(self.secret_key) != SECRET_KEY_SIZE:
            raise ValueError(f"secret key must be {SECRET_KEY_SIZE} bytes")


def generate_keypair(rng: random.Random) -> KeyPair:
    """Derives a key pair from the caller's seeded RNG (replayable)."""
    seed = rng.randbytes(SECRET_KEY_SIZE)
    public, signer = BACKEND.keypair(seed)
    return KeyPair(public_key=public, secret_key=seed, signer=signer)


def _sign_raw(keys: KeyPair, message: bytes) -> bytes:
    return BACKEND.sign(keys.signer, message)


def _verify_raw(public_key: bytes, message: bytes, signature: bytes) -> bool:
    # Stored signatures are blobs of any length; libsodium reads exactly
    # 64 bytes of one and 32 of a key, so other lengths never reach it.
    if len(signature) != SIGNATURE_SIZE or len(public_key) != PUBLIC_KEY_SIZE:
        return False
    return BACKEND.verify(public_key, message, signature)


def sign_tx_digest(keys: KeyPair, tid: bytes) -> bytes:
    """Signs a transaction id (hash-then-sign; the tid is the digest)."""
    return _sign_raw(keys, _TX_SIGN_PREFIX + tid)


def verify_tx_digest(public_key: bytes, tid: bytes, signature: bytes) -> bool:
    return _verify_raw(public_key, _TX_SIGN_PREFIX + tid, signature)


# --- transaction signatures on a worker thread ---------------------------------

def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def background_verify_pays() -> bool:
    """Whether a TxVerifier gains here: BACKEND's verify gives up the
    interpreter lock, so the worker's checks overlap the caller's work,
    and the process may run on a second CPU. With `cryptography`, which
    holds the lock, deferring the checks made fleet runs no faster, and
    in most measured pairs slower, than checking them inline."""
    return BACKEND.releases_lock and usable_cpus() >= 2


# A TxVerifier's worker takes its checks in lists of this many, so that
# it is woken once per list, not once per check.
_VERIFY_BATCH = 32


class TxVerifier:
    """Checks transaction signatures on a worker thread.

    check(public_key, tid, signature) queues one check and returns True
    at once: its caller judges as if the signature held. The checks reach
    the worker in lists of _VERIFY_BATCH through a SimpleQueue, and the
    worker runs each through verify_tx_digest, which reads BACKEND at
    call time. close() queues the last list, stops the worker, waits for
    it and says whether every check queued before it ran and held; a
    worker that raised stops there and close() says False. Only the
    worker writes `checked` and the failure flag, and only the caller
    writes `queued`; each side reads the other's after the join, so no
    lock guards them.

    The owner calls close() in a `finally`: a worker left alive would keep
    ledger._genesis_reasons from forking its helpers.
    """

    def __init__(self) -> None:
        self.queued = 0
        self.checked = 0
        self._failed = False
        self._batch: list[tuple[bytes, bytes, bytes]] = []
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._thread = threading.Thread(target=self._work, name="avledger-verify", daemon=True)
        self._thread.start()

    def check(self, public_key: bytes, tid: bytes, signature: bytes) -> bool:
        batch = self._batch
        batch.append((public_key, tid, signature))
        if len(batch) == _VERIFY_BATCH:
            self._send()
        return True

    def close(self) -> bool:
        """Waits for the worker to finish what was queued and stop; True
        when every check queued so far ran and held. Calling it again
        waits for nothing and gives the same answer."""
        if self._batch:
            self._send()
        self._queue.put(None)
        self._thread.join()
        return not self._failed and self.checked == self.queued

    def _send(self) -> None:
        self.queued += len(self._batch)
        self._queue.put(self._batch)
        self._batch = []

    def _work(self) -> None:
        try:
            for batch in iter(self._queue.get, None):
                for public_key, tid, signature in batch:
                    if not verify_tx_digest(public_key, tid, signature):
                        self._failed = True
                    self.checked += 1
        except Exception:
            # The thread's boundary: close() reports the failure, and the
            # owner's inline replay raises the error where it belongs.
            self._failed = True


# --- certificate batches -------------------------------------------------------

def leaf_hash(data: bytes) -> bytes:
    return hashlib.sha256(_LEAF_TAG + data).digest()


def node_hash(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(_NODE_TAG + left + right).digest()


def _levels(leaves: Sequence[bytes]) -> list[list[bytes]]:
    """The tree's levels, the leaf hashes first and the root alone last.

    Neighbours pair up left to right and a last node without a partner
    moves up unchanged, which gives the tree of RFC 6962 (the left subtree
    of n leaves holds the largest power of two below n).
    """
    if not leaves:
        raise ValueError("a batch needs at least one leaf")
    levels = [list(leaves)]
    while len(levels[-1]) > 1:
        level = levels[-1]
        up = [node_hash(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            up.append(level[-1])
        levels.append(up)
    return levels


def _audit_path(levels: list[list[bytes]], index: int) -> bytes:
    """Leaf `index`'s audit path, leaf end first: at each level below the
    root, the node's sibling where it has one; then on to its parent."""
    nodes = []
    for level in levels[:-1]:
        if index ^ 1 < len(level):
            nodes.append(level[index ^ 1])
        index >>= 1
    return b"".join(nodes)


def merkle_tree(leaves: Sequence[bytes]) -> tuple[bytes, list[bytes]]:
    """The root over leaf hashes, and each leaf's audit path as one blob of
    nodes, leaf end first."""
    levels = _levels(leaves)
    return levels[-1][0], [_audit_path(levels, index) for index in range(len(leaves))]


def path_root(leaf: bytes, index: int, size: int, path: bytes) -> Optional[bytes]:
    """The root that an audit path leads to from a leaf hash, or None when
    the path does not fit leaf `index` of a batch of `size` leaves: an
    index out of range, a blob that is not whole nodes, or too many or
    too few nodes. This is the inclusion check of RFC 9162, 2.1.3.2.
    """
    if index >= size or len(path) % NODE_SIZE:
        return None
    sha256 = hashlib.sha256  # node_hash inlined: this runs for every transaction judged
    fn, sn, r = index, size - 1, leaf
    for at in range(0, len(path), NODE_SIZE):
        if sn == 0:
            return None
        node = path[at:at + NODE_SIZE]
        if fn & 1 or fn == sn:
            r = sha256(_NODE_TAG + node + r).digest()
            while not fn & 1 and fn:
                fn >>= 1
                sn >>= 1
        else:
            r = sha256(_NODE_TAG + r + node).digest()
        fn >>= 1
        sn >>= 1
    return r if sn == 0 else None


def root_payload(root: bytes, size: int) -> bytes:
    """What the CA signs for a batch: its root and its size."""
    return _ROOT_SIGN_PREFIX + root + size.to_bytes(4, "big")


@frozen
class PseudonymCertificate:
    """Short-lived credential binding a throwaway key to the CA's trust.

    cert_id is the SHA-256 of subject_pubkey || issued_at || nonce, so ids
    are unlinkable across rotations. Validity is the half-open window
    [issued_at, issued_at + validity_secs). Those four fields are the
    certificate's leaf in its batch; leaf_index, batch_size and
    audit_path (whole 32-byte nodes, leaf end first) lead from the leaf to
    the batch root, and root_signature is the CA's over root_payload.
    """

    cert_id: bytes = wire(fixed(32))
    subject_pubkey: bytes = wire(fixed(PUBLIC_KEY_SIZE))
    issued_at: float = wire(F64)
    validity_secs: float = wire(F64)
    leaf_index: int = wire(U32)
    batch_size: int = wire(U32)
    audit_path: bytes = wire(BLOB)
    root_signature: bytes = wire(BLOB)

    def leaf(self) -> bytes:
        """The leaf bytes: every field before leaf_index."""
        return encode(self, stop=4)

    def batch_root(self) -> Optional[bytes]:
        """The root the audit path leads to, or None when it does not fit."""
        return path_root(leaf_hash(self.leaf()), self.leaf_index, self.batch_size, self.audit_path)

    def window_contains(self, at: float) -> bool:
        return self.issued_at <= at < self.issued_at + self.validity_secs


class CertificateBatch(Sequence[PseudonymCertificate]):
    """The certificates of one batch, in leaf order. The batch keeps each
    leaf's cert id and subject key, the tree levels and the root
    signature, and builds certificate i, audit path first, only when it is
    indexed; nothing it builds is kept."""

    __slots__ = ("_cert_ids", "_subjects", "_levels", "_issued_at", "_validity_secs", "_signature")

    def __init__(
        self,
        cert_ids: list[bytes],
        subjects: Sequence[bytes],
        levels: list[list[bytes]],
        issued_at: float,
        validity_secs: float,
        signature: bytes,
    ) -> None:
        self._cert_ids = cert_ids
        self._subjects = subjects
        self._levels = levels
        self._issued_at = issued_at
        self._validity_secs = validity_secs
        self._signature = signature

    def __len__(self) -> int:
        return len(self._cert_ids)

    def __getitem__(self, index: int) -> PseudonymCertificate:
        index = range(len(self._cert_ids))[index]  # IndexError out of range, as a tuple
        return PseudonymCertificate(
            self._cert_ids[index],
            self._subjects[index],
            self._issued_at,
            self._validity_secs,
            index,
            len(self._cert_ids),
            _audit_path(self._levels, index),
            self._signature,
        )


def issue_certificate(
    ca: KeyPair,
    subject_pubkeys: Sequence[bytes],
    issued_at: float,
    validity_secs: float,
    rng: random.Random,
) -> CertificateBatch:
    """One batch: a certificate per key, in the given (leaf) order, all
    under one CA signature. Every leaf gets the window [issued_at,
    issued_at + validity_secs). Every leaf is hashed, and its nonce drawn,
    here; a certificate is built when the batch is indexed."""
    if validity_secs <= 0:
        raise InvalidValidity(f"validity must be positive, got {validity_secs}")
    # The bytes every leaf of the batch shares: the issue time that each
    # cert id hashes, and the window that each leaf ends with.
    issued = pack(PseudonymCertificate, issued_at, start=2)
    window = pack(PseudonymCertificate, issued_at, validity_secs, start=2)
    sha256 = hashlib.sha256
    cert_ids, leaves = [], []
    for subject_pubkey in subject_pubkeys:
        if len(subject_pubkey) != PUBLIC_KEY_SIZE:
            raise ValueError(f"subject key must be {PUBLIC_KEY_SIZE} bytes, got {len(subject_pubkey)}")
        cert_id = sha256(subject_pubkey + issued + rng.randbytes(CERT_NONCE_SIZE)).digest()
        cert_ids.append(cert_id)
        leaves.append(leaf_hash(cert_id + subject_pubkey + window))
    levels = _levels(leaves)
    signature = _sign_raw(ca, root_payload(levels[-1][0], len(cert_ids)))
    return CertificateBatch(cert_ids, tuple(subject_pubkeys), levels, issued_at, validity_secs, signature)


def certificate_signature_ok(cert: PseudonymCertificate, ca_pubkey: bytes) -> bool:
    """The audit path leads to a root, and the CA signed that root with
    the certificate's batch size."""
    root = cert.batch_root()
    return root is not None and _verify_raw(
        ca_pubkey, root_payload(root, cert.batch_size), cert.root_signature
    )


class IdentityEscrow:
    """Maps certificate ids to real entities, gated by a two-party policy.

    A reveal needs approvals from both configured settlement authorities;
    there is no threshold cryptography here, just an explicit policy check
    in front of a plain map.
    """

    def __init__(self, authority_a: EntityId, authority_b: EntityId) -> None:
        self._authorities = frozenset({authority_a, authority_b})
        self._vehicles: set[EntityId] = set()
        self._by_cert: dict[bytes, EntityId] = {}

    def register_vehicle(self, entity: EntityId) -> None:
        self._vehicles.add(entity)

    def record(self, cert_id: bytes, entity: EntityId) -> None:
        if entity not in self._vehicles:
            raise UnknownEntity(f"vehicle {entity!r} is not registered")
        self._by_cert[cert_id] = entity

    def reveal_identity(self, cert_id: bytes, approvals: Iterable[EntityId]) -> EntityId:
        granted = set(approvals)
        if not self._authorities <= granted:
            missing = sorted(self._authorities - granted)
            raise EscrowDenied(f"reveal requires approval from {missing}")
        try:
            return self._by_cert[cert_id]
        except KeyError:
            raise UnknownCertificate(cert_id.hex()) from None


# --- witness payload opacity -------------------------------------------------

def seal_to_key(shared_key: bytes, plaintext: bytes, rng: random.Random) -> bytes:
    """Simulation-grade opacity for witness payloads: a random nonce plus a
    SHA-256 keystream XOR. Enough to keep the bytes opaque to the evidence
    partition in a deterministic simulation; not a real confidentiality
    scheme and not meant to be one.
    """
    nonce = rng.randbytes(16)
    return nonce + bytes(a ^ b for a, b in zip(plaintext, _keystream(shared_key, nonce, len(plaintext))))


def open_sealed(shared_key: bytes, sealed: bytes) -> bytes:
    if len(sealed) < 16:
        raise ValueError("sealed payload too short")
    nonce, body = sealed[:16], sealed[16:]
    return bytes(a ^ b for a, b in zip(body, _keystream(shared_key, nonce, len(body))))


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    out = bytearray()
    counter = 0
    while len(out) < length:
        out += hashlib.sha256(key + nonce + counter.to_bytes(8, "big")).digest()
        counter += 1
    return bytes(out[:length])


def derive_shared_key(rng: random.Random) -> bytes:
    return rng.randbytes(32)


__all__ = [
    "EntityId",
    "KeyPair",
    "PseudonymCertificate",
    "CertificateBatch",
    "IdentityEscrow",
    "DEFAULT_CERT_VALIDITY_SECS",
    "generate_keypair",
    "sign_tx_digest",
    "verify_tx_digest",
    "usable_cpus",
    "background_verify_pays",
    "TxVerifier",
    "issue_certificate",
    "certificate_signature_ok",
    "leaf_hash",
    "node_hash",
    "merkle_tree",
    "path_root",
    "root_payload",
    "seal_to_key",
    "open_sealed",
    "derive_shared_key",
]
