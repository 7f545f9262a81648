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

Every check a verdict needs goes through a checks object, of one of two
kinds with the same two methods: signature(public key, message,
signature), an Ed25519 check, and certificate(cert, CA keys), the whole
certificate rule. InlineChecks makes each check when it is asked, and is
the one place a verdict is remembered: the batch roots it found signed by
one of the CA keys, so that each is checked once per object. SentChecks
sends checks to the process's check helpers (see forks), long-lived
child processes that make them with an InlineChecks of their own while
the caller goes on, and answers True at once; the caller confirms them
all at its end (close()). ScenarioEngine.run sends every check of its
rounds, and a chain's judgement (ledger.load_ledger as it reads a file,
or ledger.chain_faults) every signature check while a helper has room.
A check that failed there, or a helper that died, makes the caller judge
again with every check inline. Where forks.fork_pays() does not hold
(the platform cannot fork, another thread is alive, or the process may
use one CPU), and in every other caller, every check is inline.

A checks object is also the key source of the caller that draws keys
through it (generate_keypairs(rng, n, checks)). InlineChecks derives each
key when it is drawn. A run's SentChecks has its first helper derive, in
the time its checks leave it, the public keys of the seeds the engine
will draw next, and takes a key from there only when its seed is exactly
one drawn; otherwise, and under the `cryptography` backend, it derives
the key itself, never waiting for the helper.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pickle
import random
from collections import deque
from dataclasses import field
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from .encoding import BLOB, F64, U32, encode, fixed, frozen, pack, wire
from .errors import EscrowDenied, InvalidValidity, UnknownCertificate, UnknownEntity
from .forks import Feed, Helper, helpers

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
    called only with a 32-byte key and a 64-byte signature. signer(seed,
    public key), where a backend has it, builds the signer from a seed
    and its public key derived already, at no derivation's cost."""

    name: str
    keypair: Callable[[bytes], tuple[bytes, object]]
    sign: Callable[[object, bytes], bytes]
    verify: Callable[[bytes, bytes, bytes], bool]
    signer: Optional[Callable[[bytes, bytes], object]] = None


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

    def signer(seed: bytes, public: bytes) -> bytes:
        return seed + public

    return Backend("libsodium", keypair, sign, verify, signer)


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


CRYPTOGRAPHY = Backend("cryptography", _cryptography_keypair, _cryptography_sign, _cryptography_verify)

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


def generate_keypairs(rng: random.Random, n: int, checks: "Checks") -> list[KeyPair]:
    """n key pairs drawn from the caller's seeded RNG as n calls of
    generate_keypair would draw them, one 32-byte seed after the other,
    with their public keys and signers from checks.keypairs: a
    SentChecks may answer some from keys its helper derived ahead."""
    seeds = [rng.randbytes(SECRET_KEY_SIZE) for _ in range(n)]
    return [
        KeyPair(public_key=public, secret_key=seed, signer=signer)
        for seed, (public, signer) in zip(seeds, checks.keypairs(seeds))
    ]


class KeyStream(random.Random):
    """A Random that counts the bytes randbytes has drawn from it, so that
    whoever holds a copy of its state at some count can find the bytes it
    draws at any later one."""

    drawn = 0

    def randbytes(self, n: int) -> bytes:
        self.drawn += n
        return self.getrandbits(n * 8).to_bytes(n, "little")


def _sign_raw(keys: KeyPair, message: bytes) -> bytes:
    return BACKEND.sign(keys.signer, message)


def _verify_raw(public_key: bytes, message: bytes, signature: bytes) -> bool:
    # Stored signatures are blobs of any length; libsodium reads exactly
    # 64 bytes of one and 32 of a key, so other lengths never reach it.
    if len(signature) != SIGNATURE_SIZE or len(public_key) != PUBLIC_KEY_SIZE:
        return False
    return BACKEND.verify(public_key, message, signature)


def tx_message(tid: bytes) -> bytes:
    """What a transaction signature signs: the tid, domain-separated."""
    return _TX_SIGN_PREFIX + tid


def sign_tx_digest(keys: KeyPair, tid: bytes) -> bytes:
    """Signs a transaction id (hash-then-sign; the tid is the digest)."""
    return _sign_raw(keys, tx_message(tid))


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


# --- the checks a verdict needs ----------------------------------------------------

class InlineChecks:
    """Certificate and signature checks, each made when it is asked.

    signature(public_key, message, signature) is the Ed25519 check. It
    calls _verify_raw by name at each call, so a patched _verify_raw (as
    perfbench's tracer installs) sees every check made through it.

    certificate(cert, ca_keys) is the certificate rule: the audit path
    leads from the leaf to a batch root, and one of ca_keys signed that
    root with the batch size. The window is not part of it. Each
    (CA keys, root, batch size, root signature) found signed is kept in
    signed_roots and not checked again, so a caller judging many
    transactions checks one CA signature per batch per object. The key
    holds the CA keys, so one object may meet any genesis.

    A checks object is also its caller's key source: keypairs(seeds)
    gives the (public key, signer) of each seed as BACKEND.keypair does,
    and derive_ahead(rng, keys) says that about `keys` seeds are drawn
    from the KeyStream rng next, one after the other. Here every key is
    derived when it is asked, and derive_ahead does nothing.
    """

    def __init__(self) -> None:
        self.signed_roots: set[tuple[tuple[bytes, ...], bytes, int, bytes]] = set()

    def signature(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        return _verify_raw(public_key, message, signature)

    def certificate(self, cert: PseudonymCertificate, ca_keys: tuple[bytes, ...]) -> bool:
        root = cert.batch_root()
        if root is None:
            return False
        signed = (ca_keys, root, cert.batch_size, cert.root_signature)
        if signed in self.signed_roots:
            return True
        message = root_payload(root, cert.batch_size)
        if not any(self.signature(key, message, cert.root_signature) for key in ca_keys):
            return False
        self.signed_roots.add(signed)
        return True

    def keypairs(self, seeds: Sequence[bytes]) -> list[tuple[bytes, object]]:
        return [BACKEND.keypair(seed) for seed in seeds]

    def derive_ahead(self, rng: KeyStream, keys: int) -> None:
        pass


# SentChecks sends its checks to a helper in lists of this many, so that
# a pipe is written once per list, not once per check. The list is short,
# so that the checks still unacked when a call ends are few.
_LIST = 16
# The message that resets a helper for a new call, and the one that stops
# the keys it derives ahead.
_BEGIN = pickle.dumps(None)
_STOP = pickle.dumps(())
# The most lists a helper may hold unacked. Its acks pipe holds 64 KiB of
# them; a helper blocked on a full one would stop reading its feed.
_MAX_IN_FLIGHT = 1 << 12
# A key derived ahead, as its helper writes it back: its seed, then its
# public key. The helper derives this many keys between two reads of its
# feed, and writes their pairs in one write, which a pipe takes whole.
_PAIR = SECRET_KEY_SIZE + PUBLIC_KEY_SIZE
_GROUP = 8
# A helper derives keys ahead only while at most this many lists wait.
_BACKLOG = 4


class SentChecks:
    """The checks of InlineChecks, sent to the process's check helpers
    (forks.helpers), which make them while the caller goes on.

    open(room) gives one for a call, or None where the process has no
    helper. signature and certificate take the arguments of
    InlineChecks'. Each adds its check to a list and answers True at
    once: the caller judges as if the check held. A certificate goes as
    its eight fields and the CA keys. Each full list of _LIST goes to the
    helper with the fewest lists in flight as one pickle, and each helper
    makes its checks with an InlineChecks of its own, which a new call
    resets, so no verdict carries from one call to the next. A helper
    runs under the Ed25519 backend this process had when it forked it.

    With room None, every check is sent. With a room, as a chain's
    judgement asks (ledger._Judgement), a new list is started only while some helper holds fewer than
    room lists unacked, and a check is made here when every helper is
    full; so the split between this process and its helpers follows how
    fast each goes. A full helper's acks are read at most once per check,
    one helper at a time. The certificate rule is then made here too:
    with its batch roots kept, a certificate costs little more than
    sending it would.

    Keys derived ahead. derive_ahead(rng, keys) tells the first helper
    where the KeyStream rng stands (a copy of its state the first time,
    then only the count of bytes drawn from it) and that about `keys`
    seeds of 32 bytes are drawn from it next, one after the other. The
    helper draws those bytes from its own copy of the state, derives the
    public key of each seed with BACKEND.keypair while no more than
    _BACKLOG lists wait for it, so that its checks fall behind by a few
    lists at most, and writes each (seed, public key) back on its results
    pipe, without blocking. It derives no more once the pipe is full, a
    newer count comes, or the call ends. keypairs(seeds) reads whatever pairs have come,
    without blocking, takes a pair only when its seed is exactly one of
    seeds, and derives the others here, from the last seed back, reading
    again between two, so that the helper going forward and this process
    going back meet: the caller never waits for a derivation. No byte
    moves: the caller still draws every seed itself, in its own order,
    and a pair only spares it the public key that the backend would
    derive from that seed. A key that signs a check sent here is
    confirmed by that check, since a signature made with seed || wrong
    key does not verify under the wrong key. A key that signs none (one
    left in a pool, or one whose certificate only names the vehicle) is
    taken on the helper's word, as every verdict a helper acks is. This
    is done only where the backend builds a signer from a seed and its
    public key at no cost (Backend.signer, libsodium). Under
    `cryptography` a signer costs a derivation anyway, so every key is
    derived here and no snapshot is sent.

    close() stops the keys derived ahead, sends the last, short list and
    waits for every ack: True when every check held, wherever it was
    made. A check that failed, or a helper that died or was killed,
    makes it False. Calling it again gives the same answer.
    """

    def __init__(self, helpers: list[Helper], room: Optional[int]) -> None:
        self._inline = InlineChecks()
        self._held: Optional[bool] = None
        self._helpers = helpers
        self._room = room
        self._list: list[tuple] = []
        self._next = 0  # the full helper whose acks are read next
        # The helper that derives keys ahead, once a snapshot went to it,
        # and the pairs read back from it, seed to public key.
        self._deriver: Optional[Helper] = None
        self._ahead: dict[bytes, bytes] = {}
        for helper in helpers:
            helper.begin(_BEGIN)

    @classmethod
    def open(cls, room: Optional[int] = None) -> Optional["SentChecks"]:
        live = helpers(_serve_checks)
        return cls(live, room) if live else None

    def signature(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        if self._list or self._has_room():
            self._add((public_key, message, signature))
            return True
        return self._inline.signature(public_key, message, signature)

    def certificate(self, cert: PseudonymCertificate, ca_keys: tuple[bytes, ...]) -> bool:
        if self._room is not None:
            return self._inline.certificate(cert, ca_keys)
        self._add((
            cert.cert_id,
            cert.subject_pubkey,
            cert.issued_at,
            cert.validity_secs,
            cert.leaf_index,
            cert.batch_size,
            cert.audit_path,
            cert.root_signature,
            ca_keys,
        ))
        return True

    def keypairs(self, seeds: Sequence[bytes]) -> list[tuple[bytes, object]]:
        if self._deriver is None:
            return [BACKEND.keypair(seed) for seed in seeds]
        # The helper derives from the first seed on, so the keys not come
        # yet are derived here from the last one back, until the two meet.
        keys: list = [None] * len(seeds)
        low, high = 0, len(seeds)
        while low < high:
            pairs = self._deriver.results()
            for at in range(0, len(pairs), _PAIR):
                self._ahead[pairs[at:at + SECRET_KEY_SIZE]] = pairs[at + SECRET_KEY_SIZE:at + _PAIR]
            while low < high and seeds[low] in self._ahead:
                keys[low] = self._taken(seeds[low])
                low += 1
            if low < high:
                high -= 1
                seed = seeds[high]
                keys[high] = self._taken(seed) if seed in self._ahead else BACKEND.keypair(seed)
        return keys

    def _taken(self, seed: bytes) -> tuple[bytes, object]:
        public = self._ahead.pop(seed)
        return public, BACKEND.signer(seed, public)

    def derive_ahead(self, rng: KeyStream, keys: int) -> None:
        if BACKEND.signer is None:
            return
        if self._deriver is None:
            self._deriver = self._helpers[0]
            while self._deriver.results():  # pairs a call before left unread
                pass
            self._deriver.tell(pickle.dumps((rng.getstate(), rng.drawn, keys)))
        else:
            self._deriver.tell(pickle.dumps((rng.drawn, keys)))

    def close(self) -> bool:
        if self._held is None:
            if self._deriver is not None:
                self._deriver.tell(_STOP)
            if self._list:
                self._send()
            for helper in self._helpers:
                helper.wait()
            self._held = not any(h.dead or h.failed for h in self._helpers)
        return self._held

    def _has_room(self) -> bool:
        room = self._room
        if room is None:
            return True
        live = self._helpers
        if any(h.in_flight < room for h in live):
            return True
        helper = live[self._next % len(live)]
        self._next += 1
        helper.poll()
        return helper.in_flight < room

    def _add(self, check: tuple) -> None:
        self._list.append(check)
        if len(self._list) == _LIST:
            self._send()

    def _send(self) -> None:
        helper = min(self._helpers, key=_in_flight)
        if helper.in_flight >= _MAX_IN_FLIGHT:
            helper.wait()
        helper.send(pickle.dumps(self._list))
        self._list = []


def _in_flight(helper: Helper) -> int:
    return helper.in_flight


def _check(checks: InlineChecks, check: tuple) -> bool:
    """One sent check, made with checks: a signature's three items, or a
    certificate's eight fields, then the CA keys."""
    if len(check) == 3:
        return checks.signature(*check)
    return checks.certificate(PseudonymCertificate(*check[:-1]), check[-1])


class _Drawn:
    """What a helper knows of its caller's KeyStream: a copy made when
    `drawn` bytes had been drawn from it, and the bytes drawn from the
    copy since, from the first a later read may ask for on."""

    def __init__(self, state: tuple, drawn: int) -> None:
        self._rng = random.Random()
        self._rng.setstate(state)
        self._at = drawn
        self._bytes = bytearray()

    def read(self, at: int, n: int) -> bytes:
        """The n bytes the caller's stream draws once `at` are drawn: at
        is never less than at the read before. Every count is a whole
        number of 4-byte words, as the caller draws 16 or 32 bytes at a
        time, so the copy draws the same words in the same order."""
        skipped = at - self._at - len(self._bytes)
        if skipped > 0:
            self._rng.randbytes(skipped)
            self._bytes.clear()
        else:
            del self._bytes[:at - self._at]
        self._at = at
        if len(self._bytes) < n:
            self._bytes += self._rng.randbytes(n - len(self._bytes))
        return bytes(self._bytes[:n])


def _keys_ahead(seeds: bytes, done: set[bytes]) -> Iterator[bytes]:
    """(seed, public key) pairs of the 32-byte seeds in a row in seeds. A
    seed in done is not derived again: b"" stands for it."""
    for at in range(0, len(seeds), SECRET_KEY_SIZE):
        seed = seeds[at:at + SECRET_KEY_SIZE]
        if seed in done:
            yield b""
        else:
            done.add(seed)
            yield seed + BACKEND.keypair(seed)[0]


def _serve_checks(feed: Feed, acks: int, results: int) -> None:
    """A check helper's work: reads lists of checks from feed until it
    ends, and answers each with one byte, 1 when every check of the list
    held. A None resets it for a new call: a new InlineChecks, and
    checking again. After a check fails it checks nothing more, and
    answers 0 to every list, until the next reset.

    A (state, drawn, keys) snapshot of a caller's KeyStream, or a (drawn,
    keys) one of the same stream since, starts the keys derived ahead of
    it (_keys_ahead), in place of any before, and an empty one stops them;
    either takes effect as soon as it is read, ahead of the lists read
    with it. Keys are derived _GROUP at a time between two reads of the
    feed, and only while at most _BACKLOG lists wait: past that, lists
    come first, so that the checks fall behind by a few lists at most. A
    seed already derived from a stream is not derived again, and each
    group of pairs goes to results in one write, which never blocks: once
    the pipe is full, nobody reads it, and the helper derives no more
    until the next snapshot."""
    checks, held = InlineChecks(), True
    waiting: deque = deque()  # lists and resets, in the order sent
    stream: Optional[_Drawn] = None
    done: set[bytes] = set()  # the seeds derived from stream
    ahead: Optional[Iterator[bytes]] = None
    while True:
        try:
            messages = feed.read(wait=not waiting and ahead is None)
        except EOFError:
            return
        for message in map(pickle.loads, messages):
            if not isinstance(message, tuple):
                waiting.append(message)
                continue
            ahead = None
            if len(message) == 3:
                stream, done = _Drawn(*message[:2]), set()
            if message:
                drawn, keys = message[-2:]
                ahead = _keys_ahead(stream.read(drawn, SECRET_KEY_SIZE * keys), done)
        if ahead is not None and len(waiting) <= _BACKLOG:
            group = list(islice(ahead, _GROUP))
            if len(group) < _GROUP:
                ahead = None
            pairs = b"".join(group)
            if pairs:
                try:
                    os.write(results, pairs)
                except BlockingIOError:  # nobody reads them: derive no more
                    ahead = None
        elif waiting:
            message = waiting.popleft()
            if message is None:
                checks, held = InlineChecks(), True
            else:
                held = held and all(_check(checks, check) for check in message)
                os.write(acks, b"\x01" if held else b"\x00")


Checks = Union[InlineChecks, SentChecks]


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
    "KeyStream",
    "PseudonymCertificate",
    "CertificateBatch",
    "IdentityEscrow",
    "DEFAULT_CERT_VALIDITY_SECS",
    "generate_keypair",
    "tx_message",
    "sign_tx_digest",
    "issue_certificate",
    "InlineChecks",
    "SentChecks",
    "Checks",
    "leaf_hash",
    "node_hash",
    "path_root",
    "root_payload",
    "seal_to_key",
    "open_sealed",
    "derive_shared_key",
]
