"""Per-partition evidence ledger: sealed blocks plus a running current block.

Integrity model: the open block's id is a left fold of committed
transaction ids, seeded by the previous block id. Appending recomputes

    cblock_id' = SHA-256(tid || cblock_id)

so every replica that saw the same commit sequence holds byte-identical
fold state, and removing or reordering any committed transaction changes
every fold value after it. Sealing freezes the fold value as the block's
permanent id and seeds the next block with it.

The file format is an append-only record log: a fixed header, the genesis
record, then one length-prefixed canonical transaction per commit, each
followed by the fold value claimed after that commit. Block boundaries
are reconstructed from the block capacity in the header.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .encoding import Reader, Writer
from .errors import InvalidGenesis, LedgerFormatError, NotFound, UniquenessViolation
from .identity import PUBLIC_KEY_SIZE
from .txmodel import (
    HASH_SIZE,
    PARTITION_WIRE,
    ROLE_WIRE,
    EstDigest,
    Hash256,
    Partition,
    Reason,
    Role,
    Transaction,
    TxKind,
    body_timestamp,
    check_tx,
    decode_transaction,
    encode_transaction,
)

LEDGER_MAGIC = b"AVLB"
LEDGER_VERSION = 1
DEFAULT_B_MAX = 8


def fold_step(tid: Hash256, acc: Hash256) -> Hash256:
    return hashlib.sha256(tid + acc).digest()


def fold_ids(seed: Hash256, tids: Iterable[Hash256]) -> Hash256:
    acc = seed
    for tid in tids:
        acc = fold_step(tid, acc)
    return acc


@dataclass(frozen=True)
class CaRootCert:
    """Root verification material of a certificate authority."""

    name: str
    public_key: bytes

    def encode(self, w: Writer) -> None:
        w.text(self.name)
        w.fixed(self.public_key, PUBLIC_KEY_SIZE)

    @classmethod
    def decode(cls, r: Reader) -> "CaRootCert":
        return cls(name=r.text(), public_key=r.fixed(PUBLIC_KEY_SIZE))


@dataclass(frozen=True)
class MemberRecord:
    """One fixed infrastructure member of a partition. Vehicles are not
    listed: their credential is a CA certificate, not a membership row.
    """

    entity_id: str
    role: Role
    public_key: bytes
    proposer: bool
    validator: bool

    def encode(self, w: Writer) -> None:
        w.text(self.entity_id)
        ROLE_WIRE.write(w, self.role)
        w.fixed(self.public_key, PUBLIC_KEY_SIZE)
        w.boolean(self.proposer)
        w.boolean(self.validator)

    @classmethod
    def decode(cls, r: Reader) -> "MemberRecord":
        return cls(
            entity_id=r.text(),
            role=ROLE_WIRE.read(r),
            public_key=r.fixed(PUBLIC_KEY_SIZE),
            proposer=r.boolean(),
            validator=r.boolean(),
        )


@dataclass(frozen=True)
class GenesisBlock:
    block_id: Hash256
    partition: Partition
    ca_certificates: tuple[CaRootCert, ...]
    membership: tuple[MemberRecord, ...]

    def encode_fields(self) -> bytes:
        w = Writer()
        PARTITION_WIRE.write(w, self.partition)
        w.items(self.ca_certificates, lambda wr, c: c.encode(wr))
        w.items(self.membership, lambda wr, m: m.encode(wr))
        return w.getvalue()

    def known_keys(self) -> dict[Role, bytes]:
        return {m.role: m.public_key for m in self.membership}

    def validator_ids(self) -> tuple[str, ...]:
        return tuple(m.entity_id for m in self.membership if m.validator)


def make_genesis(
    partition: Partition,
    ca_certificates: Iterable[CaRootCert],
    membership: Iterable[MemberRecord],
) -> GenesisBlock:
    ca_certificates = tuple(ca_certificates)
    membership = tuple(membership)
    if not ca_certificates:
        raise InvalidGenesis("genesis needs at least one CA root certificate")
    if not any(m.validator for m in membership):
        raise InvalidGenesis("genesis needs at least one validator")
    stub = GenesisBlock(
        block_id=b"\x00" * HASH_SIZE,
        partition=partition,
        ca_certificates=ca_certificates,
        membership=membership,
    )
    block_id = hashlib.sha256(stub.encode_fields()).digest()
    return GenesisBlock(
        block_id=block_id,
        partition=partition,
        ca_certificates=ca_certificates,
        membership=membership,
    )


def _decode_genesis(r: Reader) -> GenesisBlock:
    partition = PARTITION_WIRE.read(r)
    ca_certs = tuple(r.items(CaRootCert.decode))
    membership = tuple(r.items(MemberRecord.decode))
    return make_genesis(partition, ca_certs, membership)


@dataclass
class Block:
    """A sealed block. block_id is the final fold value; fold_trail[i] is
    the fold after transactions[i].
    """

    block_id: Hash256
    prev_block_id: Hash256
    transactions: list[Transaction]
    fold_trail: list[Hash256]
    sealed_at: float


@dataclass
class CurrentBlock:
    prev_block_id: Hash256
    transactions: list[Transaction] = field(default_factory=list)
    fold_trail: list[Hash256] = field(default_factory=list)

    @property
    def cblock_id(self) -> Hash256:
        return self.fold_trail[-1] if self.fold_trail else self.prev_block_id


class PartitionLedger:
    """One replica of one partition's chain."""

    def __init__(self, genesis: GenesisBlock, b_max: int = DEFAULT_B_MAX) -> None:
        if b_max < 1:
            raise ValueError("block capacity must be at least 1")
        self.genesis = genesis
        self.b_max = b_max
        self.blocks: list[Block] = []
        self.current = CurrentBlock(prev_block_id=genesis.block_id)
        self._by_tid: dict[Hash256, Transaction] = {}

    # -- views ----------------------------------------------------------------

    @property
    def partition(self) -> Partition:
        return self.genesis.partition

    @property
    def tid_index(self) -> dict[Hash256, Transaction]:
        return self._by_tid

    @property
    def cblock_id(self) -> Hash256:
        return self.current.cblock_id

    def find(self, tid: Hash256) -> Optional[Transaction]:
        return self._by_tid.get(tid)

    def all_transactions(self) -> list[Transaction]:
        out: list[Transaction] = []
        for block in self.blocks:
            out.extend(block.transactions)
        out.extend(self.current.transactions)
        return out

    def sealed_tip(self) -> Hash256:
        return self.blocks[-1].block_id if self.blocks else self.genesis.block_id

    # -- mutation -------------------------------------------------------------

    def append_validated(self, tx: Transaction) -> Hash256:
        """Appends an already-validated transaction to the open block and
        returns the new fold value. Uniqueness is enforced here as the
        last line of defense even though validation checks it too.
        """
        if tx.tid in self._by_tid:
            raise UniquenessViolation(tx.tid.hex())
        new_id = fold_step(tx.tid, self.current.cblock_id)
        self.current.transactions.append(tx)
        self.current.fold_trail.append(new_id)
        self._by_tid[tx.tid] = tx
        return new_id

    def maybe_seal(self) -> Optional[Block]:
        """Seals the open block once it holds b_max transactions. The seal
        timestamp is the sealing transaction's body timestamp, so it is
        derivable from the record log alone.
        """
        if len(self.current.transactions) < self.b_max:
            return None
        block = Block(
            block_id=self.current.cblock_id,
            prev_block_id=self.current.prev_block_id,
            transactions=self.current.transactions,
            fold_trail=self.current.fold_trail,
            sealed_at=body_timestamp(self.current.transactions[-1]),
        )
        self.blocks.append(block)
        self.current = CurrentBlock(prev_block_id=block.block_id)
        return block

    def append_claimed(self, tx: Transaction, fold: Hash256) -> None:
        """Appends a record as a saved file claims it, fold value included,
        and seals at capacity. Nothing is checked, not even uniqueness:
        chain_faults judges the claims and reports what is wrong.
        """
        self.current.transactions.append(tx)
        self.current.fold_trail.append(fold)
        self._by_tid[tx.tid] = tx
        self.maybe_seal()

    def remove_open(self, tid: Hash256) -> None:
        """Out-of-band edit: deletes a transaction from the open block and
        re-folds the trail after it, so the replica stays self-consistent
        and only the next consensus round shows the edit.
        """
        cur = self.current
        pos = next((i for i, tx in enumerate(cur.transactions) if tx.tid == tid), None)
        if pos is None:
            raise NotFound(f"no open-block transaction {tid.hex()[:16]}")
        del cur.transactions[pos], cur.fold_trail[pos:]
        self._by_tid.pop(tid, None)
        for tx in cur.transactions[pos:]:
            cur.fold_trail.append(fold_step(tx.tid, cur.cblock_id))

    # -- queries --------------------------------------------------------------

    def query(
        self,
        kind=None,
        cert_id: Optional[bytes] = None,
        parent_tid: Optional[bytes] = None,
        time_range: Optional[tuple[float, float]] = None,
    ) -> list[Transaction]:
        """Committed and open-block transactions, in commit order."""
        out = []
        for tx in self.all_transactions():
            if kind is not None and tx.kind != kind:
                continue
            if cert_id is not None and tx.cert.cert_id != cert_id:
                continue
            if parent_tid is not None and tx.parent_tid != parent_tid:
                continue
            if time_range is not None:
                lo, hi = time_range
                ts = body_timestamp(tx)
                if not (lo <= ts <= hi):
                    continue
            out.append(tx)
        return out


def est_history(ledger: PartitionLedger, cert_ids: Iterable[bytes]) -> tuple[EstDigest, ...]:
    """Digests of the safety-event reports filed under any of cert_ids, in
    time order: the driving history the decision partition and the
    adjudicator weigh for one vehicle.
    """
    digests = [
        EstDigest(tid=tx.tid, ts=tx.body.ts, trigger=tx.body.esm.trigger)
        for cert_id in cert_ids
        for tx in ledger.query(kind=TxKind.EVENT_SAFETY, cert_id=cert_id)
    ]
    digests.sort(key=lambda d: (d.ts, d.tid))
    return tuple(digests)


# --- chain verification -------------------------------------------------------

# One line per validity reason; a fault names the reason, so `avledger
# verify` and the consensus audit log speak the same words.
_FAULT_TEXT = {
    Reason.MALFORMED_BODY: "malformed, or tid does not match its contents",
    Reason.UNAUTHORIZED: "proposer not authorized for this kind in this partition",
    Reason.INCOMPLETE: "signer set incomplete, or parent update not committed before it",
    Reason.BAD_SIGNATURE: "signature or certificate check failed",
    Reason.EXPIRED_CERT: "certificate window excludes the body timestamp",
    Reason.DUPLICATE: "duplicate tid",
}


def chain_faults(ledger: PartitionLedger) -> list[str]:
    """All integrity violations found, as human-readable strings. Empty
    means the chain verifies.

    Every committed record is judged by check_tx, the rule consensus
    applied when it was proposed, against the records before it; a fault
    names the first policy it fails. The fold, block links and block
    capacities are rechecked too, and every faulty position is reported.
    """
    faults: list[str] = []
    genesis = ledger.genesis
    recomputed_genesis = hashlib.sha256(genesis.encode_fields()).digest()
    if recomputed_genesis != genesis.block_id:
        faults.append("genesis: block id does not match its contents")
    if not genesis.ca_certificates:
        faults.append("genesis: no CA root certificate")
        return faults

    committed: dict[Hash256, Transaction] = {}
    ca_checked: set = set()
    prev = genesis.block_id

    def check(tx: Transaction, where: str) -> None:
        reason = check_tx(tx, genesis, committed, ca_checked)
        if reason is Reason.OK:
            committed[tx.tid] = tx
        else:
            faults.append(f"{where}: tx {tx.tid.hex()[:16]}: {_FAULT_TEXT[reason]} ({reason.value})")

    for index, block in enumerate(ledger.blocks):
        where = f"block {index}"
        if block.prev_block_id != prev:
            faults.append(f"{where}: previous-block link broken")
        if len(block.transactions) != len(block.fold_trail):
            faults.append(f"{where}: fold trail length mismatch")
        acc = block.prev_block_id
        for pos, tx in enumerate(block.transactions):
            check(tx, f"{where} tx {pos}")
            acc = fold_step(tx.tid, acc)
            if pos < len(block.fold_trail) and acc != block.fold_trail[pos]:
                faults.append(f"{where} tx {pos}: fold value mismatch")
        if block.transactions and acc != block.block_id:
            faults.append(f"{where}: block id does not match recomputed fold")
        if len(block.transactions) != ledger.b_max:
            faults.append(f"{where}: holds {len(block.transactions)} transactions, capacity is {ledger.b_max}")
        prev = block.block_id

    cur = ledger.current
    if cur.prev_block_id != prev:
        faults.append("current block: previous-block link broken")
    if len(cur.transactions) != len(cur.fold_trail):
        faults.append("current block: fold trail length mismatch")
    acc = cur.prev_block_id
    for pos, tx in enumerate(cur.transactions):
        check(tx, f"current tx {pos}")
        acc = fold_step(tx.tid, acc)
        if pos < len(cur.fold_trail) and acc != cur.fold_trail[pos]:
            faults.append(f"current tx {pos}: fold value mismatch")
    if len(cur.transactions) >= ledger.b_max:
        faults.append("current block: at or over capacity but not sealed")
    return faults


def verify_chain(ledger: PartitionLedger) -> bool:
    return not chain_faults(ledger)


# --- persistence --------------------------------------------------------------

def save_ledger(ledger: PartitionLedger, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(LEDGER_MAGIC)
        fh.write(LEDGER_VERSION.to_bytes(2, "big"))
        fh.write(ledger.b_max.to_bytes(4, "big"))
        genesis_bytes = ledger.genesis.encode_fields()
        fh.write(len(genesis_bytes).to_bytes(4, "big"))
        fh.write(genesis_bytes)
        for tx, fold in _records_with_folds(ledger):
            record = encode_transaction(tx)
            fh.write(len(record).to_bytes(4, "big"))
            fh.write(record)
            fh.write(fold)


def _records_with_folds(ledger: PartitionLedger):
    for block in ledger.blocks:
        yield from zip(block.transactions, block.fold_trail)
    yield from zip(ledger.current.transactions, ledger.current.fold_trail)


def load_ledger(path: str) -> PartitionLedger:
    """Structural load: decodes the header, genesis, and every record, and
    rebuilds blocks from the recorded fold claims. Chain-level integrity
    is judged separately by verify_chain so corrupt files can still be
    reported on block by block.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    buf = io.BytesIO(data)

    def take(n: int, what: str) -> bytes:
        chunk = buf.read(n)
        if len(chunk) != n:
            raise LedgerFormatError(f"truncated file while reading {what}")
        return chunk

    if len(data) < 4 or data[:4] != LEDGER_MAGIC:
        raise LedgerFormatError("missing genesis: not a ledger file (bad magic)")
    take(4, "magic")
    version = int.from_bytes(take(2, "version"), "big")
    if version != LEDGER_VERSION:
        raise LedgerFormatError(f"unsupported ledger version {version}")
    b_max = int.from_bytes(take(4, "block capacity"), "big")
    if b_max < 1:
        raise LedgerFormatError(f"bad block capacity {b_max}")
    genesis_len = int.from_bytes(take(4, "genesis length"), "big")
    genesis_reader = Reader(take(genesis_len, "genesis record"))
    try:
        genesis = _decode_genesis(genesis_reader)
        genesis_reader.expect_end()
    except LedgerFormatError:
        raise
    except Exception as exc:
        raise LedgerFormatError(f"bad genesis record: {exc}") from None

    ledger = PartitionLedger(genesis, b_max=b_max)
    index = 0
    while True:
        head = buf.read(4)
        if not head:
            break
        if len(head) != 4:
            raise LedgerFormatError(f"truncated record header at record {index}")
        rec_len = int.from_bytes(head, "big")
        record = take(rec_len, f"record {index}")
        fold = take(HASH_SIZE, f"fold value of record {index}")
        try:
            tx = decode_transaction(record)
        except LedgerFormatError as exc:
            raise LedgerFormatError(f"record {index}: {exc}") from None
        except Exception as exc:
            raise LedgerFormatError(f"record {index}: undecodable: {exc}") from None
        ledger.append_claimed(tx, fold)
        index += 1
    return ledger
