"""Per-partition evidence ledger: one replica is the record log a saved
file stores.

Integrity model: the open block's id is a left fold of committed
transaction ids, seeded by the previous block id. Appending recomputes

    cblock_id' = SHA-256(tid || cblock_id)

so every replica that saw the same commit sequence holds byte-identical
fold state, and removing or reordering any committed transaction changes
every fold value after it. A replica holds its records in commit order and,
beside them, the fold value after each one. Blocks are cut every b_max
records: block k is records[k*b_max:(k+1)*b_max], it seals when it is
full, and its id is the fold value after its last record, which seeds the
next block. The records after the sealed ones are the open block.

The file format (version 3) is a record log with a trailer:

    magic "AVLB" | u16 version | u32 length | genesis record
    per commit:  u32 length | canonical transaction | fold value after it
    trailer:     u32 record count | final fold value

The block capacity is a genesis field, so the genesis id, which seeds
the first fold, covers it; block boundaries are rebuilt from it. The
trailer names how many records the file holds and the fold value after
the last one (the genesis id when there is none), so a file cut on a
record boundary, or an edited genesis in an empty ledger, does not load.
"""

from __future__ import annotations

import hashlib
import os
import threading
from dataclasses import replace
from typing import Iterable, Optional

from .encoding import BOOLEAN, TEXT, U32, encode, fixed, frozen, items, unpack, wire
from .errors import InvalidGenesis, LedgerFormatError, NotFound, UniquenessViolation
from .identity import PUBLIC_KEY_SIZE, usable_cpus
from .txmodel import (
    HASH,
    HASH_SIZE,
    PARTITION_WIRE,
    ROLE_WIRE,
    Hash256,
    Partition,
    Reason,
    Role,
    Transaction,
    TxKind,
    check_tx_committed,
    check_tx_genesis,
    decode_transaction,
    encode_transaction,
)

LEDGER_MAGIC = b"AVLB"
# Version 3: the block capacity is a genesis field, the file ends in a
# trailer, and evidence requests carry no driving history. A file of any
# other version is refused, not converted.
LEDGER_VERSION = 3
DEFAULT_B_MAX = 8
# u32 record count, then the final fold value.
TRAILER_SIZE = 4 + HASH_SIZE


def fold_step(tid: Hash256, acc: Hash256) -> Hash256:
    return hashlib.sha256(tid + acc).digest()


def fold_ids(seed: Hash256, tids: Iterable[Hash256]) -> Hash256:
    acc = seed
    for tid in tids:
        acc = fold_step(tid, acc)
    return acc


@frozen
class CaRootCert:
    """Root verification material of a certificate authority."""

    name: str = wire(TEXT)
    public_key: bytes = wire(fixed(PUBLIC_KEY_SIZE))


@frozen
class MemberRecord:
    """One fixed infrastructure member of a partition. Vehicles are not
    listed: their credential is a CA certificate, not a membership row.
    """

    entity_id: str = wire(TEXT)
    role: Role = wire(ROLE_WIRE)
    public_key: bytes = wire(fixed(PUBLIC_KEY_SIZE))
    proposer: bool = wire(BOOLEAN)
    validator: bool = wire(BOOLEAN)


@frozen
class GenesisBlock:
    """The partition's root record. block_id, the first field, is the
    SHA-256 of the encoding of every field after it; a saved ledger
    stores those fields and recomputes the id on load. b_max is the block
    capacity: a block seals once it holds that many transactions."""

    block_id: Hash256 = wire(HASH)
    partition: Partition = wire(PARTITION_WIRE)
    ca_certificates: tuple[CaRootCert, ...] = wire(items(CaRootCert))
    membership: tuple[MemberRecord, ...] = wire(items(MemberRecord))
    b_max: int = wire(U32)

    def known_keys(self) -> dict[Role, bytes]:
        return {m.role: m.public_key for m in self.membership}

    def validator_ids(self) -> tuple[str, ...]:
        return tuple(m.entity_id for m in self.membership if m.validator)


def make_genesis(
    partition: Partition,
    ca_certificates: Iterable[CaRootCert],
    membership: Iterable[MemberRecord],
    b_max: int = DEFAULT_B_MAX,
) -> GenesisBlock:
    ca_certificates = tuple(ca_certificates)
    membership = tuple(membership)
    if b_max < 1:
        raise InvalidGenesis("block capacity must be at least 1")
    if not ca_certificates:
        raise InvalidGenesis("genesis needs at least one CA root certificate")
    if not any(m.validator for m in membership):
        raise InvalidGenesis("genesis needs at least one validator")
    stub = GenesisBlock(b"", partition, ca_certificates, membership, b_max)
    return replace(stub, block_id=_genesis_id(stub))


def _genesis_id(genesis: GenesisBlock) -> Hash256:
    return hashlib.sha256(encode(genesis, start=1)).digest()


class PartitionLedger:
    """One replica of one partition's chain, held as its record log:
    records in commit order, folds[i] the fold value after records[i],
    and `sealed`, the count of records in sealed blocks, always a multiple
    of b_max. The views below are the only block arithmetic there is.

    Besides the tid map, one index serves every query that names a kind:
    _rows[kind][cert_id] is the list of transactions of that kind under
    that certificate, and _rows[kind][None] all of that kind, so each
    transaction sits in two lists. Every list holds the log's own
    Transaction objects in commit order. Each kind's entry exists from
    the start, so upkeep makes a list only for a cert id's first row.

    The index is built at the first query that names a kind and kept
    current from then on: a replica nobody queries, such as every replica
    of a collision-free run and every loaded file, holds none (_rows is
    None). append_claimed indexes each record it adds once it exists;
    remove_open drops it.
    """

    def __init__(self, genesis: GenesisBlock) -> None:
        if genesis.b_max < 1:
            raise ValueError("block capacity must be at least 1")
        self.genesis = genesis
        self.b_max = genesis.b_max
        self.records: list[Transaction] = []
        self.folds: list[Hash256] = []
        self.sealed = 0
        self._by_tid: dict[Hash256, Transaction] = {}
        self._rows: Optional[dict[TxKind, dict[Optional[bytes], list[Transaction]]]] = None

    # -- views ----------------------------------------------------------------

    @property
    def partition(self) -> Partition:
        return self.genesis.partition

    @property
    def tid_index(self) -> dict[Hash256, Transaction]:
        return self._by_tid

    @property
    def cblock_id(self) -> Hash256:
        """The open block's id: the fold value after the last record, or
        the genesis id before the first."""
        return self.folds[-1] if self.folds else self.genesis.block_id

    def find(self, tid: Hash256) -> Optional[Transaction]:
        return self._by_tid.get(tid)

    def all_transactions(self) -> list[Transaction]:
        return self.records[:]

    def sealed_tip(self) -> Hash256:
        """The last sealed block's id, which seeds the open block's fold,
        or the genesis id before the first seal."""
        return self.folds[self.sealed - 1] if self.sealed else self.genesis.block_id

    def open_transactions(self) -> list[Transaction]:
        return self.records[self.sealed:]

    def block_ids(self) -> list[Hash256]:
        """The id of every sealed block, in order."""
        return self.folds[self.b_max - 1:self.sealed:self.b_max]

    # -- mutation -------------------------------------------------------------

    def append_validated(self, tx: Transaction, fold: Hash256) -> None:
        """Appends an already-validated transaction with `fold`, the fold
        value after it that the consensus round agreed on, as
        append_claimed does. Uniqueness is enforced here as the last line
        of defense even though validation checks it too.
        """
        if tx.tid in self._by_tid:
            raise UniquenessViolation(tx.tid.hex())
        self.append_claimed(tx, fold)

    def append_claimed(self, tx: Transaction, fold: Hash256) -> None:
        """Appends a record as a saved file claims it, fold value included,
        and seals at capacity. Nothing is checked, not even uniqueness:
        chain_faults judges the claims and reports what is wrong.
        """
        self.records.append(tx)
        self.folds.append(fold)
        self._by_tid[tx.tid] = tx
        if self._rows is not None:
            self._index(tx)
        self.maybe_seal()

    def maybe_seal(self) -> None:
        """Seals the open block once it holds b_max transactions."""
        if len(self.records) - self.sealed >= self.b_max:
            self.sealed += self.b_max

    def _index(self, tx: Transaction) -> None:
        by_cert = self._rows[tx.kind]
        by_cert[None].append(tx)
        rows = by_cert.get(tx.cert.cert_id)
        if rows is None:
            by_cert[tx.cert.cert_id] = [tx]
        else:
            rows.append(tx)

    def _build_index(self) -> dict[TxKind, dict[Optional[bytes], list[Transaction]]]:
        self._rows = {kind: {None: []} for kind in TxKind}
        for tx in self.records:
            self._index(tx)
        return self._rows

    def remove_open(self, tid: Hash256) -> None:
        """Out-of-band edit: deletes a transaction from the open block and
        re-folds the values after it, so the replica stays self-consistent
        and only the next consensus round shows the edit.
        """
        records = self.records
        pos = next((i for i in range(self.sealed, len(records)) if records[i].tid == tid), None)
        if pos is None:
            raise NotFound(f"no open-block transaction {tid.hex()[:16]}")
        del records[pos], self.folds[pos:]
        for tx in records[pos:]:
            self.folds.append(fold_step(tx.tid, self.cblock_id))
        self._by_tid = {tx.tid: tx for tx in records}
        self._rows = None

    # -- queries --------------------------------------------------------------

    def query(
        self,
        kind: Optional[TxKind] = None,
        cert_id: Optional[bytes] = None,
    ) -> list[Transaction]:
        """Committed and open-block transactions that match every given
        predicate, in commit order, as a new list the caller may change.

        A call that names a kind copies its one index list, which already
        matches the cert id too. A call that names no kind walks the
        whole chain.
        """
        # Plain loops: a comprehension would close over cert_id, and every
        # call, the index probe too, would pay for its cell.
        # The index test stays inline: a helper call on every lookup costs
        # a few percent of a history lookup.
        if kind is not None:
            by_kind = self._rows
            if by_kind is None:
                by_kind = self._build_index()
            return list(by_kind[kind].get(cert_id, ()))
        if cert_id is None:
            return list(self.records)
        rows = []
        for tx in self.records:
            if tx.cert.cert_id == cert_id:
                rows.append(tx)
        return rows


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
    names the first policy it fails. Every fold value is recomputed too,
    each block's from the id the block before it claims, and a sealed
    block whose id does not match is named; every faulty position is
    reported.

    The genesis half of check_tx, which holds all the signature work,
    reads only the record and the genesis, so it is judged for the whole
    chain first, spread over the usable CPUs (see _genesis_reasons). The
    walk in commit order then applies the committed half, so the faults
    and their order are those of a serial check_tx walk.
    """
    faults: list[str] = []
    genesis = ledger.genesis
    if _genesis_id(genesis) != genesis.block_id:
        faults.append("genesis: block id does not match its contents")
    if not genesis.ca_certificates:
        faults.append("genesis: no CA root certificate")
        return faults

    committed: dict[Hash256, Transaction] = {}
    folds, b_max = ledger.folds, ledger.b_max
    reasons = _genesis_reasons(ledger.records, genesis)
    acc = genesis.block_id
    for i, (tx, reason, fold) in enumerate(zip(ledger.records, reasons, folds)):
        pos = i % b_max
        if not pos:
            where = f"block {i // b_max}" if i < ledger.sealed else "current"
            if i:
                # A block's fold restarts from the id the block before it
                # claims, so a forged value shows in one block only.
                acc = folds[i - 1]
        if reason is Reason.OK:
            reason = check_tx_committed(tx, committed)
        if reason is Reason.OK:
            committed[tx.tid] = tx
        else:
            faults.append(f"{where} tx {pos}: tx {tx.tid.hex()[:16]}: {_FAULT_TEXT[reason]} ({reason.value})")
        acc = fold_step(tx.tid, acc)
        if acc != fold:
            faults.append(f"{where} tx {pos}: fold value mismatch")
            if pos == b_max - 1 and i < ledger.sealed:
                faults.append(f"{where}: block id does not match recomputed fold")
    return faults


# A helper process judges a share of at least this many transactions.
# Forking a helper and reaping it costs about 2.5 ms in a 47 MB process
# that holds one ledger-audit P1 file (2393 records), and the genesis half
# of check_tx costs about 100 us per transaction of that file through
# libsodium: one signature check for most transactions (two for an
# update), one per batch root in the share, and an audit path of about
# eight SHA-256 calls. So a share under some 25 transactions is judged
# faster in process; 64 leaves room for hosts where a fork costs more.
MIN_SHARE = 64

_REASONS = tuple(Reason)


def _genesis_reasons(txs: list[Transaction], genesis: GenesisBlock) -> list[Reason]:
    """check_tx_genesis for every transaction of txs, in order, one
    certificate cache per share.

    txs is cut into contiguous shares, one per usable CPU and none under
    MIN_SHARE. This process judges the first share; each other share goes
    to a forked helper, which inherits txs (nothing is pickled) and writes
    back one Reason index per transaction. A share whose helper could not
    be forked, did not exit cleanly or sent a reply of the wrong length is
    judged here. Everything is judged here when fork is unavailable, when
    other threads are alive (a forked child could inherit a lock one of
    them holds), or when txs is too short to split.
    """
    n = min(usable_cpus(), len(txs) // MIN_SHARE)
    if n < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return _judge_share(txs, genesis)
    cuts = [len(txs) * i // n for i in range(n + 1)]
    shares = [txs[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    helpers: list[Optional[tuple[int, int]]] = []
    try:
        for share in shares[1:]:
            helpers.append(_fork_helper(share, genesis))
        reasons = _judge_share(shares[0], genesis)
        replies = [_read_to_end(helper[1]) if helper else b"" for helper in helpers]
    finally:
        exits = _reap(helpers)
    for share, reply, clean in zip(shares[1:], replies, exits):
        if clean and len(reply) == len(share):
            reasons += [_REASONS[index] for index in reply]
        else:
            reasons += _judge_share(share, genesis)
    return reasons


def _judge_share(txs: list[Transaction], genesis: GenesisBlock) -> list[Reason]:
    ca_checked: set = set()
    return [check_tx_genesis(tx, genesis, ca_checked) for tx in txs]


def _fork_helper(share: list[Transaction], genesis: GenesisBlock) -> Optional[tuple[int, int]]:
    """Forks a helper that judges share and writes the Reason indexes to a
    pipe. Returns (pid, read end), or None when the fork fails."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            reply = bytes(_REASONS.index(r) for r in _judge_share(share, genesis))
            with open(write_end, "wb") as out:
                out.write(reply)
            code = 0
        finally:
            # Leave without running the parent's cleanup or flushing its
            # buffered output a second time.
            os._exit(code)
    os.close(write_end)
    return pid, read_end


def _read_to_end(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _reap(helpers: list[Optional[tuple[int, int]]]) -> list[bool]:
    """Closes every read end, then waits for every helper; True where a
    helper exited with status 0. All ends close first so that no helper
    stays blocked writing to a pipe nobody reads."""
    for helper in helpers:
        if helper:
            os.close(helper[1])
    clean = []
    for helper in helpers:
        try:
            clean.append(helper is not None and os.waitstatus_to_exitcode(os.waitpid(helper[0], 0)[1]) == 0)
        except ChildProcessError:  # reaped already, as under SIGCHLD set to SIG_IGN
            clean.append(False)
    return clean


# --- persistence --------------------------------------------------------------

def save_ledger(ledger: PartitionLedger, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(LEDGER_MAGIC)
        fh.write(LEDGER_VERSION.to_bytes(2, "big"))
        genesis_bytes = encode(ledger.genesis, start=1)
        fh.write(len(genesis_bytes).to_bytes(4, "big"))
        fh.write(genesis_bytes)
        for tx, fold in zip(ledger.records, ledger.folds):
            record = encode_transaction(tx)
            fh.write(len(record).to_bytes(4, "big"))
            fh.write(record)
            fh.write(fold)
        fh.write(len(ledger.records).to_bytes(4, "big"))
        fh.write(ledger.cblock_id)


def load_ledger(path: str) -> PartitionLedger:
    """Structural load: decodes the header, genesis, and every record, and
    appends each record with the fold value the file claims for it. The
    trailer must name the number of records read and the fold value
    claimed after the last one (the recomputed genesis id when there is
    none). Chain-level integrity is judged separately by chain_faults, so
    corrupt files can still be reported on block by block.

    The file is read record by record, never whole, and no read asks for
    more than the bytes left, so a corrupt length allocates nothing big.
    """
    with open(path, "rb") as fh:
        return _read_records(fh, os.fstat(fh.fileno()).st_size)


def _read_records(fh, size: int) -> PartitionLedger:
    # Everything up to the trailer; the trailer's bytes are read last.
    left = size - 4 - TRAILER_SIZE

    def take(n: int, what: str) -> bytes:
        nonlocal left
        chunk = fh.read(n) if n <= left else b""
        if len(chunk) != n:
            raise LedgerFormatError(f"truncated file while reading {what}")
        left -= n
        return chunk

    if size < 4 or fh.read(4) != LEDGER_MAGIC:
        raise LedgerFormatError("missing genesis: not a ledger file (bad magic)")
    version = int.from_bytes(take(2, "version"), "big")
    if version != LEDGER_VERSION:
        raise LedgerFormatError(f"unsupported ledger version {version}")
    genesis_len = int.from_bytes(take(4, "genesis length"), "big")
    genesis_record = take(genesis_len, "genesis record")
    try:
        genesis = make_genesis(*unpack(GenesisBlock, genesis_record, start=1))
    except LedgerFormatError:
        raise
    except Exception as exc:
        raise LedgerFormatError(f"bad genesis record: {exc}") from None

    ledger = PartitionLedger(genesis)
    read = fh.read
    index = 0
    # Per record: its length, then the record and its fold value in one
    # read. An error text is built only when a read comes up short.
    while left:
        if left < 4:
            raise LedgerFormatError(f"truncated record header at record {index}")
        head = read(4)
        if len(head) != 4:
            raise LedgerFormatError(f"truncated file while reading record header {index}")
        left -= 4
        rec_len = int.from_bytes(head, "big")
        want = rec_len + HASH_SIZE
        chunk = read(want) if want <= left else b""
        if len(chunk) != want:
            got = len(chunk) if want <= left else left
            what = f"record {index}" if got < rec_len else f"fold value of record {index}"
            raise LedgerFormatError(f"truncated file while reading {what}")
        left -= want
        record, fold = chunk[:rec_len], chunk[rec_len:]
        try:
            tx = decode_transaction(record)
        except LedgerFormatError as exc:
            raise LedgerFormatError(f"record {index}: {exc}") from None
        except Exception as exc:
            raise LedgerFormatError(f"record {index}: undecodable: {exc}") from None
        ledger.append_claimed(tx, fold)
        index += 1
    trailer = fh.read(TRAILER_SIZE)
    count = int.from_bytes(trailer[:4], "big")
    if count != index:
        raise LedgerFormatError(f"trailer counts {count} records, the file holds {index}")
    if trailer[4:] != ledger.cblock_id:
        raise LedgerFormatError("trailer fold value does not match the end of the chain")
    return ledger
