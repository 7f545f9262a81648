"""Loader fuzz: corrupt a saved ledger file and demand that the loader and
the chain check notice.

The input is the P1 ledger that benign seed 4 saves (12 records, block
capacity 8). Each mutated file must end in one of two ways:

1. ``load_ledger`` raises a domain error (``AvLedgerError``);
2. ``chain_faults`` reports at least one fault, the same faults a serial
   walk of the loaded records gives.

Every byte of the file is covered: the block capacity is a genesis field,
so the genesis id covers it, and the trailer's record count and final
fold value make a cut on a record boundary a domain error. So no
mutation, bit flips of the header included, may load as a valid ledger.
Whatever loads must also re-encode to exactly the bytes it was read from:
the genesis record and every transaction record. A decoder that accepted
two spellings of one value (say any non-zero byte as True) would break
that, and two files would then hold one ledger.
"""

import pytest
from hypothesis import given, seed, settings, strategies as st

from avledger.encoding import encode
from avledger.errors import AvLedgerError
from avledger.ledger import PartitionLedger, chain_faults, load_ledger, save_ledger
from avledger.scenarios import ScenarioEngine, make_benign_config
from avledger.txmodel import encode_transaction

HEADER_SIZE = 4 + 2  # magic, version
TRAILER_SIZE = 4 + 32  # record count, final fold value

FUZZ = settings(max_examples=150, database=None, deadline=None)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The saved file's bytes, its tids, its record boundaries (the last
    one is where the trailer starts) and a scratch path to write
    mutations to."""
    ledger = ScenarioEngine(make_benign_config(4)).run().ledgers["P1"]
    work = tmp_path_factory.mktemp("fuzz")
    path = str(work / "p1.bin")
    save_ledger(ledger, path)
    with open(path, "rb") as fh:
        data = fh.read()
    tids = [tx.tid for tx in ledger.all_transactions()]
    _, records, boundaries = _framing(data)
    assert boundaries[-1] == len(data) - TRAILER_SIZE
    assert len(boundaries) == len(tids) + 1 == len(records) + 1
    return data, tids, boundaries, str(work / "mutated.bin")


def _framing(data: bytes):
    """The genesis record, the transaction records and the offset at which
    each transaction's frame starts (and the trailer starts) of a file
    that loads."""
    pos = HEADER_SIZE + 4 + int.from_bytes(data[HEADER_SIZE:HEADER_SIZE + 4], "big")
    genesis = data[HEADER_SIZE + 4:pos]
    records, boundaries = [], [pos]
    while pos < len(data) - TRAILER_SIZE:
        size = int.from_bytes(data[pos:pos + 4], "big")
        records.append(data[pos + 4:pos + 4 + size])
        pos += 4 + size + 32
        boundaries.append(pos)
    return genesis, records, boundaries


def _outcome(saved, mutated: bytes) -> str:
    path = saved[3]
    with open(path, "wb") as fh:
        fh.write(mutated)
    try:
        ledger = load_ledger(path)
    except AvLedgerError:
        return "domain error"
    # Decoding is canonical: whatever loads re-encodes to the bytes it came from.
    genesis, records, _ = _framing(mutated)
    assert encode(ledger.genesis, start=1) == genesis
    assert [encode_transaction(tx) for tx in ledger.all_transactions()] == records
    faults = chain_faults(ledger)
    assert faults, "undetected corruption"
    # The faults found as the file was read are those of a serial walk.
    fresh = PartitionLedger(ledger.genesis)
    for tx, fold in zip(ledger.records, ledger.folds):
        fresh.append_claimed(tx, fold)
    assert chain_faults(fresh) == faults
    return "fault"


@seed(4)
@FUZZ
@given(st.data())
def test_bit_flips_are_caught(saved, data):
    blob = saved[0]
    bit = data.draw(st.integers(0, len(blob) * 8 - 1))
    mutated = bytearray(blob)
    mutated[bit // 8] ^= 1 << (bit % 8)
    _outcome(saved, bytes(mutated))


@seed(4)
@FUZZ
@given(st.data())
def test_truncations_are_caught_or_end_on_a_record(saved, data):
    # Every cut is caught: the trailer makes one on a record boundary a domain error.
    blob = saved[0]
    cut = data.draw(st.integers(0, len(blob) - 1))
    _outcome(saved, blob[:cut])


@seed(4)
@FUZZ
@given(st.data())
def test_insertions_are_caught(saved, data):
    blob = saved[0]
    at = data.draw(st.integers(0, len(blob)))
    extra = data.draw(st.binary(min_size=1, max_size=40))
    _outcome(saved, blob[:at] + extra + blob[at:])


def test_every_record_boundary_cut_is_caught(saved):
    """Every cut that keeps whole records, the one right after the
    genesis record and the one that drops only the trailer included,
    is refused at load."""
    blob, _, boundaries, _ = saved
    for cut in boundaries:
        assert _outcome(saved, blob[:cut]) == "domain error", cut


@pytest.mark.parametrize("b_max", [2, 3, 5])
def test_edited_block_capacity_is_a_fault(saved, b_max):
    """The block capacity is the genesis record's last field: re-splitting
    the chain into other blocks changes the genesis id that seeds the
    first fold."""
    blob, _, boundaries, _ = saved
    at = boundaries[0] - 4
    assert int.from_bytes(blob[at:at + 4], "big") == 8
    mutated = blob[:at] + b_max.to_bytes(4, "big") + blob[at + 4:]
    assert _outcome(saved, mutated) == "fault"
