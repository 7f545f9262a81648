"""Per-transaction verdicts and the per-round consensus protocol.

A validator judges a proposed transaction against its own replica with
txmodel.check_tx, the one validity rule; `avledger verify` judges every
committed record with the same rule (ledger.chain_faults). The verdict
reason reports the first policy that failed, checked in this order:
schema, authorization, completeness, certificate and its window,
signatures, uniqueness, parent link.

A consensus round applies that rule as its two halves. Every replica of
a partition holds the same genesis (the round refuses replicas that do
not), so the genesis half, which runs every policy up to the signatures,
is judged once per round; only the committed half, uniqueness and the
parent link, runs once per replica. Each vote is still the verdict
verify_transaction would give on that replica.

Consensus is unanimity among a partition's validators: a transaction
commits only if every validator accepts it and every validator computes
the same next fold value for its own replica. A round where all accept
but the fold values disagree is the tamper signal: some replica's open
block no longer matches the others.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .errors import NotDiverged, ReplicaMismatch, Unattributable
from .identity import EntityId
from .ledger import PartitionLedger, fold_ids
from .txmodel import (
    AUTHORIZED_PROPOSERS,
    Hash256,
    Partition,
    Reason,
    Transaction,
    check_tx,
    check_tx_committed,
    check_tx_genesis,
)


def verify_transaction(tx: Transaction, ledger: PartitionLedger) -> Reason:
    """One validator's verdict on tx against its own replica: Reason.OK
    accepts, any other reason rejects."""
    return check_tx(tx, ledger.genesis, ledger.tid_index)


# --- consensus ----------------------------------------------------------------

class RoundOutcome(str, enum.Enum):
    COMMITTED = "Committed"
    REJECTED = "Rejected"
    DIVERGED = "Diverged"


@dataclass(frozen=True)
class Vote:
    """A validator's verdict (Reason.OK accepts) and, when it accepts, the
    fold value it would publish."""

    reason: Reason
    cblock_id: Optional[Hash256]


@dataclass(frozen=True)
class ConsensusRound:
    partition: Partition
    tid: Hash256
    at: float
    votes: dict[EntityId, Vote]
    outcome: RoundOutcome


def candidate_fold(replica: PartitionLedger, tx: Transaction) -> Hash256:
    """The fold value this replica would publish after committing tx.

    Recomputed from the open block's transaction list rather than read
    from cached state, so any out-of-band edit of the list shows up in
    the vote.
    """
    tids = [t.tid for t in replica.current.transactions] + [tx.tid]
    return fold_ids(replica.current.prev_block_id, tids)


def run_consensus(
    validators: Sequence[EntityId],
    tx: Transaction,
    replicas: Mapping[EntityId, PartitionLedger],
    at: float,
    ca_checked: Optional[set] = None,
) -> ConsensusRound:
    """One unanimity round over a single proposed transaction.

    The genesis half of check_tx is judged once for the round, against
    the genesis every replica shares; the committed half is judged once
    per replica, against that replica's own committed set. `ca_checked`
    is check_tx_genesis's set of batch roots found CA-signed; a caller
    that runs many rounds of one partition passes the same set to each,
    so each batch root's signature is checked once.

    Commits mutate every replica (append plus seal-if-full). A rejection
    by anyone leaves all replicas untouched; accept votes that disagree on
    the fold value mark the round Diverged and also leave replicas alone.
    """
    if not validators:
        raise ValueError("a consensus round needs at least one validator")
    ledgers = [replicas[v] for v in validators]
    # The genesis id hashes the partition, its CA roots and its members, so
    # one shared id means one partition and one genesis half for everyone.
    if len({lg.genesis.block_id for lg in ledgers}) != 1:
        raise ReplicaMismatch("validator replicas hold different genesis blocks")
    sealed = {(len(lg.blocks), lg.sealed_tip()) for lg in ledgers}
    if len(sealed) != 1:
        raise ReplicaMismatch("validator replicas disagree on the sealed chain")

    shared = check_tx_genesis(tx, ledgers[0].genesis, ca_checked)
    votes: dict[EntityId, Vote] = {}
    for validator in validators:
        replica = replicas[validator]
        reason = check_tx_committed(tx, replica.tid_index) if shared is Reason.OK else shared
        fold = candidate_fold(replica, tx) if reason is Reason.OK else None
        votes[validator] = Vote(reason=reason, cblock_id=fold)

    if any(vote.reason is not Reason.OK for vote in votes.values()):
        outcome = RoundOutcome.REJECTED
    elif len({vote.cblock_id for vote in votes.values()}) == 1:
        outcome = RoundOutcome.COMMITTED
        for validator in validators:
            replica = replicas[validator]
            replica.append_validated(tx)
            replica.maybe_seal()
    else:
        outcome = RoundOutcome.DIVERGED

    return ConsensusRound(
        partition=ledgers[0].partition,
        tid=tx.tid,
        at=at,
        votes=votes,
        outcome=outcome,
    )


def detect_tamper(round_: ConsensusRound) -> tuple[EntityId, ...]:
    """Names the replica(s) outvoted on the fold value in a diverged round.

    Attribution is a plurality vote: the unique largest group of agreeing
    validators is presumed honest and everyone outside it is named. With
    no unique largest group the divergence is unattributable.
    """
    if round_.outcome is not RoundOutcome.DIVERGED:
        raise NotDiverged(f"round outcome is {round_.outcome.value}")
    groups: dict[Hash256, list[EntityId]] = {}
    for validator, vote in round_.votes.items():
        assert vote.cblock_id is not None
        groups.setdefault(vote.cblock_id, []).append(validator)
    sizes = sorted((len(members) for members in groups.values()), reverse=True)
    if len(sizes) < 2 or sizes[0] == sizes[1]:
        raise Unattributable("no plurality among diverged replicas")
    majority = max(groups.values(), key=len)
    named = [v for v in round_.votes if v not in majority]
    return tuple(named)


def audit_record(round_: ConsensusRound) -> dict:
    """One JSON-able object per round for the audit log."""
    return {
        "at": round_.at,
        "partition": round_.partition.value,
        "tid": round_.tid.hex(),
        "outcome": round_.outcome.value,
        "votes": {
            validator: {
                "decision": "accept" if vote.reason is Reason.OK else "reject",
                "reason": vote.reason.value,
                "cblock_id": vote.cblock_id.hex() if vote.cblock_id else None,
            }
            for validator, vote in round_.votes.items()
        },
    }


# AUTHORIZED_PROPOSERS and Reason live beside check_tx and stay importable here.
__all__ = [
    "AUTHORIZED_PROPOSERS",
    "Reason",
    "verify_transaction",
    "RoundOutcome",
    "Vote",
    "ConsensusRound",
    "candidate_fold",
    "run_consensus",
    "detect_tamper",
    "audit_record",
]
