"""Per-transaction verdicts and the per-round consensus protocol.

A validator judges a proposed transaction against its own replica with
the one validity rule of txmodel; `avledger verify` judges every
committed record with the same rule (ledger.chain_faults). The verdict
reason reports the first policy that failed, checked in this order:
schema, authorization, completeness, certificate and its window,
signatures, uniqueness, parent link.

The rule has two halves. Every replica of a partition holds the same
genesis (the round refuses replicas that do not), so the genesis half
(check_tx_genesis), which runs every policy up to the signatures, is
judged once per round; only the committed half (check_tx_committed),
uniqueness and the parent link, runs once per replica state. Each vote
is still the verdict the whole rule gives on that replica.

Consensus is unanimity among a partition's validators: a transaction
commits only if every validator accepts it and every validator computes
the same next fold value for its own replica. A round where all accept
but the fold values disagree is the tamper signal: some replica's open
block no longer matches the others. A replica is its record log (see
ledger), and the sealed part must be the same on every replica, so
replicas whose open blocks hold the same tids are one state: they share
one verdict, one fold and one Vote, and on commit every replica appends
the fold value it voted for, sealing the block when it is full.

A round makes its certificate and signature checks through the checks
object its caller passes, inline by default. ScenarioEngine.run passes a
SentChecks, which sends every certificate and signature check to the
process's check helpers and answers that it held; the run waits for
them to confirm every check at its end, and runs again with inline
checks if one failed. So a round's votes are final only where its
caller confirms its checks.

Each round, and each submission a halted partition skips, is one line of
the audit log, rendered by audit_line as canonical JSON.
"""

from __future__ import annotations

import enum
import json
from json.encoder import encode_basestring_ascii as quote
from typing import Mapping, Optional, Union

from .encoding import frozen
from .errors import NotDiverged, ReplicaMismatch, Unattributable
from .identity import Checks, EntityId
from .ledger import PartitionLedger, fold_ids
from .txmodel import (
    AUTHORIZED_PROPOSERS,
    Hash256,
    Partition,
    Reason,
    Transaction,
    check_tx_committed,
    check_tx_genesis,
)


# --- consensus ----------------------------------------------------------------

class RoundOutcome(str, enum.Enum):
    COMMITTED = "Committed"
    REJECTED = "Rejected"
    DIVERGED = "Diverged"


@frozen
class Vote:
    """A validator's verdict (Reason.OK accepts) and, when it accepts, the
    fold value it would publish."""

    reason: Reason
    cblock_id: Optional[Hash256]


@frozen
class ConsensusRound:
    partition: Partition
    tid: Hash256
    at: float
    votes: dict[EntityId, Vote]
    outcome: RoundOutcome


def run_consensus(
    tx: Transaction,
    replicas: Mapping[EntityId, PartitionLedger],
    at: float,
    checks: Optional[Checks] = None,
) -> ConsensusRound:
    """One unanimity round over a single proposed transaction. `replicas`
    maps each validator, in genesis order, to its replica of the
    partition's ledger: the mapping is the validator set.

    The genesis half of the validity rule is judged once for the round,
    against the genesis every replica shares; the committed half is
    judged once per replica state (the tids of its open block), against
    that state's committed set, and replicas in one state share one Vote
    object. `checks` makes the genesis half's certificate and signature
    checks, as check_tx_genesis takes it: a caller that runs many rounds
    passes one object to each, so each batch root's signature is checked
    once. A caller that passes a SentChecks gets the round that holds
    if every check it sent holds, and must confirm them before it trusts
    the round.

    Commits mutate every replica: each appends the fold value it voted
    for, and seals if full. A replica whose stored fold values were edited
    out of band appends that value too, and chain_faults still finds the
    edit. A rejection by anyone leaves all replicas untouched; accept
    votes that disagree on the fold value mark the round Diverged and
    also leave replicas alone.
    """
    if not replicas:
        raise ValueError("a consensus round needs at least one validator")
    ledgers = list(replicas.values())
    # The genesis id hashes the partition, its CA roots and its members, so
    # one shared id means one partition and one genesis half for everyone.
    if len({lg.genesis.block_id for lg in ledgers}) != 1:
        raise ReplicaMismatch("validator replicas hold different genesis blocks")
    sealed = {(lg.sealed, lg.sealed_tip()) for lg in ledgers}
    if len(sealed) != 1:
        raise ReplicaMismatch("validator replicas disagree on the sealed chain")
    [(_, tip)] = sealed

    shared = check_tx_genesis(tx, ledgers[0].genesis, checks)
    # The sealed chains are equal, so a replica's state is the tids of its
    # open block. Replicas in one state get one committed-half verdict, one
    # fold and one shared Vote. The candidate fold value is recomputed from
    # the sealed tip and the open block's records, never read from the
    # replica's stored fold values, so an out-of-band edit of a record puts
    # that replica in a state of its own.
    states: dict[tuple, Vote] = {}
    votes: dict[EntityId, Vote] = {}
    for validator, replica in replicas.items():
        tids = [t.tid for t in replica.open_transactions()]
        key = tuple(tids)
        vote = states.get(key)
        if vote is None:
            reason = check_tx_committed(tx, replica.tid_index) if shared is Reason.OK else shared
            fold = None
            if reason is Reason.OK:
                tids.append(tx.tid)
                fold = fold_ids(tip, tids)
            vote = states[key] = Vote(reason, fold)
        votes[validator] = vote

    if any(vote.reason is not Reason.OK for vote in states.values()):
        outcome = RoundOutcome.REJECTED
    elif len({vote.cblock_id for vote in states.values()}) == 1:
        outcome = RoundOutcome.COMMITTED
        # The one value every state voted for: no replica rehashes it, and
        # all share one bytes object per record.
        fold = vote.cblock_id
        for replica in ledgers:
            replica.append_validated(tx, fold)
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


# The audit log's outcome for a submission its halted partition never
# put to a round.
SKIPPED_HALTED = "SkippedHalted"

# Every enum value an audit line holds, quoted as JSON once.
_QUOTED = {
    member: json.dumps(member.value) for enum_ in (Reason, RoundOutcome, Partition) for member in enum_
}
_QUOTED[SKIPPED_HALTED] = json.dumps(SKIPPED_HALTED)


def audit_line(
    at: float,
    partition: Partition,
    tid: Hash256,
    outcome: Union[RoundOutcome, str],
    votes: Mapping[EntityId, Vote],
) -> str:
    """One line of the audit log: the round's record as canonical JSON,
    the bytes json.dumps(record, sort_keys=True) writes. `outcome` is the
    round's, or SKIPPED_HALTED with no votes."""
    # json writes a number by repr, but NaN and the infinities as tokens.
    at_text = repr(at) if at - at == 0 else json.dumps(at)
    cast = []
    for validator in sorted(votes):
        vote = votes[validator]
        fold = f'"{vote.cblock_id.hex()}"' if vote.cblock_id else "null"
        decision = '"accept"' if vote.reason is Reason.OK else '"reject"'
        cast.append(
            f'{quote(validator)}: {{"cblock_id": {fold}, "decision": {decision}, '
            f'"reason": {_QUOTED[vote.reason]}}}'
        )
    return (
        f'{{"at": {at_text}, "outcome": {_QUOTED[outcome]}, "partition": {_QUOTED[partition]}, '
        f'"tid": "{tid.hex()}", "votes": {{{", ".join(cast)}}}}}'
    )


# AUTHORIZED_PROPOSERS and Reason live beside the validity rule and stay importable here.
__all__ = [
    "AUTHORIZED_PROPOSERS",
    "Reason",
    "RoundOutcome",
    "Vote",
    "ConsensusRound",
    "run_consensus",
    "detect_tamper",
    "SKIPPED_HALTED",
    "audit_line",
]
