"""Deterministic message-passing layer for the simulator.

Time is virtual and only moves when advance() is called. Every send goes
through a seeded lossy channel: each attempt either arrives (and is
acknowledged immediately) or is lost, and lost sends are retried at a
fixed interval until the attempt budget runs out. An exhausted budget is
recorded as undeliverable, never raised: losing a message is a fact about
the world, not a program error.

Identical seeds and identical call sequences replay to byte-identical
delivery records; due retries fire in (due time, message id) order.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import ClockViolation, NotCommitted
from .identity import EntityId
from .ledger import PartitionLedger
from .txmodel import Hash256, Transaction, TxKind

DEFAULT_RETRY_INTERVAL_SECS = 30.0
DEFAULT_MAX_ATTEMPTS = 10


@dataclass
class SimClock:
    now: float = 0.0


@dataclass(frozen=True)
class Envelope:
    msg_id: int
    sender: EntityId
    dest: str
    payload: object
    created_at: float


@dataclass
class DeliveryRecord:
    envelope: Envelope
    attempts: list[tuple[float, bool]] = field(default_factory=list)
    delivered_at: Optional[float] = None
    refused: bool = False
    exhausted: bool = False

    @property
    def status(self) -> str:
        if self.refused:
            return "refused"
        if self.delivered_at is not None:
            return "delivered"
        if self.exhausted:
            return "undeliverable"
        return "pending"


@dataclass(frozen=True)
class _Endpoint:
    handler: Callable[[Envelope], None]
    allowed_senders: Optional[frozenset[EntityId]]


class Network:
    """Seeded lossy channel plus an endpoint registry.

    Endpoints may declare an allow-list of senders; an envelope from
    anyone else is refused at the door even when the channel carried it,
    which is how partition membership stays closed.
    """

    def __init__(
        self,
        rng: random.Random,
        clock: Optional[SimClock] = None,
        drop_prob: float = 0.0,
        retry_interval: float = DEFAULT_RETRY_INTERVAL_SECS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        if not 0.0 <= drop_prob < 1.0:
            raise ValueError(f"drop probability must be in [0, 1), got {drop_prob}")
        if max_attempts < 1:
            raise ValueError("at least one attempt is required")
        if retry_interval < 0:
            raise ValueError("retry interval cannot be negative")
        self.rng = rng
        self.clock = clock or SimClock()
        self.drop_prob = drop_prob
        self.retry_interval = retry_interval
        self.max_attempts = max_attempts
        self.records: list[DeliveryRecord] = []
        # Called when a send dies without delivery (budget exhausted or
        # refused at the door); lets the simulation account for the loss.
        self.on_dead: Optional[Callable[[DeliveryRecord], None]] = None
        self._endpoints: dict[str, _Endpoint] = {}
        self._heap: list[tuple[float, int, DeliveryRecord]] = []
        self._next_msg_id = 0
        self._pumping = False

    def register_endpoint(
        self,
        name: str,
        handler: Callable[[Envelope], None],
        allowed_senders: Optional[set[EntityId]] = None,
    ) -> None:
        allow = frozenset(allowed_senders) if allowed_senders is not None else None
        self._endpoints[name] = _Endpoint(handler=handler, allowed_senders=allow)

    # -- sending ---------------------------------------------------------------

    def send_with_retry(self, sender: EntityId, dest: str, payload: object) -> DeliveryRecord:
        """Queues a send whose first attempt fires at the current instant.
        Returns the live delivery record; it fills in as time advances.
        """
        envelope = Envelope(
            msg_id=self._next_msg_id,
            sender=sender,
            dest=dest,
            payload=payload,
            created_at=self.clock.now,
        )
        self._next_msg_id += 1
        record = DeliveryRecord(envelope=envelope)
        self.records.append(record)
        heapq.heappush(self._heap, (self.clock.now, envelope.msg_id, record))
        self._pump(self.clock.now)
        return record

    # -- time ------------------------------------------------------------------

    def advance(self, dt: float) -> float:
        """Moves the clock forward, firing every attempt that falls due."""
        if dt < 0:
            raise ClockViolation(f"cannot move the clock backwards by {dt}")
        target = self.clock.now + dt
        self._pump(target)
        self.clock.now = target
        return self.clock.now

    def next_due(self) -> Optional[float]:
        return self._heap[0][0] if self._heap else None

    def has_pending(self) -> bool:
        return bool(self._heap)

    def run_until_quiet(self) -> float:
        """Advances until no retry remains pending. Bounded: every pending
        send has a finite attempt budget.
        """
        while self._heap:
            due = self._heap[0][0]
            if due > self.clock.now:
                self.advance(due - self.clock.now)
            else:
                self._pump(self.clock.now)
        return self.clock.now

    def _pump(self, limit: float) -> None:
        if self._pumping:
            return  # the active pump loop will pick up anything new
        self._pumping = True
        try:
            while self._heap and self._heap[0][0] <= limit:
                due, _, record = heapq.heappop(self._heap)
                if due > self.clock.now:
                    self.clock.now = due
                self._attempt(record)
        finally:
            self._pumping = False

    def _attempt(self, record: DeliveryRecord) -> None:
        at = self.clock.now
        delivered = self.rng.random() >= self.drop_prob
        record.attempts.append((at, delivered))
        if delivered:
            endpoint = self._endpoints.get(record.envelope.dest)
            if endpoint is None:
                record.refused = True
                if self.on_dead:
                    self.on_dead(record)
                return
            if (
                endpoint.allowed_senders is not None
                and record.envelope.sender not in endpoint.allowed_senders
            ):
                record.refused = True
                if self.on_dead:
                    self.on_dead(record)
                return
            record.delivered_at = at
            endpoint.handler(record.envelope)
            return
        if len(record.attempts) >= self.max_attempts:
            record.exhausted = True
            if self.on_dead:
                self.on_dead(record)
            return
        heapq.heappush(self._heap, (at + self.retry_interval, record.envelope.msg_id, record))


# --- cross-partition bridge ---------------------------------------------------

BRIDGE_SENDER = "partition:P1"


@dataclass
class ForwardReceipt:
    """Link between an evidence request committed in the operational
    partition and its consensus round in the decision partition. The
    outcome field is filled once the decision round runs.
    """

    p1_tid: Hash256
    delivery: DeliveryRecord
    p2_outcome: Optional[str] = None


def forward_evidence_request(
    net: Network,
    ret: Transaction,
    p1_ledger: PartitionLedger,
) -> ForwardReceipt:
    """Hands a committed evidence request over to the decision partition."""
    if ret.kind is not TxKind.EVIDENCE_REQUEST:
        raise NotCommitted(f"only evidence requests cross partitions, got {ret.kind.value}")
    if ret.tid not in p1_ledger.tid_index:
        raise NotCommitted(f"evidence request {ret.tid.hex()[:16]} is not committed")
    record = net.send_with_retry(sender=BRIDGE_SENDER, dest="P2", payload=ret)
    return ForwardReceipt(p1_tid=ret.tid, delivery=record)
