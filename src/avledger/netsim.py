"""Deterministic message-passing layer and event queue for the simulator.

Time is virtual and only moves when advance() is called. Every send goes
through a seeded lossy channel: each attempt either arrives (and is
acknowledged immediately) or is lost, and lost sends are retried at a
fixed interval until the attempt budget runs out. An exhausted budget is
recorded as undeliverable, never raised: losing a message is a fact about
the world, not a program error.

One queue holds every future event: send attempts and the timers that
schedule() adds. Events fire in (due time, kind, sequence) order, so at
one instant every attempt fires before any timer, attempts in message id
order and timers in the order they were scheduled. A timer runs inside
the pump: the sends it makes fire after it returns, in message id order,
and before the next timer due at that instant.

Identical seeds and identical call sequences replay to byte-identical
delivery records. The network keeps no record once its send ends, only
counts of how sends ended.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from .encoding import frozen
from .errors import ClockViolation
from .identity import EntityId

DEFAULT_RETRY_INTERVAL_SECS = 30.0
DEFAULT_MAX_ATTEMPTS = 10


@frozen
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


@frozen
class _Endpoint:
    handler: Callable[[Envelope], None]
    allowed_senders: Optional[frozenset[EntityId]]


class Network:
    """Seeded lossy channel, endpoint registry and the one event queue.

    Endpoints may declare an allow-list of senders; an envelope from
    anyone else is refused at the door even when the channel carried it,
    which is how partition membership stays closed.
    """

    def __init__(
        self,
        rng: random.Random,
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
        # Virtual time, in seconds.
        self.now = 0.0
        self.drop_prob = drop_prob
        self.retry_interval = retry_interval
        self.max_attempts = max_attempts
        # How sends ended; sends - the other three are still pending.
        self.sends = 0
        self.delivered = 0
        self.undeliverable = 0
        self.refused = 0
        # Called when a send dies without delivery (budget exhausted or
        # refused at the door); lets the simulation account for the loss.
        self.on_dead: Optional[Callable[[DeliveryRecord], None]] = None
        self._endpoints: dict[str, _Endpoint] = {}
        # (due, 0, msg_id, record) for an attempt, (due, 1, seq, fn) for a timer
        self._heap: list[tuple[float, int, int, object]] = []
        self._next_msg_id = 0
        self._next_timer_seq = 0
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
            created_at=self.now,
        )
        self._next_msg_id += 1
        record = DeliveryRecord(envelope=envelope)
        self.sends += 1
        heapq.heappush(self._heap, (self.now, 0, envelope.msg_id, record))
        self._pump(self.now)
        return record

    def schedule(self, at: float, fn: Callable[[], None]) -> None:
        """Queues fn to run at virtual time `at`, or now if `at` has passed."""
        heapq.heappush(self._heap, (max(at, self.now), 1, self._next_timer_seq, fn))
        self._next_timer_seq += 1

    # -- time ------------------------------------------------------------------

    def advance(self, dt: float) -> float:
        """Moves the clock forward, firing every attempt that falls due."""
        if dt < 0:
            raise ClockViolation(f"cannot move the clock backwards by {dt}")
        target = self.now + dt
        self._pump(target)
        self.now = target
        return self.now

    def run_until_quiet(self) -> float:
        """Advances until no event remains queued. Bounded as long as the
        timers stop scheduling: every pending send has a finite attempt
        budget.
        """
        while self._heap:
            due = self._heap[0][0]
            if due > self.now:
                self.advance(due - self.now)
            else:
                self._pump(self.now)
        return self.now

    def _pump(self, limit: float) -> None:
        if self._pumping:
            return  # the active pump loop will pick up anything new
        self._pumping = True
        try:
            while self._heap and self._heap[0][0] <= limit:
                due, timer, _, item = heapq.heappop(self._heap)
                if due > self.now:
                    self.now = due
                if timer:
                    item()
                else:
                    self._attempt(item)
        finally:
            self._pumping = False

    def _attempt(self, record: DeliveryRecord) -> None:
        at = self.now
        delivered = self.rng.random() >= self.drop_prob
        record.attempts.append((at, delivered))
        if delivered:
            endpoint = self._endpoints.get(record.envelope.dest)
            if endpoint is None or (
                endpoint.allowed_senders is not None
                and record.envelope.sender not in endpoint.allowed_senders
            ):
                record.refused = True
                self.refused += 1
                if self.on_dead:
                    self.on_dead(record)
                return
            record.delivered_at = at
            self.delivered += 1
            endpoint.handler(record.envelope)
            return
        if len(record.attempts) >= self.max_attempts:
            record.exhausted = True
            self.undeliverable += 1
            if self.on_dead:
                self.on_dead(record)
            return
        heapq.heappush(self._heap, (at + self.retry_interval, 0, record.envelope.msg_id, record))
