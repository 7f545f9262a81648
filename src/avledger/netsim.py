"""Deterministic message-passing layer and event queue for the simulator.

Time is virtual and only moves when advance() is called. The queue is the
network's only state: a send is one entry, due at the instant it was
made, and a timer that schedule() adds is another. A send outside a
drain fires at the next advance() or run_until_quiet(), never during the
call that made it.

Every send goes through a seeded lossy channel: each attempt either
arrives (and is acknowledged immediately) or is lost, and lost sends are
retried at a fixed interval until the attempt budget runs out. An
exhausted budget counts as undeliverable, never raises: losing a message
is a fact about the world, not a program error. A handler and on_dead
are given the payload alone.

Entries fire in (due time, kind, sequence) order, so at one instant
every attempt fires before any timer, attempts in message id order and
timers in the order they were scheduled. The sends a timer makes fire
after it returns, in message id order, and before the next timer due at
that instant.

Identical seeds and identical call sequences replay identically. Once a
send ends the network keeps nothing of it, only counts of how sends
ended.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable, Optional

from .encoding import frozen
from .identity import EntityId

DEFAULT_RETRY_INTERVAL_SECS = 30.0
DEFAULT_MAX_ATTEMPTS = 10


@frozen
class _Endpoint:
    handler: Callable[[object], None]
    allowed_senders: Optional[frozenset[EntityId]]


class Network:
    """Seeded lossy channel, endpoint registry and the one event queue.

    Endpoints may declare an allow-list of senders; a send from anyone
    else is refused at the door even when the channel carried it, which
    is how partition membership stays closed.
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
        # Called with the payload when a send dies without delivery (budget
        # exhausted or refused at the door); lets the simulation account
        # for the loss.
        self.on_dead: Optional[Callable[[object], None]] = None
        self._endpoints: dict[str, _Endpoint] = {}
        # (due, 0, msg_id, sender, dest, payload, attempts made) for a send,
        # (due, 1, seq, fn) for a timer
        self._heap: list[tuple] = []
        self._next_msg_id = 0
        self._next_timer_seq = 0

    def register_endpoint(
        self,
        name: str,
        handler: Callable[[object], None],
        allowed_senders: Optional[set[EntityId]] = None,
    ) -> None:
        allow = frozenset(allowed_senders) if allowed_senders is not None else None
        self._endpoints[name] = _Endpoint(handler=handler, allowed_senders=allow)

    # -- sending ---------------------------------------------------------------

    def send_with_retry(self, sender: EntityId, dest: str, payload: object) -> None:
        """Queues a send whose first attempt is due at the current instant."""
        heapq.heappush(self._heap, (self.now, 0, self._next_msg_id, sender, dest, payload, 0))
        self._next_msg_id += 1
        self.sends += 1

    def schedule(self, at: float, fn: Callable[[], None]) -> None:
        """Queues fn to run at virtual time `at`, or now if `at` has passed."""
        heapq.heappush(self._heap, (max(at, self.now), 1, self._next_timer_seq, fn))
        self._next_timer_seq += 1

    # -- time ------------------------------------------------------------------

    def advance(self, dt: float) -> float:
        """Moves the clock forward by dt, firing every entry due by then."""
        if dt < 0:
            raise ValueError(f"cannot move the clock backwards by {dt}")
        target = self.now + dt
        heap = self._heap
        while heap and heap[0][0] <= target:
            entry = heapq.heappop(heap)
            # Nothing is queued before the current instant, so this never
            # moves the clock back.
            self.now = entry[0]
            if entry[1]:
                entry[3]()
            else:
                self._attempt(*entry[2:])
        self.now = target
        return self.now

    def run_until_quiet(self) -> float:
        """Advances until no entry remains queued. Bounded as long as the
        timers stop scheduling: every pending send has a finite attempt
        budget.
        """
        while self._heap:
            self.advance(self._heap[0][0] - self.now)
        return self.now

    def _attempt(self, msg_id: int, sender: EntityId, dest: str, payload: object, made: int) -> None:
        if self.rng.random() >= self.drop_prob:
            endpoint = self._endpoints.get(dest)
            if endpoint is None or (
                endpoint.allowed_senders is not None and sender not in endpoint.allowed_senders
            ):
                self.refused += 1
                if self.on_dead:
                    self.on_dead(payload)
                return
            self.delivered += 1
            endpoint.handler(payload)
            return
        made += 1
        if made >= self.max_attempts:
            self.undeliverable += 1
            if self.on_dead:
                self.on_dead(payload)
            return
        heapq.heappush(
            self._heap, (self.now + self.retry_interval, 0, msg_id, sender, dest, payload, made)
        )
