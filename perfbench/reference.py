"""Host-speed reference: a fixed piece of work timed around every sample.

The benchmark shares a small host whose speed drifts by up to about 1.6x
over seconds to minutes, as the neighbours of its cores change what they
run. A mean or a median of raw wall times then depends on which phase a
run happened to land in. So every sample's wall time is scaled by how
long this fixed work took just before and just after it, and every
TICK_S seconds during it:

    seconds = wall seconds * NOMINAL_S / mean(reference readings)

A sample taken while the host is slow and one taken while it is fast then
read alike, while a change to the program still moves the wall time and
not the reference. The reference calls nothing of avledger: a walk over
60 000 floats in shuffled order, 4 000 SHA-256 digests and 40 Ed25519
verifies through `cryptography`, the same mix of interpreter, hashing and
signature work the program does. It runs on its own small data with the
collector off, so a program change that grows the heap does not slow it.
"""

from __future__ import annotations

import gc
import hashlib
import random
import signal
import statistics
import time
from typing import Callable, TypeVar

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

T = TypeVar("T")

# Sets the scale only: roughly what the reference takes in a fast phase of
# a 2-core Intel Xeon KVM guest, so reported times are close to that
# phase's wall times.
NOMINAL_S = 0.010
# Work longer than this also gets the reference read while it runs, from a
# timer signal, with the handler's time taken out of the work's. A scenario
# runs for seconds, and the host's speed can change within it.
TICK_S = 0.25
_CAN_TICK = hasattr(signal, "setitimer")


class Reference:
    """The fixed work, built once per process."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._values = [rng.random() for _ in range(60_000)]
        rng.shuffle(self._values)
        self._blobs = [i.to_bytes(8, "big") for i in range(4_000)]
        key = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
        self._public = key.public_key()
        self._message = bytes(range(200))
        self._signature = key.sign(self._message)

    def _work(self) -> None:
        total = 0.0
        for value in self._values:
            total += value
        for blob in self._blobs:
            hashlib.sha256(blob).digest()
        for _ in range(40):
            self._public.verify(self._signature, self._message)

    def measure(self) -> float:
        """Wall seconds of one run of the work, with the collector off."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._work()
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


class _Ticker:
    """Reads the reference every TICK_S seconds from a SIGALRM handler and
    adds up the time its handler took, so the caller can take it out.
    """

    def __init__(self, reference: Reference) -> None:
        self._reference = reference
        self._busy = False
        self._previous = None
        self.readings: list[float] = []
        self.spent_s = 0.0

    def _tick(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.readings.append(self._reference.measure())
        self.spent_s += time.perf_counter() - t0
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


class Clock:
    """Times work in reference-scaled seconds and keeps every reference time."""

    def __init__(self) -> None:
        self._reference = Reference()
        self._depth = 0
        # Off for a traced run: a reading would land inside a traced span.
        self.ticking = _CAN_TICK
        self.reference_s: list[float] = []

    def timed(self, work: Callable[[], T]) -> tuple[T, float]:
        """Runs work once after a full collection: (result, scaled seconds).

        The reference is read before and after the work and, for the
        outermost timed call, every TICK_S seconds while the work runs.
        """
        gc.collect()
        readings = [self._reference.measure()]
        ticker = _Ticker(self._reference) if self._depth == 0 and self.ticking else None
        self._depth += 1
        t0 = time.perf_counter()
        try:
            if ticker:
                ticker.start()
            result = work()
        finally:
            if ticker:
                ticker.stop()
            self._depth -= 1
        wall = time.perf_counter() - t0
        readings.append(self._reference.measure())
        if ticker:
            wall -= ticker.spent_s
            readings += ticker.readings
        self.reference_s += readings
        return result, wall * NOMINAL_S / statistics.fmean(readings)
