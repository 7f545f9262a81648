"""The process's check helpers, and the one rule for when to fork one.

A check helper is a child process forked from this one at first use, one
per usable CPU beyond the first. It lives as long as its parent: every
later call hands it work through one pipe (its feed), and it answers one
byte per acked message through another (its acks). A third pipe (its
results) carries whatever else it writes back, unasked: the owner reads
it without blocking, and the helper writes to it without blocking, so
that neither ever waits on the other there. A child inherits its
parent's memory, so it starts with everything the code it runs needs,
and only the work itself is pickled to it. The two share every page
copy-on-write for the helper's whole life, so the parent copies each
page it writes at most once, however many calls the helper serves. A
helper that first took its own copy of every page (madvise with
MADV_POPULATE_WRITE) spared the parent those copies but was no faster:
on a 2-core host, fleet-telemetry rounds_per_s read 1.1% lower with it,
in 7 of 8 pairs.

The pid that forked the helpers owns them. They are used only while
fork_pays() holds in that pid: a second thread alive, or a process forked
after them, gets no helper and does its work in process. A forked child
closes its copies of the owner's pipe ends at once, so it can never write
to them, and each helper's feed still ends when its owner's copy closes.
A helper exits as soon as its feed ends. The owner ends every feed and
reaps every helper at exit (close(), which atexit calls); a helper that
dies first is reaped as soon as its pipe shows it.
"""

from __future__ import annotations

import atexit
import os
import select
import threading
from typing import Callable, Optional


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fork_pays() -> bool:
    """Whether forking a helper is safe here and can gain: the platform
    has os.fork, no other thread is alive (a child could inherit a lock
    one of them holds, and never see it released), and the process may
    run on two CPUs or more, so that a helper runs beside its parent."""
    return hasattr(os, "fork") and threading.active_count() == 1 and usable_cpus() >= 2


class Helper:
    """One live helper, seen from its owner.

    send() writes one message that the helper answers with one ack byte,
    tell() one that it answers with none, and begin() is a tell() that
    first waits for the acks a call before left unread and forgets them.
    in_flight counts the messages not acked yet, and `failed` whether any
    ack since the last begin() was a 0. poll() reads whatever acks have
    come, without blocking; wait() blocks until every message sent is
    acked. results() reads whatever the helper has written to its results
    pipe, without blocking. A helper whose pipes show that it is gone
    (EOF on its acks, EPIPE on its feed) is reaped and leaves the pool;
    its `dead` is then True and its in_flight stays as it was, so a
    caller sees which of its messages went unanswered.
    """

    def __init__(self, pid: int, feed: int, acks: int, results: int) -> None:
        self.pid = pid
        self.in_flight = 0
        self.failed = False
        self.dead = False
        self._feed = feed
        self._acks = acks
        self._results = results

    def begin(self, message: bytes) -> None:
        self.wait()
        self.failed = False
        self.tell(message)

    def send(self, message: bytes) -> None:
        self.in_flight += 1
        self._write(message)

    def tell(self, message: bytes) -> None:
        self._write(message)

    def results(self) -> bytes:
        if self.dead:
            return b""
        try:
            return os.read(self._results, _RESULTS_READ)
        except BlockingIOError:
            return b""

    def poll(self) -> None:
        if not self.dead:
            try:
                self._take(os.read(self._acks, 1 << 12))
            except BlockingIOError:
                pass

    def wait(self) -> None:
        while self.in_flight and not self.dead:
            select.select([self._acks], [], [])
            self.poll()

    def _write(self, message: bytes) -> None:
        view = memoryview(len(message).to_bytes(_LENGTH, "little") + message)
        try:
            while view and not self.dead:
                view = view[os.write(self._feed, view):]
        except BrokenPipeError:
            self._reap()

    def _take(self, acks: bytes) -> None:
        if not acks:  # EOF: the helper has gone
            self._reap()
            return
        self.in_flight -= len(acks)
        if acks.count(0):
            self.failed = True

    def _reap(self) -> None:
        if self.dead:
            return
        self.dead = True
        _HELPERS.remove(self)
        _close_ends(self)
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:  # reaped already, as under SIGCHLD set to SIG_IGN
            pass


# Each message on a feed is its length in this many bytes, then its bytes.
_LENGTH = 4
# The most bytes one results() reads: a whole number of any record size
# that divides 4096, so that records written whole are read whole.
_RESULTS_READ = 1 << 16


class Feed:
    """A helper's end of its feed. read(wait) gives every whole message
    that has come, in the order sent: none when wait is False and none
    has, so that a helper can do other work between messages, and at
    least one when wait is True. EOFError once the feed has ended."""

    def __init__(self, fd: int) -> None:
        self._fd = fd
        self._buffer = bytearray()

    def read(self, wait: bool) -> list[bytes]:
        buffer, messages = self._buffer, []
        while not messages:
            if not wait and not select.select([self._fd], [], [], 0)[0]:
                break
            chunk = os.read(self._fd, 1 << 16)
            if not chunk:
                raise EOFError
            buffer += chunk
            start = 0
            while len(buffer) - start >= _LENGTH:
                end = start + _LENGTH + int.from_bytes(buffer[start:start + _LENGTH], "little")
                if end > len(buffer):
                    break
                messages.append(bytes(buffer[start + _LENGTH:end]))
                start = end
            del buffer[:start]
            if not wait:
                break
        return messages


# This process's live helpers, and the pid that forked them.
_HELPERS: list[Helper] = []
_owner: Optional[int] = None


def helpers(serve: Callable[[Feed, int, int], None]) -> list[Helper]:
    """The helpers this process may use now: one per usable CPU beyond
    the first, or at least one, forking any that are missing, each to run
    serve(feed, acks, results), acks and results being the write ends of
    those pipes, results non-blocking. Empty where fork_pays() does not hold, in a process
    that did not fork the live ones, or where every fork fails. A helper
    that has died since the last call is reaped first, and replaced. The
    process has one pool, so every caller passes the same serve."""
    global _owner
    if not fork_pays() or _owner not in (None, os.getpid()):
        return []
    for helper in list(_HELPERS):
        helper.poll()  # an EOF here means it has died
    for _ in range(max(1, usable_cpus() - 1) - len(_HELPERS)):
        helper = _fork(serve)
        if helper is None:
            break
        _owner = os.getpid()
        _HELPERS.append(helper)
    return list(_HELPERS)


def _fork(serve: Callable[[Feed, int, int], None]) -> Optional[Helper]:
    feed_in, feed_out = os.pipe()
    acks_in, acks_out = os.pipe()
    results_in, results_out = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (feed_in, feed_out, acks_in, acks_out, results_in, results_out):
            os.close(fd)
        return None
    if pid == 0:
        code = 1
        try:
            for fd in (feed_out, acks_in, results_in):
                os.close(fd)
            os.set_blocking(results_out, False)
            serve(Feed(feed_in), acks_out, results_out)
            code = 0
        finally:
            # Leave without running the parent's cleanup or flushing its
            # buffered output a second time.
            os._exit(code)
    for fd in (feed_in, acks_out, results_out):
        os.close(fd)
    os.set_blocking(acks_in, False)
    os.set_blocking(results_in, False)
    return Helper(pid, feed_out, acks_in, results_in)


def _close_ends(helper: Helper) -> None:
    for fd in (helper._feed, helper._acks, helper._results):
        os.close(fd)


def close() -> None:
    """Ends every helper's feed and reaps it. The next call of helpers()
    forks new ones."""
    global _owner
    for helper in list(_HELPERS):
        helper._reap()
    _owner = None


def _forget_helpers() -> None:
    """In a child just forked: closes the owner's pipe ends, which only
    the owner may use."""
    for helper in _HELPERS:
        _close_ends(helper)
    _HELPERS.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)
atexit.register(close)


__all__ = ["usable_cpus", "fork_pays", "Helper", "Feed", "helpers", "close"]
