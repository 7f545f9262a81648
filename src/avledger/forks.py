"""Forked helper processes, and the one rule for when to fork one.

Two parts of the program hand work to a forked child: chain_faults judges
shares of a chain in helpers, and a scenario run checks every Ed25519
signature it needs in one. A child inherits the parent's memory, so it
starts with everything it needs and nothing is pickled to it at fork
time. A helper reads what its parent sends it through one pipe and writes
its result back through another, once, before it exits.
"""

from __future__ import annotations

import ctypes
import os
import threading
from typing import BinaryIO, Callable, Optional


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


# The pipe ends this process holds for its live helpers. A child closes
# them first, so that each helper's feed ends, and its reply pipe breaks,
# when its own parent closes that end, whichever other helpers still live.
_PARENT_ENDS: set[int] = set()


class Helper:
    """A forked child that runs work(feed) and writes back the bytes it
    returns. feed is a binary file on the pipe that send() writes to; it
    ends when the parent calls reply() or close().

    reply() ends the feed, reads the helper's bytes until it closes its
    end, and reaps it: the bytes when it exited with status 0, else None.
    close() ends both pipes without reading and reaps the helper; after
    reply() it does nothing. A helper that raises, is killed or cannot
    write its reply exits with another status, so its reply is None.
    """

    def __init__(self, pid: int, feed: int, reply: int) -> None:
        self._pid = pid
        self._feed = feed
        self._reply = reply
        self._exit: Optional[int] = None

    def send(self, data: bytes) -> None:
        """Writes data to the feed. A helper that has exited drops it:
        its reply() tells the owner what it did."""
        view = memoryview(data)
        try:
            while view:
                view = view[os.write(self._feed, view):]
        except BrokenPipeError:
            pass

    def reply(self) -> Optional[bytes]:
        self._end_feed()
        chunks = []
        try:
            while chunk := os.read(self._reply, 1 << 16):
                chunks.append(chunk)
        finally:
            self.close()
        return b"".join(chunks) if self._exit == 0 else None

    def close(self) -> None:
        if self._exit is not None:
            return
        self._end_feed()
        _close(self._reply)
        try:
            self._exit = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])
        except ChildProcessError:  # reaped already, as under SIGCHLD set to SIG_IGN
            self._exit = -1

    def _end_feed(self) -> None:
        if self._feed >= 0:
            _close(self._feed)
            self._feed = -1


def _close(fd: int) -> None:
    _PARENT_ENDS.discard(fd)
    os.close(fd)


def fork_helper(work: Callable[[BinaryIO], bytes]) -> Optional[Helper]:
    """Forks a Helper that runs work, or None when the fork fails."""
    feed_in, feed_out = os.pipe()
    reply_in, reply_out = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (feed_in, feed_out, reply_in, reply_out):
            os.close(fd)
        return None
    if pid == 0:
        code = 1
        try:
            for fd in (*_PARENT_ENDS, feed_out, reply_in):
                os.close(fd)
            _PARENT_ENDS.clear()
            with open(feed_in, "rb") as feed:
                out = work(feed)
            with open(reply_out, "wb") as sink:
                sink.write(out)
            code = 0
        finally:
            # Leave without running the parent's cleanup or flushing its
            # buffered output a second time.
            os._exit(code)
    os.close(feed_in)
    os.close(reply_out)
    _PARENT_ENDS.update((feed_out, reply_in))
    return Helper(pid, feed_out, reply_in)


# madvise(2) advice that faults every page of a range in writable, as a
# write to each would (Linux 5.14).
_MADV_POPULATE_WRITE = 23


def take_private_pages() -> None:
    """Called in a helper: gives it its own copy of every private writable
    page it still shares with its parent. While the two share a page, the
    first write to it on either side copies it. A helper that lives as
    long as its parent's work would otherwise make the parent copy every
    page the work writes: about 2300 pages, 10-20 ms, in a fleet-telemetry
    scenario run. Here the helper copies them all at once, on its own
    CPU, and the parent's later writes find pages it no longer shares.
    Where /proc/self/maps or the advice is missing, nothing is done."""
    try:
        libc = ctypes.CDLL(None)
        madvise = libc.madvise
        with open("/proc/self/maps") as maps:
            ranges = [line.split(maxsplit=2)[:2] for line in maps]
    except (OSError, AttributeError):
        return
    madvise.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    madvise.restype = ctypes.c_int
    for span, perms in ranges:
        if perms == "rw-p":
            lo, hi = (int(end, 16) for end in span.split("-"))
            madvise(lo, hi - lo, _MADV_POPULATE_WRITE)  # a range it refuses stays shared


__all__ = ["usable_cpus", "fork_pays", "Helper", "fork_helper", "take_private_pages"]
