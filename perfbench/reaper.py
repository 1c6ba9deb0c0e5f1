"""Every process a benchmark run starts has ended when the run ends.

The engine forks executor processes, and the first shared-memory segment
starts multiprocessing's resource tracker: a separate process that outlives
the driver until it reads end-of-file on its pipe, then unlinks what is
left and exits.  :func:`owned_processes` starts that tracker before any
fork, so executors share it instead of starting their own, makes the driver
the reaper of descendants orphaned on the way (Linux ``prctl``), and on
every path out closes the tracker's pipe and waits for each child to end,
terminating the ones that do not end on their own.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import time
from contextlib import contextmanager
from multiprocessing import resource_tracker

PR_SET_CHILD_SUBREAPER = 36
#: how long a child may take to end on its own, then after SIGTERM
GRACE_SECONDS = 5.0


def _adopt_orphans() -> None:
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    """Pids whose parent is this process, zombies included."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        if int(stat.rpartition(")")[2].split()[1]) == me:
            out.append(int(entry))
    return out


def _reap(deadline: float) -> list[int]:
    """Reap children until none is left or the deadline passes."""
    while True:
        left = []
        for pid in _children():
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            if not done:
                left.append(pid)
        if not left or time.monotonic() >= deadline:
            return left
        time.sleep(0.01)


def _close_tracker() -> None:
    """Close the driver's end of the tracker's pipe, so the tracker exits."""
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        os.close(tracker._fd)
        tracker._fd = None
        tracker._pid = None


def stop_children() -> None:
    for proc in multiprocessing.active_children():
        proc.terminate()
    for proc in multiprocessing.active_children():
        proc.join(GRACE_SECONDS)
    _close_tracker()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        left = _reap(time.monotonic() + GRACE_SECONDS)
        if not left:
            return
        for pid in left:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
    _reap(time.monotonic() + GRACE_SECONDS)


@contextmanager
def owned_processes():
    _adopt_orphans()
    resource_tracker.ensure_running()
    try:
        yield
    finally:
        stop_children()
