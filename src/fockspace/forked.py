"""Run the jobs of one call in this process and in forked helpers.

``run_shared(run_one, n)`` returns ``[run_one(k) for k in range(n)]``.  The
calling process forks up to one helper per further available CPU, and
every process takes one-byte job indices from one shared pipe, so each job
runs once, wherever it runs.  A helper sends a ``marshal`` record
``(k, *run_one(k))`` down its own pipe per job and ends in ``os._exit``;
raw ``os.read``/``os.write`` keep the transport to code every process has
already loaded.  With no helper the calling process takes every index, in
order: the one-process case runs the same loop.

It stays in one process when there is one CPU, when ``os.fork`` is
missing, when a profiler, tracer or monitoring tool is set (it would see
only this process's share of the jobs), and when other threads are alive
(forking them may deadlock the child, and Python 3.12+ warns).

It is a module of its own, not part of ``verify``, because compiling the
large ``verify`` module sets the memory peak of importing the package, and
every forked process starts from what that peak leaves behind.
"""

from __future__ import annotations

import io
import marshal
import os
import sys
import threading
from typing import Callable, Iterator, Optional


def _available_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _watched() -> bool:
    """Whether a profiler, tracer or monitoring tool (Python 3.12+) is set."""
    monitoring = getattr(sys, "monitoring", None)
    return bool(
        sys.getprofile()
        or sys.gettrace()
        or monitoring and any(map(monitoring.get_tool, range(6)))
    )


def _helper_count(n: int) -> int:
    """min(n, CPUs) - 1 helpers for n jobs, or none where forking is unsafe or watched."""
    if not hasattr(os, "fork") or _watched() or threading.active_count() > 1:
        return 0
    return min(n, _available_cpus()) - 1


def _next_index(tasks: int) -> Optional[int]:
    """Take one job index from the shared pipe; None once it is empty."""
    taken = os.read(tasks, 1)
    return taken[0] if taken else None


def _helper(tasks: int, out: int, run_one: Callable[[int], tuple]) -> None:
    """Run jobs taken from the pipe, sending one (index, *outcome) record each."""
    while (k := _next_index(tasks)) is not None:
        record = memoryview(marshal.dumps((k, *run_one(k))))
        while record:
            record = record[os.write(out, record):]


def _records(results: int) -> Iterator[tuple]:
    """The records a helper sent, read to the end; a record cut short ends them."""
    chunks = []
    while chunk := os.read(results, 1 << 16):
        chunks.append(chunk)
    data = b"".join(chunks)
    stream = io.BytesIO(data)
    try:
        while stream.tell() < len(data):
            yield marshal.load(stream)
    except (EOFError, ValueError, TypeError):
        return


def run_shared(run_one: Callable[[int], tuple], n: int) -> list[tuple]:
    """[run_one(k) for k in range(n)], shared out between this process and forked helpers.

    ``n`` is at most 256 and each outcome a tuple ``marshal`` can write.  A
    job whose record never arrives (its helper died) runs here.  On any
    exception here the helpers are killed; either way they are reaped
    before this returns, so none outlives the call.
    """
    indices = bytes(range(n))  # at most 256 bytes: the pipe never fills
    outcomes: dict[int, tuple] = {}
    helpers: list[tuple[int, int]] = []  # (pid, read end of its result pipe)
    tasks, feed = os.pipe()
    try:
        os.write(feed, indices)
        os.close(feed)
        for _ in range(_helper_count(n)):
            results, out = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # at a process limit: run with the helpers made so far
                os.close(results)
                os.close(out)
                break
            if pid == 0:
                try:
                    _helper(tasks, out, run_one)
                finally:
                    os._exit(0)
            os.close(out)
            helpers.append((pid, results))
        while (k := _next_index(tasks)) is not None:
            outcomes[k] = run_one(k)
        for _, results in helpers:
            outcomes.update((k, tuple(outcome)) for k, *outcome in _records(results))
        return [outcomes[k] if k in outcomes else run_one(k) for k in range(n)]
    except BaseException:
        from signal import SIGKILL

        for pid, _ in helpers:
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pid, results in helpers:
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:  # reaped already, as when SIGCHLD is ignored
                pass
            os.close(results)
        os.close(tasks)
