"""The thread pool the fading report fits its rows on.

The report maps its independent rows through ``ordered_map``, on one
thread per CPU the process may use, at most ``_MAX_THREADS``.  Results
keep row order, so outputs equal the serial run's on any number of CPUs;
a pool of one thread is the serial run, and a single row runs on the
calling thread.
Nothing sets the size but the CPUs: no config key, flag or environment
variable.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

# The pool's ceiling: the thread count it was measured to gain from (2 vCPU).
# Much of a fading row holds the interpreter lock, so threads beyond that
# are unmeasured and may only queue for it.
_MAX_THREADS = 2

# Where a cgroup's CPU quota is read: v2 writes "quota period" (quota "max"
# when unlimited) to one file, v1 the two numbers to two (quota -1 when unlimited).
_CPU_QUOTA_FILES = (
    ("/sys/fs/cgroup/cpu.max",),
    ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us", "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
)


def _quota_cpus() -> float:
    """The whole CPUs the process's cgroup quota grants, at least one; inf if unlimited."""
    for paths in _CPU_QUOTA_FILES:
        try:
            quota, period = (int(v) for v in " ".join(
                Path(path).read_text() for path in paths).split())
        except (OSError, ValueError):  # no such cgroup, or no quota ("max")
            continue
        if quota > 0 and period > 0:
            return max(1, quota // period)
    return math.inf


def _worker_count() -> int:
    """The pool's size: the CPUs this process may use, at most _MAX_THREADS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(_MAX_THREADS, cpus, _quota_cpus()))


def ordered_map(fn, *iterables) -> list:
    """``list(map(fn, *iterables))``, the items run on ``_worker_count()`` threads.

    The first item to fail, in item order, raises its own error, and the
    items not yet started are cancelled before the pool shuts down.
    """
    items = list(zip(*iterables))
    if len(items) < 2:
        # Nothing to overlap, so no pool to pay for (about 1 ms a call, and
        # the import below).
        return [fn(*args) for args in items]
    # Imported here so that only the fading report pays the pool's import time.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        return list(pool.map(lambda args: fn(*args), items))
