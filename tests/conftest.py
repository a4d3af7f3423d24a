import math
import os
from types import SimpleNamespace

import pytest

from chansim import pool
from chansim.mpc import RAY_COLUMNS, RayTable


def make_snapshot(
    specs,
    psi_deg: float = 45.0,
    distance_km: float = 400.0,
    **angles,
):
    """Build a one-snapshot ray table from (amplitude, phase, delay[, is_los]) tuples.

    Angle columns default to zero; ``angles`` gives whole columns, one value
    per ray, by their ``RAY_COLUMNS`` names.  The snapshot sits at the
    altitude of ``psi_deg``; its ``psi_deg`` is the table's own derivation.
    """
    n = len(specs)
    columns = {name: angles.get(name, [0.0] * n) for name in RAY_COLUMNS}
    columns["amplitude"] = [spec[0] for spec in specs]
    columns["phase_rad"] = [spec[1] for spec in specs]
    columns["delay_s"] = [spec[2] for spec in specs]
    is_los = [len(spec) > 3 and spec[3] for spec in specs]
    altitude = distance_km * math.sin(math.radians(psi_deg))
    return RayTable(columns, is_los, [0, n], [altitude], distance_km)


def rows_of(columns: dict) -> list[SimpleNamespace]:
    """The rows of a report's named columns, each cell an attribute."""
    return [SimpleNamespace(**dict(zip(columns, row))) for row in zip(*columns.values())]


@pytest.fixture
def two_ray_snapshot():
    return make_snapshot([(0.1, 0.0, 0.0, True), (0.1, 0.0, 1e-9)])


def assert_close(actual, expected, rel=1e-9, abs_tol=0.0):
    assert actual == pytest.approx(expected, rel=rel, abs=abs_tol), (
        f"{actual!r} != {expected!r} (rel={rel}, abs={abs_tol})"
    )


def db(x: float) -> float:
    return 10.0 * math.log10(x)


def allow_cpus(monkeypatch, n: int, quota_files=()) -> None:
    """Let the process run on n CPUs under the cgroup quota in quota_files, as far
    as the shared thread pool can tell (no quota by default)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(pool, "_CPU_QUOTA_FILES", quota_files)
