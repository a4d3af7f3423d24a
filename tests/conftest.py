import math
import os
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest

import chansim
from chansim.cli import main
from chansim.config import load_config
from chansim.errors import ConfigError
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


# The sys.path entry that holds the chansim this process imported: the
# source tree, or the installed package when pytest runs outside the checkout.
CHANSIM_ROOT = str(Path(chansim.__file__).resolve().parents[1])


def child_env(**variables: str) -> dict:
    """The environment, plus ``variables``, for a child Python that imports
    the chansim this process imported."""
    env = {**os.environ, **variables}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (CHANSIM_ROOT, os.environ.get("PYTHONPATH"))))
    return env


def tracemalloc_peak(call) -> int:
    """The ``tracemalloc`` peak, in bytes, of ``call()``, traced from its start."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_config_refused(tmp_path, capsys, text: str, match: str, key: str,
                          sub: str = "linkbudget", flags=()) -> None:
    """Config file ``text`` makes ``load_config`` raise a ConfigError matching
    ``match``, and ``chansim sub`` exit 2 with one stderr line naming ``key``
    and nothing written."""
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match=match):
        load_config(path)
    out = tmp_path / "o"
    assert main([sub, "--config", str(path), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert key in err and err.count("\n") == 1, err
    assert not out.exists()


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

