"""The shipped CLI, ``python -m chansim.cli``, each run in a fresh process.

Only what no in-process test can see is checked here: runs in processes
with different string-hash seeds agree, a child held to one CPU writes
the unpinned run's bytes, and a bad trace leaves one stderr line with no
traceback or warning (pytest's warning capture hides warnings from runs
in its own process).  Each child runs in its own directory under
``tmp_path`` and imports the chansim this module imported: the source
tree under ``PYTHONPATH=src``, the installed package when pytest runs
from outside the checkout.
"""

from __future__ import annotations

import subprocess
import sys
from functools import cache
from pathlib import Path
from typing import NamedTuple

import pytest

from chansim import ScenarioConfig, save_trace
from chansim.report import SUBCOMMANDS, gather_snapshots
from conftest import child_env

# linkbudget runs under every weather term, so its summary lists a set of three.
FLAGS = {"linkbudget": ("--rain", "--clouds", "--snow")}

# The CLI in a child that first holds itself, and so its thread pool, to one CPU.
PINNED_CLI = """
import os, runpy
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
assert len(os.sched_getaffinity(0)) == 1
runpy.run_module("chansim.cli", run_name="__main__", alter_sys=True)
"""

COLUMN_ROW = ("altitude_km,amplitude,phase_rad,delay_s,aod_az_deg,aod_el_deg,"
              "aoa_az_deg,aoa_el_deg,n_interactions")


class Run(NamedTuple):
    code: int
    stdout: str
    stderr: str
    outputs: dict[str, bytes]


def python(cwd: Path, args: list[str], hash_seed: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          env=child_env(PYTHONHASHSEED=str(hash_seed)), timeout=300)


def run_cli(cwd: Path, *args: str, hash_seed: int = 0, pinned: bool = False) -> Run:
    """``chansim <args> --out out`` in a fresh process in ``cwd`` under
    ``PYTHONHASHSEED=hash_seed``, and the files it wrote."""
    entry = ["-c", PINNED_CLI] if pinned else ["-m", "chansim.cli"]
    done = python(cwd, [*entry, *args, "--out", "out"], hash_seed)
    out = cwd / "out"
    outputs = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return Run(done.returncode, done.stdout, done.stderr, outputs)


def save_default_pass(path: Path) -> Path:
    save_trace(gather_snapshots(ScenarioConfig(), None), path)
    return path


@pytest.fixture(scope="module")
def other_hash_seed(tmp_path_factory) -> int:
    """A PYTHONHASHSEED under which a set of the three weather terms iterates
    in another order than under 0 (2 on CPython 3.11, where 1 gives the same)."""
    cwd = tmp_path_factory.mktemp("hash-seeds")
    weather = ["-c", "print(list(frozenset({'rain', 'clouds', 'snow'})))"]
    first = python(cwd, weather, 0).stdout
    return next(seed for seed in range(1, 100) if python(cwd, weather, seed).stdout != first)


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    """Each subcommand's run on the default synthetic pass, made once a module."""
    @cache
    def run(sub: str) -> Run:
        return run_cli(tmp_path_factory.mktemp(sub), sub, *FLAGS.get(sub, ()))
    return run


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_saved_trace_run_in_another_process_agrees(tmp_path, synthetic, other_hash_seed, sub):
    save_default_pass(tmp_path / "pass.trace.csv")
    traced = run_cli(tmp_path, sub, "--trace", "pass.trace.csv", *FLAGS.get(sub, ()),
                     hash_seed=other_hash_seed)
    synth = synthetic(sub)
    for run in (synth, traced):
        assert run.code == 0, run.stderr
        assert list(run.outputs) == [f"{sub}.csv", "summary.json"]
        # A numpy scalar's repr (np.float64(...)) must never reach an output.
        assert "np." not in run.stdout
        assert not [name for name, data in run.outputs.items() if b"np." in data]
    assert traced.stdout == synth.stdout
    assert traced.outputs[f"{sub}.csv"] == synth.outputs[f"{sub}.csv"]
    # Only the source tells the runs' summaries apart.
    source = b'"source": "synthetic"', b'"source": "trace"'
    assert traced.outputs["summary.json"] == synth.outputs["summary.json"].replace(*source)


def test_fading_on_one_cpu_writes_the_pooled_bytes(tmp_path, synthetic):
    pinned = run_cli(tmp_path, "fading", pinned=True)
    assert pinned.code == 0, pinned.stderr
    assert pinned.stdout == synthetic("fading").stdout
    assert pinned.outputs == synthetic("fading").outputs


def fault_trace(tmp_path: Path, name: str) -> Path:
    if name == "second-los":
        # The first snapshot's LOS ray (line 3) given twice.
        lines = save_default_pass(tmp_path / "pass.trace.csv").read_text().splitlines()
        lines = [*lines[:3], lines[2]]
    else:
        header = "# chansim-trace v1 arc_radius_km=400.0 amplitude="
        lines = {
            # A dBm power beyond float range (line 3), then a bad row.
            "dbm-overflow": [f"{header}dbm p_tx_dbm=30.0", COLUMN_ROW,
                             "50.0,1e308,0.0,0.001,180.0,-7.0,0.0,7.0,0", "50.0,1e-9"],
            "no-rows": [f"{header}linear", COLUMN_ROW],
            "inf-p-tx": [f"{header}dbm p_tx_dbm=inf", COLUMN_ROW,
                         "50.0,-134.49,0.0,0.001,180.0,-7.0,0.0,7.0,0",
                         "50.0,-140.0,0.0,0.002,180.0,-7.0,0.0,7.0,1"],
        }[name]
    path = tmp_path / f"{name}.trace.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


# Each fault trace and the start of what its one stderr line says of it.
FAULTS = {
    "second-los": "line 4: duplicate LOS ray for altitude 5.0 km",
    "dbm-overflow": "line 3: amplitude must be non-negative and finite, got inf",
    "no-rows": "line 2: trace file holds no rows",
    "inf-p-tx": "line 1: bad p_tx_dbm: must be finite, got inf",
}


@pytest.mark.parametrize("name", FAULTS)
def test_fault_trace_exits_3_with_one_stderr_line(tmp_path, name):
    trace = fault_trace(tmp_path, name).name
    run = run_cli(tmp_path, "linkbudget", "--trace", trace)
    assert run.code == 3, run.stderr
    assert "Traceback" not in run.stderr and "Warning" not in run.stderr
    [line] = run.stderr.splitlines()
    assert line.startswith(f"chansim: input error: {trace}: {FAULTS[name]}")
    assert run.stdout == "" and run.outputs == {}


def test_filtered_amplitude_overflow_leaves_one_stderr_line(tmp_path):
    # One amplitude of 1e308 is finite in the trace but not under a 20 dBi
    # ground antenna.  Which exit code names the fault is left open here.
    lines = save_default_pass(tmp_path / "pass.trace.csv").read_text().splitlines()
    altitude, _, rest = lines[2].split(",", 2)
    lines[2] = f"{altitude},1e308,{rest}"
    (tmp_path / "overflow.trace.csv").write_text("\n".join(lines) + "\n")
    (tmp_path / "ground.yaml").write_text(
        "antennas:\n  ground: {kind: single-element, peak_gain_dbi: 20.0, hpbw_deg: 10.0}\n")
    run = run_cli(tmp_path, "linkbudget", "--config", "ground.yaml",
                  "--trace", "overflow.trace.csv")
    assert run.code != 0
    assert "Traceback" not in run.stderr and "Warning" not in run.stderr
    [line] = run.stderr.splitlines()
    assert line.startswith("chansim: ")
    assert run.stdout == "" and run.outputs == {}
