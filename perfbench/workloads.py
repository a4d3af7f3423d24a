"""Seeded inputs of the benchmark workloads.

Every file written here is a pure function of (workload, seed, smoke):
configs are YAML scenario files and the dense workload also gets a
``chansim-trace v1`` file.  Only plain Python floats are written, since a
numpy scalar would print as ``np.float64(...)`` and the trace loader
rejects it.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import yaml

SPEED_OF_LIGHT_M_S = 299792458.0
FC_GHZ = 10.0

LINK_ANTENNAS = {
    "satellite": {"kind": "phased-array", "peak_gain_dbi": 20.0, "nx": 8, "ny": 8},
    "ground": {"kind": "single-element", "peak_gain_dbi": 35.0, "hpbw_deg": 2.0},
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    subcommands: tuple[str, ...]
    altitudes: int
    smoke_altitudes: int
    uses_trace: bool = False
    # Statements the traced run must confirm for ``why`` to hold; each maps
    # the per-layer medians to True or False.
    confirms: dict[str, Callable[[dict[str, float]], bool]] = field(default_factory=dict)


def _fading_share(v: dict[str, float]) -> float:
    fading_self = sum(x for k, x in v.items() if k.startswith("fading.") and k.endswith(".self_s"))
    return fading_self / v["trace.wall_s"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long-pass",
            "5000 synthetic snapshots of ~2.4 rays: per-snapshot overhead (objects, "
            "validation, numpy on tiny arrays) and the YAML parse dominate; no trace, no fading",
            ("linkbudget", "spreads", "cluster", "ntn-compare"),
            altitudes=5000,
            smoke_altitudes=50,
            confirms={
                "build_features self time exceeds dbscan's": lambda v: (
                    v["clustering.build_features.self_s"] > v["clustering.dbscan.self_s"]),
                "load_trace is never called": lambda v: v["traceio.load_trace.calls"] == 0,
            },
        ),
        Workload(
            "dense-trace",
            "100 snapshots x 300 rays read from a trace: per-ray work (trace load, DBSCAN) "
            "dominates, the other mode branches run, and synth is never called",
            ("linkbudget", "spreads", "cluster"),
            altitudes=100,
            smoke_altitudes=5,
            uses_trace=True,
            confirms={
                "dbscan self time exceeds build_features'": lambda v: (
                    v["clustering.dbscan.self_s"] > v["clustering.build_features.self_s"]),
                "synth_scenario is never called": lambda v: v["synth.synth_scenario.calls"] == 0,
            },
        ),
        Workload(
            "fading-pass",
            "100-altitude default pass, fading only: shadowed m = 1 fits through "
            "quadrature masses dominate; every layer but synth is bypassed",
            ("fading",),
            altitudes=100,
            smoke_altitudes=10,
            confirms={
                "fading spans cover most of the traced wall time": lambda v: _fading_share(v) > 0.5,
            },
        ),
    )
}

DENSE_ARC_KM = 500.0
DENSE_RAYS = 300
DENSE_SMOKE_RAYS = 30
DENSE_CLUSTERS = 8


def _even_altitudes(arc_km: float, n: int) -> list[float]:
    return [arc_km * (i + 1) / n for i in range(n)]


def scenario(workload: Workload, seed: int, smoke: bool) -> dict:
    """Scenario mapping for the workload, as written to its YAML file."""
    n = workload.smoke_altitudes if smoke else workload.altitudes
    if workload.name == "long-pass":
        return {
            "pass": {"arc_radius_km": 400.0, "gs_height_km": 0.023,
                     "altitudes_km": _even_altitudes(400.0, n)},
            "antennas": LINK_ANTENNAS,
            "weather": ["rain", "clouds", "snow"],
            "misalign_az_deg": 0.3,
            "misalign_el_deg": 0.2,
            # The lowest sample sits at ~0.01 deg; the default 0.5 deg floor
            # would refuse the weather terms there.
            "elevation_floor_deg": 0.01,
            "seed": seed,
        }
    if workload.name == "dense-trace":
        return {
            "pass": {"arc_radius_km": DENSE_ARC_KM, "gs_height_km": 0.023,
                     "altitudes_km": _even_altitudes(DENSE_ARC_KM, n)},
            "antennas": LINK_ANTENNAS,
            "weather": ["rain"],
            "misalign_az_deg": 0.3,
            "misalign_el_deg": 0.2,
            "modes": {"coherent": "phasor-sum", "slant": "itu-piecewise",
                      "misalignment": "per-ray"},
            "seed": seed,
        }
    return {
        "pass": {"arc_radius_km": 400.0, "gs_height_km": 0.023,
                 "altitudes_km": _even_altitudes(400.0, n)},
        "seed": seed,
    }


def _trace_rows(seed: int, n_snapshots: int, n_rays: int) -> list[str]:
    """Rows of a dense trace: a LOS ray plus NLOS rays in delay/angle clusters."""
    rng = random.Random(seed)
    d_m = DENSE_ARC_KM * 1e3
    los_amp = SPEED_OF_LIGHT_M_S / (FC_GHZ * 1e9) / (4.0 * math.pi * d_m)
    los_delay = d_m / SPEED_OF_LIGHT_M_S
    rows = []
    for altitude in _even_altitudes(DENSE_ARC_KM, n_snapshots):
        psi = math.degrees(math.asin(altitude / DENSE_ARC_KM))
        rows.append((altitude, los_amp, rng.uniform(0.0, 2.0 * math.pi), los_delay,
                     180.0, -psi, 0.0, psi, 0))
        centres = [
            (rng.uniform(20e-9, 800e-9), rng.uniform(0.0, 360.0), rng.uniform(-89.0, 89.0),
             rng.uniform(0.0, 360.0), rng.uniform(-10.0, 60.0), rng.uniform(0.01, 0.3))
            for _ in range(DENSE_CLUSTERS)
        ]
        for j in range(n_rays - 1):
            excess, dep_az, dep_el, arr_az, arr_el, rel = centres[j % DENSE_CLUSTERS]
            rows.append((
                altitude,
                los_amp * rel * rng.uniform(0.5, 1.0),
                rng.uniform(0.0, 2.0 * math.pi),
                los_delay + excess + abs(rng.gauss(0.0, 2e-9)),
                (dep_az + rng.gauss(0.0, 0.3)) % 360.0,
                max(-90.0, min(90.0, dep_el + rng.gauss(0.0, 0.3))),
                (arr_az + rng.gauss(0.0, 0.5)) % 360.0,
                max(-90.0, min(90.0, arr_el + rng.gauss(0.0, 0.5))),
                1,
            ))
    return [",".join(repr(v) for v in row) for row in rows]


TRACE_COLUMNS = ("altitude_km,amplitude,phase_rad,delay_s,aod_az_deg,aod_el_deg,"
                 "aoa_az_deg,aoa_el_deg,n_interactions")


def write_inputs(workload: Workload, seed: int, smoke: bool, work_dir: Path) -> dict:
    """Write the workload's input files; return their paths and sizes."""
    work_dir.mkdir(parents=True, exist_ok=True)
    config_path = work_dir / "scenario.yaml"
    config_path.write_text(
        yaml.safe_dump(scenario(workload, seed, smoke), default_flow_style=None, sort_keys=False),
        encoding="utf-8",
    )
    inputs = {"config": config_path, "trace": None, "trace_bytes": 0}
    if workload.uses_trace:
        n = workload.smoke_altitudes if smoke else workload.altitudes
        rays = DENSE_SMOKE_RAYS if smoke else DENSE_RAYS
        text = "\n".join(
            [f"# chansim-trace v1 arc_radius_km={DENSE_ARC_KM!r} amplitude=linear", TRACE_COLUMNS]
            + _trace_rows(seed, n, rays)
        ) + "\n"
        trace_path = work_dir / "dense.trace.csv"
        trace_path.write_text(text, encoding="utf-8")
        inputs["trace"] = trace_path
        inputs["trace_bytes"] = len(text.encode("utf-8"))
    return inputs
