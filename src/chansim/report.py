"""Report generation: runs a subcommand over a pass and emits CSV + JSON.

Snapshots come from a trace file when one is given, otherwise from the
synthetic generator.  A run writes both its files to temp files before it
renames either into place, so a failed run never leaves partial output,
and all outputs are pure functions of (config, trace, seed).
"""

from __future__ import annotations

import json
import math
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from . import clustering, dispersion, ntn
from .config import DEFAULT_GEOMETRY, ScenarioConfig
from .errors import ConfigError
from .link_budget import fspl_db, sweep_pass
from .mpc import RayTable, k_factor, running_sum
from .synth import synth_scenario
from .traceio import _atomic_write, _csv_chunks, _fmt, load_trace


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


# Pieces of encoded JSON per write: single pieces are a few characters
# each, and writing them one by one is slower than joining them in batches.
_JSON_BATCH_PIECES = 4096


def _json_chunks(payload: dict):
    """``json.dumps(_json_safe(payload), indent=2)`` and a newline, a batch of
    encoded pieces at a time."""
    pieces = json.JSONEncoder(indent=2).iterencode(_json_safe(payload))
    while batch := list(islice(pieces, _JSON_BATCH_PIECES)):
        yield "".join(batch)
    yield "\n"


# The fading report's thread count: the count it was measured to gain from
# (2 vCPU).  Much of a fading row holds the interpreter lock, so threads
# beyond that are unmeasured and may only queue for it.
_FADING_THREADS = 2


def _row_seed(base_seed: int, index: int) -> int:
    # Stable per-snapshot stream so rows are reproducible in isolation.
    return base_seed * 1_000_003 + index


def gather_snapshots(config: ScenarioConfig, trace_path: str | Path | None) -> RayTable:
    if trace_path is not None:
        return load_trace(trace_path)
    return synth_scenario(
        config.geometry,
        config.fc_ghz,
        config.psi2(config.geometry.arc_radius_km),
        los_only=config.synth.los_only,
        max_extra_rays=config.synth.max_extra_rays,
        seed=config.seed,
    )


def _check_trace_radius(config: ScenarioConfig, table: RayTable) -> None:
    """Refuse a config whose own pass disagrees with the trace's arc radius."""
    radius = table.arc_radius_km
    if config.geometry.arc_radius_km != radius and config.geometry != DEFAULT_GEOMETRY:
        raise ConfigError(
            f"pass.arc_radius_km {config.geometry.arc_radius_km!r} conflicts with the "
            f"trace's arc_radius_km {radius!r}"
        )


def run_report(
    config: ScenarioConfig,
    subcommand: str,
    out_dir: str | Path,
    trace_path: str | Path | None = None,
) -> dict:
    """Run one subcommand, write its CSV and summary.json, return the summary.

    With a trace, the pass geometry (arc radius, so also the default
    shadowing threshold psi2) is the trace's; a config that sets a
    different ``pass.arc_radius_km`` is a ConfigError.
    """
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}; choose from {SUBCOMMANDS}")
    out = Path(out_dir)
    table = gather_snapshots(config, trace_path)
    if trace_path is not None:
        _check_trace_radius(config, table)
    table = table.sorted_by_altitude()
    summary: dict = {
        "subcommand": subcommand,
        "seed": config.seed,
        "arc_radius_km": table.arc_radius_km,
        "fc_ghz": config.fc_ghz,
        "n_snapshots": len(table),
        "source": "trace" if trace_path is not None else "synthetic",
    }
    columns, extra = _BUILDERS[subcommand](config, table)
    summary.update(extra)
    _atomic_write({out / f"{subcommand}.csv": _csv_chunks(columns),
                   out / "summary.json": _json_chunks(summary)})
    return summary


def _pass_columns(table: RayTable) -> dict[str, list]:
    return {"psi_deg": table.psi_deg.tolist(), "altitude_km": table.altitude_km.tolist()}


def _report_linkbudget(config: ScenarioConfig, table: RayTable):
    extra = {
        "weather": sorted(config.weather),
        "misalign_deg": [config.misalign_az_deg, config.misalign_el_deg],
        "p_tx_dbm": config.p_tx_dbm,
    }
    return sweep_pass(config, table), extra


def _report_fading(config: ScenarioConfig, table: RayTable):
    # Imported here so that only this subcommand pays scipy's and the pool's
    # import time.
    from concurrent.futures import ThreadPoolExecutor

    from . import fading

    psi2 = config.psi2(table.arc_radius_km)
    regimes = fading.select_regime(table, psi2)
    columns = {
        **_pass_columns(table),
        "n_mpcs": table.counts.tolist(),
        "regime": [regime.value for regime in regimes],
        "k_direct": k_factor(table, designate_strongest=config.fading.designate_strongest_los),
        "omega": table.reduce(running_sum, table.amplitude * table.amplitude).tolist(),
    }
    # The pool runs fading.fit_row, whose rows depend only on their own seeds
    # and share no state.  scipy's i0e releases the GIL, so rows overlap on
    # threads; they keep their order, so outputs equal the serial run's.
    seeds = [_row_seed(config.seed, idx) for idx in range(len(regimes))]
    with ThreadPoolExecutor(max_workers=_FADING_THREADS) as pool:
        rows = list(pool.map(fading.fit_row, regimes, columns["k_direct"], columns["omega"],
                             seeds, repeat(config.fading.fit_samples)))
    for i, key in enumerate(("k_fit", "m_fit", "omega_fit", "n_samples")):
        columns[key] = [row[i] for row in rows]
    # The summary repeats these columns per snapshot, in this key order.
    keys = ("psi_deg", "regime", "k_direct", "k_fit", "m_fit", "omega_fit", "n_samples")
    fits = [dict(zip(keys, row)) for row in zip(*(columns[key] for key in keys))]
    return columns, {"psi2_deg": psi2.psi_deg, "fits": fits}


def _cdf_entry(values: list[float]) -> dict:
    finite = sorted(v for v in values if math.isfinite(v))
    n = len(values)
    return {
        "values": finite,
        "cum_prob": [(i + 1) / n for i in range(len(finite))],
        "n_unbounded": sum(1 for v in values if math.isinf(v)),
    }


def _report_spreads(config: ScenarioConfig, table: RayTable):
    spreads = dispersion.spread_report(table)
    columns = {**_pass_columns(table), "n_mpcs": table.counts.tolist(), **spreads}
    cdf = {
        name: _cdf_entry(values)
        for name, values in spreads.items()
        if name != "mean_excess_delay_s"
    }
    return columns, {"cdf": cdf}


def _per_ray_cells(values: np.ndarray, counts: list[int]) -> list[str]:
    """Each snapshot's value formatted once, its cell shared by the snapshot's rays."""
    return [cell for cell, n in zip(map(_fmt, values.tolist()), counts) for _ in range(n)]


def _report_cluster(config: ScenarioConfig, table: RayTable):
    labels = clustering.cluster_snapshot(
        table, xi=config.clustering.xi, zeta=config.clustering.zeta
    )
    counts = table.counts.tolist()
    columns = {
        "psi_deg": _per_ray_cells(table.psi_deg, counts),
        "altitude_km": _per_ray_cells(table.altitude_km, counts),
        "mpc_index": [i for n in counts for i in range(n)],
        "delay_s": table.delay_s,
        "label": labels,
    }
    # Clusters are numbered from 0 and noise is -1: a count is the largest label plus one.
    n_clusters = table.reduce(lambda block: block.max(axis=1) + 1, labels).tolist()
    per_snapshot = [
        {"psi_deg": psi_deg, "n_mpcs": n_mpcs, "n_clusters": n}
        for psi_deg, n_mpcs, n in zip(table.psi_deg.tolist(), counts, n_clusters)
    ]
    extra = {
        "xi": config.clustering.xi,
        "zeta": config.clustering.zeta,
        "per_snapshot": per_snapshot,
        "total_clusters": sum(n_clusters),
    }
    return columns, extra


def _report_ntn(config: ScenarioConfig, table: RayTable):
    gains_db = config.sat_antenna.peak_gain_dbi + config.gs_antenna.peak_gain_dbi
    base = fspl_db(table.arc_radius_km, config.fc_ghz)
    mean = base - gains_db
    names = ntn.select_profile(table.psi_deg, config.ntn.psi1_deg, config.ntn.psi2_deg)
    sigmas = [config.ntn.sigma_db[name] for name in names]
    n = len(table)
    seeds = [_row_seed(config.seed, idx) for idx in range(n)]
    columns = {
        **_pass_columns(table),
        "profile": names,
        "fspl_db": [base] * n,
        "ntn_mean_db": [mean] * n,
        "ntn_lo_db": [mean - sigma for sigma in sigmas],
        "ntn_hi_db": [mean + sigma for sigma in sigmas],
        "ntn_draw_db": ntn.ntn_attenuation_db(
            table.arc_radius_km, config.fc_ghz, sigmas, seeds, antenna_gains_db=gains_db
        ),
    }
    extra = {
        "psi1_deg": config.ntn.psi1_deg,
        "psi2_deg": config.ntn.psi2_deg,
        "sigma_db": dict(sorted(config.ntn.sigma_db.items())),
        "antenna_gains_db": gains_db,
    }
    return columns, extra


_BUILDERS = {
    "linkbudget": _report_linkbudget,
    "fading": _report_fading,
    "spreads": _report_spreads,
    "cluster": _report_cluster,
    "ntn-compare": _report_ntn,
}
SUBCOMMANDS = tuple(_BUILDERS)
