"""Report generation: runs a subcommand over a pass and emits CSV + JSON.

Snapshots come from a trace file when one is given, otherwise from the
synthetic generator.  Every writer goes through write-then-rename so a
failed run never leaves partial output, and all outputs are pure
functions of (config, trace, seed).
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

from . import clustering, dispersion, ntn
from .config import DEFAULT_GEOMETRY, ScenarioConfig
from .errors import ConfigError
from .geometry import ElevationAngle, PassGeometry
from .link_budget import LINK_BUDGET_COLUMNS, fspl_db, sweep_pass
from .mpc import RayTable, k_factor, running_sum
from .synth import synth_scenario
from .traceio import _atomic_write_text, load_trace

SUBCOMMANDS = ("linkbudget", "fading", "spreads", "cluster", "ntn-compare")

FADING_COLUMNS = (
    "psi_deg",
    "altitude_km",
    "n_mpcs",
    "regime",
    "k_direct",
    "omega",
    "k_fit",
    "m_fit",
    "omega_fit",
    "n_samples",
)

SPREADS_COLUMNS = (
    "psi_deg",
    "altitude_km",
    "n_mpcs",
    "rms_ds_s",
    "mean_excess_delay_s",
    "az_spread_sat_deg",
    "el_spread_sat_deg",
    "az_spread_gs_deg",
    "el_spread_gs_deg",
)

CLUSTER_COLUMNS = ("psi_deg", "altitude_km", "mpc_index", "delay_s", "label")

NTN_COLUMNS = (
    "psi_deg",
    "altitude_km",
    "profile",
    "fspl_db",
    "ntn_mean_db",
    "ntn_lo_db",
    "ntn_hi_db",
    "ntn_draw_db",
)

UNBOUNDED = "unbounded"


def _fmt(value) -> str:
    if value is None:
        return "undefined"
    if isinstance(value, float):
        if math.isinf(value):
            return UNBOUNDED if value > 0 else "-inf"
        return repr(float(value))
    return str(value)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _write_csv(path: Path, columns: tuple[str, ...], rows: list[list]) -> None:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write_text(path, json.dumps(_json_safe(payload), indent=2) + "\n")


def _row_seed(base_seed: int, index: int) -> int:
    # Stable per-snapshot stream so rows are reproducible in isolation.
    return base_seed * 1_000_003 + index


def gather_snapshots(config: ScenarioConfig, trace_path: str | Path | None) -> RayTable:
    if trace_path is not None:
        return load_trace(trace_path)
    return synth_scenario(
        config.geometry,
        config.fc_ghz,
        config.psi2(),
        los_only=config.synth.los_only,
        max_extra_rays=config.synth.max_extra_rays,
        seed=config.seed,
    )


def _follow_trace(config: ScenarioConfig, table: RayTable) -> ScenarioConfig:
    """The config with the pass geometry of a trace: its arc radius and altitudes."""
    radius = table.arc_radius_km
    if config.geometry.arc_radius_km == radius:
        return config
    if config.geometry is not DEFAULT_GEOMETRY:
        raise ConfigError(
            f"pass.arc_radius_km {config.geometry.arc_radius_km!r} conflicts with the "
            f"trace's arc_radius_km {radius!r}"
        )
    geometry = PassGeometry(
        arc_radius_km=radius,
        gs_height_km=config.geometry.gs_height_km,
        altitudes_km=tuple(table.altitude_km.tolist()),
    )
    return replace(config, geometry=geometry)


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
        config = _follow_trace(config, table)
    table = table.sorted_by_altitude()
    summary: dict = {
        "subcommand": subcommand,
        "seed": config.seed,
        "arc_radius_km": config.geometry.arc_radius_km,
        "fc_ghz": config.fc_ghz,
        "n_snapshots": len(table),
        "source": "trace" if trace_path is not None else "synthetic",
    }
    builder = {
        "linkbudget": _report_linkbudget,
        "fading": _report_fading,
        "spreads": _report_spreads,
        "cluster": _report_cluster,
        "ntn-compare": _report_ntn,
    }[subcommand]
    columns, rows, extra = builder(config, table)
    summary.update(extra)
    _write_csv(out / f"{subcommand}.csv", columns, rows)
    _write_json(out / "summary.json", summary)
    return summary


def _report_linkbudget(config: ScenarioConfig, table: RayTable):
    budget_rows = sweep_pass(
        config.geometry,
        table,
        config.sat_antenna,
        config.gs_antenna,
        config.atmosphere,
        weather=config.weather,
        misalignment=(config.misalign_az_deg, config.misalign_el_deg),
        p_tx_dbm=config.p_tx_dbm,
        l_hd_db=config.l_hd_db,
        coherent_mode=config.coherent_mode,
        slant_mode=config.slant_mode,
        misalign_mode=config.misalign_mode,
        floor_deg=config.elevation_floor_deg,
        fc_ghz=config.fc_ghz,
    )
    rows = [[getattr(r, c) for c in LINK_BUDGET_COLUMNS] for r in budget_rows]
    extra = {
        "weather": sorted(config.weather),
        "misalign_deg": [config.misalign_az_deg, config.misalign_el_deg],
        "p_tx_dbm": config.p_tx_dbm,
    }
    return LINK_BUDGET_COLUMNS, rows, extra


def _report_fading(config: ScenarioConfig, table: RayTable):
    # Imported here so that only this subcommand pays scipy's import time.
    from . import fading

    psi2 = config.psi2()
    regimes = fading.select_regime(table, psi2)
    k_directs = k_factor(table, designate_strongest=config.fading.designate_strongest_los)
    omegas = table.reduce(running_sum, table.amplitude * table.amplitude).tolist()
    rows = []
    fits = []
    for idx, (psi_deg, altitude_km, n_mpcs, regime, k_direct, omega) in enumerate(zip(
        table.psi_deg.tolist(), table.altitude_km.tolist(), table.counts.tolist(),
        regimes, k_directs, omegas,
    )):
        k_fit = m_fit = omega_fit = None
        n_samples = 0
        fittable = (
            regime is not fading.FadingRegime.DETERMINISTIC_LOS
            and k_direct is not None
            and math.isfinite(k_direct)
        )
        if fittable:
            n_samples = config.fading.fit_samples
            if regime is fading.FadingRegime.RICIAN:
                params = fading.RicianParams(k=k_direct, omega=omega)
            else:
                # m = 1, the shape that fading.fit pins.
                params = fading.ShadowedRicianParams(k=k_direct, m=1.0, omega=omega)
            draws = fading.sample(params, n_samples, _row_seed(config.seed, idx))
            fitted = fading.fit(draws, regime)
            k_fit = fitted.k
            omega_fit = fitted.omega
            m_fit = getattr(fitted, "m", None)
        rows.append(
            [
                psi_deg,
                altitude_km,
                n_mpcs,
                regime.value,
                k_direct,
                omega,
                k_fit,
                m_fit,
                omega_fit,
                n_samples,
            ]
        )
        fits.append(
            {
                "psi_deg": psi_deg,
                "regime": regime.value,
                "k_direct": k_direct,
                "k_fit": k_fit,
                "m_fit": m_fit,
                "omega_fit": omega_fit,
                "n_samples": n_samples,
            }
        )
    return FADING_COLUMNS, rows, {"psi2_deg": psi2.psi_deg, "fits": fits}


def _cdf_entry(values: list[float]) -> dict:
    finite = sorted(v for v in values if math.isfinite(v))
    n = len(values)
    return {
        "values": finite,
        "cum_prob": [(i + 1) / n for i in range(len(finite))],
        "n_unbounded": sum(1 for v in values if math.isinf(v)),
    }


def _report_spreads(config: ScenarioConfig, table: RayTable):
    reports = dispersion.spread_report(table)
    rows = [
        [
            psi_deg,
            altitude_km,
            n_mpcs,
            rep.rms_ds_s,
            rep.mean_excess_delay_s,
            rep.az_spread_sat_deg,
            rep.el_spread_sat_deg,
            rep.az_spread_gs_deg,
            rep.el_spread_gs_deg,
        ]
        for psi_deg, altitude_km, n_mpcs, rep in zip(
            table.psi_deg.tolist(), table.altitude_km.tolist(), table.counts.tolist(), reports
        )
    ]
    cdf = {
        "rms_ds_s": _cdf_entry([r.rms_ds_s for r in reports]),
        "az_spread_sat_deg": _cdf_entry([r.az_spread_sat_deg for r in reports]),
        "el_spread_sat_deg": _cdf_entry([r.el_spread_sat_deg for r in reports]),
        "az_spread_gs_deg": _cdf_entry([r.az_spread_gs_deg for r in reports]),
        "el_spread_gs_deg": _cdf_entry([r.el_spread_gs_deg for r in reports]),
    }
    return SPREADS_COLUMNS, rows, {"cdf": cdf}


def _report_cluster(config: ScenarioConfig, table: RayTable):
    results = clustering.cluster_snapshot(
        table, xi=config.clustering.xi, zeta=config.clustering.zeta
    )
    delays = table.delay_s.tolist()
    offsets = table.offsets.tolist()
    rows = []
    per_snapshot = []
    for psi_deg, altitude_km, result, start in zip(
        table.psi_deg.tolist(), table.altitude_km.tolist(), results, offsets
    ):
        for i, label in enumerate(result.labels):
            rows.append([psi_deg, altitude_km, i, delays[start + i], label])
        per_snapshot.append(
            {
                "psi_deg": psi_deg,
                "n_mpcs": len(result.labels),
                "n_clusters": result.n_clusters,
            }
        )
    extra = {
        "xi": config.clustering.xi,
        "zeta": config.clustering.zeta,
        "per_snapshot": per_snapshot,
        "total_clusters": sum(p["n_clusters"] for p in per_snapshot),
    }
    return CLUSTER_COLUMNS, rows, extra


def _report_ntn(config: ScenarioConfig, table: RayTable):
    gains_db = config.sat_antenna.peak_gain_dbi + config.gs_antenna.peak_gain_dbi
    base = fspl_db(table.arc_radius_km, config.fc_ghz)
    mean = base - gains_db
    rows = []
    for idx, (psi_deg, altitude_km) in enumerate(
        zip(table.psi_deg.tolist(), table.altitude_km.tolist())
    ):
        psi = ElevationAngle(psi_deg)
        name = ntn.select_profile(psi, config.ntn.psi1_deg, config.ntn.psi2_deg)
        sigma = config.ntn.sigma_db[name]
        draw = ntn.ntn_attenuation_db(
            psi,
            table.arc_radius_km,
            config.fc_ghz,
            sigma,
            antenna_gains_db=gains_db,
            seed=_row_seed(config.seed, idx),
        )
        rows.append(
            [
                psi_deg,
                altitude_km,
                name,
                base,
                mean,
                mean - sigma,
                mean + sigma,
                draw,
            ]
        )
    extra = {
        "psi1_deg": config.ntn.psi1_deg,
        "psi2_deg": config.ntn.psi2_deg,
        "sigma_db": dict(sorted(config.ntn.sigma_db.items())),
        "antenna_gains_db": gains_db,
    }
    return NTN_COLUMNS, rows, extra
