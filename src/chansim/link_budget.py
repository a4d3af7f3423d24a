"""Total link attenuation budget over a satellite pass.

For every snapshot the budget composes the coherent multipath power
with hardware loss, antenna misalignment loss and atmospheric loss:

    P_rx = P_coh - L_hd - L_am - L_atm        [dBm]
    L_tot = P_tx - P_rx                        [dB]

A free-space path loss baseline is carried alongside every row for
comparison plots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .antenna import AntennaModel, misalignment_loss_db, spatial_filter
from .atmosphere import DEFAULT_FC_GHZ, AtmosphereParams, total_atmospheric_db
from .geometry import (
    DEFAULT_ELEVATION_FLOOR_DEG,
    SLANT_AS_PRINTED,
    ElevationAngle,
    PassGeometry,
)
from .mpc import COHERENT_POWER_SUM, RayTable, coherent_power_dbm

SPEED_OF_LIGHT_M_S = 299792458.0

MISALIGN_AGGREGATE = "aggregate"
MISALIGN_PER_RAY = "per-ray"
_MISALIGN_MODES = (MISALIGN_AGGREGATE, MISALIGN_PER_RAY)


@dataclass(frozen=True)
class LinkBudgetRow:
    """One budget evaluation; field order is the report column order."""

    psi_deg: float
    altitude_km: float
    l_total_db: float
    p_rx_dbm: float
    p_coh_dbm: float
    l_hd_db: float
    l_am_db: float
    l_atm_db: float
    fspl_db: float


LINK_BUDGET_COLUMNS = tuple(f.name for f in fields(LinkBudgetRow))


def fspl_db(d_km: float, fc_ghz: float) -> float:
    """Free-space path loss 20 log10(4 pi d / lambda), in dB."""
    if d_km <= 0.0:
        raise ValueError("distance must be positive")
    if fc_ghz <= 0.0:
        raise ValueError("frequency must be positive")
    wavelength_m = SPEED_OF_LIGHT_M_S / (fc_ghz * 1e9)
    return 20.0 * math.log10(4.0 * math.pi * d_km * 1e3 / wavelength_m)


def sweep_pass(
    geometry: PassGeometry,
    table: RayTable,
    sat_antenna: AntennaModel,
    gs_antenna: AntennaModel,
    atmosphere: AtmosphereParams,
    weather: frozenset[str] | set[str] = frozenset(),
    misalignment: tuple[float, float] = (0.0, 0.0),
    p_tx_dbm: float = 30.0,
    l_hd_db: float = 1.5,
    coherent_mode: str = COHERENT_POWER_SUM,
    slant_mode: str = SLANT_AS_PRINTED,
    misalign_mode: str = MISALIGN_AGGREGATE,
    floor_deg: float = DEFAULT_ELEVATION_FLOOR_DEG,
    fc_ghz: float = DEFAULT_FC_GHZ,
) -> list[LinkBudgetRow]:
    """Evaluate the budget of every snapshot of a pass, ordered by altitude.

    Misalignment (d_az, d_el) is applied either as a single aggregate
    term from the GS pattern (default) or by skewing the GS pointing
    before per-ray spatial filtering; the two modes are mutually
    exclusive so the loss is never double counted.
    """
    if misalign_mode not in _MISALIGN_MODES:
        raise ValueError(f"misalignment mode must be one of {_MISALIGN_MODES}")
    d_az, d_el = misalignment
    if misalign_mode == MISALIGN_PER_RAY:
        gs_used = gs_antenna.steered(
            gs_antenna.steer_az_deg + d_az, gs_antenna.steer_el_deg + d_el
        )
        l_am = 0.0
    else:
        gs_used = gs_antenna
        l_am = misalignment_loss_db(gs_antenna, d_az, d_el)

    filtered = spatial_filter(table, sat_antenna, gs_used)
    p_coh = coherent_power_dbm(filtered, mode=coherent_mode, p_tx_dbm=p_tx_dbm)
    free_space = fspl_db(table.arc_radius_km, fc_ghz)
    rows = []
    for psi_deg, altitude_km, p_coh_dbm in zip(
        table.psi_deg.tolist(), table.altitude_km.tolist(), p_coh
    ):
        l_atm = total_atmospheric_db(
            ElevationAngle(psi_deg),
            atmosphere,
            geometry,
            weather=weather,
            slant_mode=slant_mode,
            floor_deg=floor_deg,
            fc_ghz=fc_ghz,
        )
        p_rx = p_coh_dbm - l_hd_db - l_am - l_atm
        rows.append(
            LinkBudgetRow(
                psi_deg=psi_deg,
                altitude_km=altitude_km,
                l_total_db=p_tx_dbm - p_rx,
                p_rx_dbm=p_rx,
                p_coh_dbm=p_coh_dbm,
                l_hd_db=l_hd_db,
                l_am_db=l_am,
                l_atm_db=l_atm,
                fspl_db=free_space,
            )
        )
    rows.sort(key=lambda row: row.altitude_km)
    return rows
