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
from typing import TYPE_CHECKING

from .antenna import misalignment_loss_db, spatial_filter
from .atmosphere import total_atmospheric_db
from .mpc import RayTable, coherent_power_dbm

if TYPE_CHECKING:  # config imports this module
    from .config import ScenarioConfig

SPEED_OF_LIGHT_M_S = 299792458.0

MISALIGN_AGGREGATE = "aggregate"
MISALIGN_PER_RAY = "per-ray"
MISALIGN_MODES = (MISALIGN_AGGREGATE, MISALIGN_PER_RAY)


def wavelength_m(fc_ghz: float) -> float:
    """Carrier wavelength c / fc, in metres, refused unless it is positive and finite."""
    # Written so that NaN fails them.
    if not 0.0 < fc_ghz < math.inf:
        raise ValueError(f"frequency must be positive and finite, got {fc_ghz}")
    wavelength = SPEED_OF_LIGHT_M_S / (fc_ghz * 1e9)
    if not 0.0 < wavelength < math.inf:
        raise ValueError(f"frequency {fc_ghz} GHz has no positive finite wavelength in metres")
    return wavelength


def fspl_db(d_km: float, fc_ghz: float) -> float:
    """Free-space path loss 20 log10(4 pi d / lambda), in dB."""
    # Written so that NaN fails it.
    if not d_km > 0.0:
        raise ValueError(f"distance must be positive, got {d_km}")
    return 20.0 * math.log10(4.0 * math.pi * d_km * 1e3 / wavelength_m(fc_ghz))


def sweep_pass(config: ScenarioConfig, table: RayTable) -> dict[str, list]:
    """The budget of every snapshot of a pass as named columns, in altitude order.

    Misalignment (d_az, d_el) is applied either as a single aggregate
    term from the GS pattern (default) or by skewing the GS pointing
    before per-ray spatial filtering; the two modes are mutually
    exclusive so the loss is never double counted.
    """
    table = table.sorted_by_altitude()
    gs = config.gs_antenna
    d_az, d_el = config.misalign_az_deg, config.misalign_el_deg
    if config.misalign_mode == MISALIGN_PER_RAY:
        gs = gs.steered(gs.steer_az_deg + d_az, gs.steer_el_deg + d_el)
        l_am = 0.0
    else:
        l_am = misalignment_loss_db(gs, d_az, d_el)

    filtered = spatial_filter(table, config.sat_antenna, gs)
    p_coh = coherent_power_dbm(filtered, mode=config.coherent_mode, p_tx_dbm=config.p_tx_dbm)
    l_atm = total_atmospheric_db(
        table.psi_deg,
        config.atmosphere,
        config.geometry.gs_height_km,
        weather=config.weather,
        slant_mode=config.slant_mode,
        floor_deg=config.elevation_floor_deg,
        fc_ghz=config.fc_ghz,
    )
    p_rx = [p - config.l_hd_db - l_am - atm for p, atm in zip(p_coh, l_atm)]
    n = len(table)
    return {
        "psi_deg": table.psi_deg.tolist(),
        "altitude_km": table.altitude_km.tolist(),
        "l_total_db": [config.p_tx_dbm - p for p in p_rx],
        "p_rx_dbm": p_rx,
        "p_coh_dbm": p_coh,
        "l_hd_db": [config.l_hd_db] * n,
        "l_am_db": [l_am] * n,
        "l_atm_db": l_atm,
        "fspl_db": [fspl_db(table.arc_radius_km, config.fc_ghz)] * n,
    }
