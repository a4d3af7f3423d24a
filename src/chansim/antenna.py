"""Antenna gain patterns, beam misalignment loss, and ray spatial filtering.

Three pattern models are provided.  ``isotropic`` has 0 dBi everywhere.
``single-element`` uses a Gaussian main lobe, peak - 12 (offset/HPBW)^2
dB, clipped at a configurable back-lobe floor.  ``phased-array`` uses
the uniform rectangular array factor with progressive-phase steering,
separable in the azimuth and elevation planes; steering away from
broadside broadens the beam through the sine-space projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import check_fields
from .mpc import RayTable

KIND_ISOTROPIC = "isotropic"
KIND_SINGLE = "single-element"
KIND_ARRAY = "phased-array"
_KINDS = (KIND_ISOTROPIC, KIND_SINGLE, KIND_ARRAY)

DEFAULT_PATTERN_FLOOR_DB = 30.0


@dataclass(frozen=True)
class AntennaModel:
    """Immutable antenna description with its current steering state.

    ``steer_az_deg``/``steer_el_deg`` give the boresight (single element,
    mechanical) or the electronic beam pointing (array) in the same
    angle convention as the ray angles they are compared against.
    """

    kind: str = KIND_ISOTROPIC
    peak_gain_dbi: float = 0.0
    hpbw_deg: float | None = None
    nx: int = 1
    ny: int = 1
    spacing_wavelengths: float = 0.5
    steer_az_deg: float = 0.0
    steer_el_deg: float = 0.0
    floor_db: float = DEFAULT_PATTERN_FLOOR_DB

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind not in _KINDS:
            raise ValueError(f"antenna kind must be one of {_KINDS}")
        # gain_dbi divides by the HPBW squared, so the square may neither
        # underflow to 0 nor overflow.
        hpbw = self.hpbw_deg
        if self.kind == KIND_SINGLE and (hpbw is None or hpbw <= 0.0
                                         or not 0.0 < hpbw * hpbw < math.inf):
            raise ValueError("single-element antenna needs a positive HPBW whose square is "
                             f"positive and finite, got {hpbw!r}")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("element counts must be at least 1")
        if self.spacing_wavelengths <= 0.0:
            raise ValueError("element spacing must be positive")
        if self.floor_db <= 0.0:
            raise ValueError("pattern floor must be positive")
        # Ray elevations lie in [-90, 90], so every offset from such a pointing
        # lies in [-180, 180], the range gain_dbi takes.
        if not -90.0 <= self.steer_el_deg <= 90.0:
            raise ValueError(f"steer_el_deg must be in [-90, 90] deg, got {self.steer_el_deg}")

    def steered(self, az_deg: float, el_deg: float) -> "AntennaModel":
        """New model pointing at the given direction."""
        return replace(self, steer_az_deg=az_deg, steer_el_deg=el_deg)


def _wrap_deg(angle):
    """Wrap an angle difference into [-180, 180)."""
    return (angle + 180.0) % 360.0 - 180.0


def _af_plane_db(n: int, spacing: float, steer_deg: float, offset_deg: np.ndarray) -> np.ndarray:
    """Normalised uniform linear array factor in one plane, in dB (<= 0)."""
    u = np.sin(np.radians(steer_deg + offset_deg)) - math.sin(math.radians(steer_deg))
    x = math.pi * spacing * u
    sin_x = np.sin(x)
    # Main lobe or a grating direction: |AF| = n exactly.
    main_lobe = np.abs(sin_x) < 1e-15
    with np.errstate(divide="ignore", invalid="ignore"):
        af = np.abs(np.sin(n * x) / (n * sin_x))
        af_db = np.where(af == 0.0, -math.inf, 20.0 * np.log10(af))
    return np.where(main_lobe, 0.0, af_db)


def gain_dbi(model: AntennaModel, az_off_deg, el_off_deg):
    """Antenna gain at an offset from the current beam pointing, in dBi.

    Offsets are angles in the azimuth and elevation planes measured from
    the steered boresight, each in [-180, 180].  Scalars give a float,
    arrays an array of the broadcast shape.
    """
    az_off, el_off = np.broadcast_arrays(np.asarray(az_off_deg, dtype=float),
                                         np.asarray(el_off_deg, dtype=float))
    for off in (az_off, el_off):
        outside = ~((-180.0 <= off) & (off <= 180.0))
        if outside.any():
            raise ValueError(f"offset {float(off[outside].flat[0])} outside [-180, 180] deg")
    if model.kind == KIND_ISOTROPIC:
        gain = np.zeros_like(az_off)
    elif model.kind == KIND_SINGLE:
        ratio_sq = (az_off**2 + el_off**2) / model.hpbw_deg**2
        gain = model.peak_gain_dbi - np.minimum(12.0 * ratio_sq, model.floor_db)
    else:
        pattern_db = _af_plane_db(
            model.nx, model.spacing_wavelengths, model.steer_az_deg, az_off
        ) + _af_plane_db(model.ny, model.spacing_wavelengths, model.steer_el_deg, el_off)
        gain = model.peak_gain_dbi + np.maximum(pattern_db, -model.floor_db)
    return float(gain) if gain.ndim == 0 else gain


def misalignment_loss_db(model: AntennaModel, d_az_deg: float, d_el_deg: float) -> float:
    """Gain lost by pointing (d_az, d_el) away from the aligned boresight."""
    return gain_dbi(model, 0.0, 0.0) - gain_dbi(model, d_az_deg, d_el_deg)


def spatial_filter(
    table: RayTable, sat_model: AntennaModel, gs_model: AntennaModel
) -> RayTable:
    """Re-weight every ray by the antenna gains at its departure/arrival angles.

    Input amplitudes are assumed to be referenced to isotropic patterns;
    each amplitude is scaled by 10^((G_sat + G_gs)/20) with the gains
    evaluated at the ray's angular offset from each antenna's pointing.
    Angles are left untouched.
    """
    g_sat, g_gs = (gain_dbi(model, _wrap_deg(az - model.steer_az_deg), el - model.steer_el_deg)
                   for model, az, el in ((sat_model, table.aod_az_deg, table.aod_el_deg),
                                         (gs_model, table.aoa_az_deg, table.aoa_el_deg)))
    # An amplitude scaled beyond float range is infinite, which with_amplitude refuses.
    with np.errstate(over="ignore"):
        amplitude = table.amplitude * 10.0 ** ((g_sat + g_gs) / 20.0)
    return table.with_amplitude(amplitude)
