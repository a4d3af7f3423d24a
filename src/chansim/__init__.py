"""chansim: elevation-aware LEO satellite-to-ground channel simulation.

Covers the downlink propagation chain for a circular overhead pass:
pass geometry, per-elevation multipath snapshots, small-scale fading
regimes, delay/angular dispersion, density-based multipath clustering,
weather and misalignment attenuation, full link budgets, and an
elevation-gated TDL comparison channel.
"""

from .antenna import AntennaModel, gain_dbi, misalignment_loss_db, spatial_filter
from .atmosphere import (
    AtmosphereParams,
    cloud_attenuation_db,
    rain_attenuation_db,
    snow_attenuation_db,
    total_atmospheric_db,
)
from .clustering import build_features, cluster_snapshot, dbscan
from .config import ScenarioConfig, load_config
from .dispersion import azimuth_spread, elevation_spread, spread_report
from .errors import ChansimError, ConfigError, ElevationFloorError, NumericError, TraceError
from .fading import (
    FadingRegime,
    RicianParams,
    ShadowedRicianParams,
    fit,
    rician_pdf,
    sample,
    select_regime,
    shadowed_rician_pdf,
)
from .geometry import ElevationAngle, PassGeometry, altitude_to_elevation, rain_slant_length
from .link_budget import fspl_db, sweep_pass
from .mpc import RayTable, coherent_power_dbm, k_factor
from .ntn import ntn_attenuation_db, select_profile
from .report import run_report
from .synth import synth_scenario
from .traceio import load_trace, save_trace

__version__ = "0.1.0"

__all__ = [
    "AntennaModel",
    "AtmosphereParams",
    "ChansimError",
    "ConfigError",
    "ElevationAngle",
    "ElevationFloorError",
    "FadingRegime",
    "NumericError",
    "PassGeometry",
    "RayTable",
    "RicianParams",
    "ScenarioConfig",
    "ShadowedRicianParams",
    "TraceError",
    "altitude_to_elevation",
    "azimuth_spread",
    "build_features",
    "cloud_attenuation_db",
    "cluster_snapshot",
    "coherent_power_dbm",
    "dbscan",
    "elevation_spread",
    "fit",
    "fspl_db",
    "gain_dbi",
    "k_factor",
    "load_config",
    "load_trace",
    "misalignment_loss_db",
    "ntn_attenuation_db",
    "rain_attenuation_db",
    "rain_slant_length",
    "rician_pdf",
    "run_report",
    "sample",
    "save_trace",
    "select_profile",
    "select_regime",
    "shadowed_rician_pdf",
    "snow_attenuation_db",
    "spatial_filter",
    "spread_report",
    "sweep_pass",
    "synth_scenario",
    "total_atmospheric_db",
]
