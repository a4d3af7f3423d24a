"""Scenario configuration: defaults, YAML file loading, CLI overrides.

Precedence is CLI flags > config file > built-in defaults.  The built-in
defaults describe a 400 km circular pass of a 10 GHz, 30 dBm downlink
with isotropic antennas and clear sky.

Each config type checks its own fields (``errors.check_fields``) and its
own rules, however it is built; the YAML loader only maps keys to
constructors and names the config key of a value that breaks a rule.
"""

from __future__ import annotations

import math
import numbers
import re
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, field, replace
from pathlib import Path

import yaml

from .antenna import AntennaModel
from .atmosphere import ALL_WEATHER, DEFAULT_FC_GHZ, AtmosphereParams
from .clustering import DEFAULT_XI, DEFAULT_ZETA
from .errors import ConfigError, FieldError, as_float, check_fields, checked
from .geometry import (
    DEFAULT_ELEVATION_FLOOR_DEG,
    SLANT_AS_PRINTED,
    SLANT_MODES,
    ElevationAngle,
    PassGeometry,
    default_psi2,
)
from .link_budget import MISALIGN_AGGREGATE, MISALIGN_MODES, MISALIGN_PER_RAY, wavelength_m
from .mpc import COHERENT_MODES, COHERENT_POWER_SUM
from .ntn import DEFAULT_PSI1_DEG, DEFAULT_PSI2_DEG, DEFAULT_SHADOW_SIGMA_DB

# Table-style default altitude samples for a 400 km arc (km above the GS).
DEFAULT_ALTITUDES_KM = (5.0, 25.0, 50.0, 90.0, 136.0, 200.0, 264.0, 330.0, 371.0, 398.0)


@dataclass(frozen=True)
class FadingConfig:
    psi2_deg: float | None = None      # None -> elevation of the 100 km point
    fit_samples: int = 20000
    designate_strongest_los: bool = False

    def __post_init__(self) -> None:
        check_fields(self)
        if self.psi2_deg is not None and not 0.0 < self.psi2_deg <= 90.0:
            raise ValueError("fading.psi2_deg must be in (0, 90]")
        if self.fit_samples < 100:
            raise ValueError("fading.fit_samples must be at least 100")


class _Sigmas(Mapping):
    """The shadowing sigma of each TDL profile: a read-only mapping that hashes."""

    def __init__(self, sigmas: Mapping[str, float]) -> None:
        self._sigmas = dict(sigmas)

    def __getitem__(self, name: str) -> float:
        return self._sigmas[name]

    def __iter__(self):
        return iter(self._sigmas)

    def __len__(self) -> int:
        return len(self._sigmas)

    def __hash__(self) -> int:
        return hash(frozenset(self._sigmas.items()))

    def __repr__(self) -> str:
        return repr(self._sigmas)


@dataclass(frozen=True)
class NtnConfig:
    psi1_deg: float = DEFAULT_PSI1_DEG
    psi2_deg: float = DEFAULT_PSI2_DEG
    sigma_db: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_fields(self)
        for key in ("psi1_deg", "psi2_deg"):
            value = getattr(self, key)
            if not 0.0 < value <= 90.0:
                raise ValueError(f"ntn.{key} must be in (0, 90] deg, got {value!r}")
        if self.psi1_deg >= self.psi2_deg:
            raise ValueError("ntn.psi1_deg must be below ntn.psi2_deg")
        # Given sigmas override the defaults profile by profile.
        if not isinstance(self.sigma_db, Mapping):
            raise ValueError("sigma_db must map profile names to sigmas")
        unknown = self.sigma_db.keys() - DEFAULT_SHADOW_SIGMA_DB.keys()
        if unknown:
            raise ValueError(f"unknown profile names {sorted(unknown, key=str)} in sigma_db")
        merged = dict(DEFAULT_SHADOW_SIGMA_DB)
        for name, sigma in self.sigma_db.items():
            if (number := as_float(sigma)) is None:
                raise ValueError(f"sigma_db[{name!r}] must be a number, got {sigma!r}")
            if not (math.isfinite(number) and number >= 0.0):
                raise ValueError(f"sigma_db[{name!r}] must be finite and non-negative")
            merged[name] = number
        object.__setattr__(self, "sigma_db", _Sigmas(merged))


@dataclass(frozen=True)
class ClusteringConfig:
    xi: float = DEFAULT_XI
    zeta: int = DEFAULT_ZETA

    def __post_init__(self) -> None:
        check_fields(self)
        if self.xi <= 0.0 or self.zeta < 1:
            raise ValueError("clustering needs xi > 0 and zeta >= 1")


@dataclass(frozen=True)
class SynthConfig:
    los_only: bool = False
    max_extra_rays: int = 8

    def __post_init__(self) -> None:
        check_fields(self)
        if self.max_extra_rays < 0:
            raise ValueError("synth.max_extra_rays must be non-negative, "
                             f"got {self.max_extra_rays}")


# The pass of a config that sets none.  A trace run takes its pass geometry
# from the trace, and a config with any other pass must agree with the trace.
DEFAULT_GEOMETRY = PassGeometry(
    arc_radius_km=400.0, gs_height_km=0.023, altitudes_km=DEFAULT_ALTITUDES_KM
)


@dataclass(frozen=True)
class ScenarioConfig:
    geometry: PassGeometry = DEFAULT_GEOMETRY
    fc_ghz: float = DEFAULT_FC_GHZ
    p_tx_dbm: float = 30.0
    l_hd_db: float = 1.5
    sat_antenna: AntennaModel = field(default_factory=AntennaModel)
    gs_antenna: AntennaModel = field(default_factory=AntennaModel)
    atmosphere: AtmosphereParams = field(default_factory=AtmosphereParams)
    weather: frozenset[str] = frozenset()
    misalign_az_deg: float = 0.0
    misalign_el_deg: float = 0.0
    fading: FadingConfig = field(default_factory=FadingConfig)
    ntn: NtnConfig = field(default_factory=NtnConfig)
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    coherent_mode: str = COHERENT_POWER_SUM
    slant_mode: str = SLANT_AS_PRINTED
    misalign_mode: str = MISALIGN_AGGREGATE
    elevation_floor_deg: float = DEFAULT_ELEVATION_FLOOR_DEG
    seed: int = 1

    def __post_init__(self) -> None:
        # An infinite offset is named by its range; NaN and non-numbers go on to the field rule.
        for key in ("misalign_az_deg", "misalign_el_deg"):
            value = getattr(self, key)
            if isinstance(value, numbers.Real) and abs(value) > 180.0:
                raise ValueError(f"{key} must be in [-180, 180] deg, got {float(value)}")
        check_fields(self)
        if self.fc_ghz <= 0.0:
            raise ValueError("fc_ghz must be positive")
        try:
            wavelength_m(self.fc_ghz)
        except ValueError as exc:
            raise ValueError(f"fc_ghz: {exc}") from None
        # The default rain coefficients are 10 GHz values; another carrier needs its own.
        rain = self.atmosphere
        if self.fc_ghz != DEFAULT_FC_GHZ and (rain.k_rn == AtmosphereParams.k_rn
                                              or rain.epsilon == AtmosphereParams.epsilon):
            raise ValueError(f"fc_ghz {self.fc_ghz!r} needs its own rain coefficients: set both "
                             "atmosphere.k_rn and atmosphere.epsilon (the defaults are for "
                             f"{DEFAULT_FC_GHZ!r} GHz)")
        if not self.geometry.altitudes_km:
            raise ValueError("pass geometry needs at least one altitude sample: "
                             "pass.altitudes_km is empty")
        if self.fading.psi2_deg is None and self.geometry.arc_radius_km <= 100.0:
            raise ValueError("set fading.psi2_deg explicitly for arc radii of 100 km or less")
        bad = set(self.weather) - ALL_WEATHER
        if bad:
            raise ValueError(f"unknown weather terms {sorted(bad)}")
        # Rain attenuates the slant path from the GS up to the rain height.
        if "rain" in self.weather and self.geometry.gs_height_km >= rain.h_rain_km:
            raise ValueError(f"rain needs pass.gs_height_km {self.geometry.gs_height_km!r} "
                             f"below atmosphere.h_rain_km {rain.h_rain_km!r}")
        # Each mode's choices are those of the module that branches on it.
        for key, value, choices in (("coherent", self.coherent_mode, COHERENT_MODES),
                                    ("slant", self.slant_mode, SLANT_MODES),
                                    ("misalignment", self.misalign_mode, MISALIGN_MODES)):
            if value not in choices:
                raise ValueError(f"mode {key!r} must be one of {choices}, got {value!r}")
        # Per-ray misalignment steers the ground antenna by the offset.
        steer_el = self.gs_antenna.steer_el_deg + self.misalign_el_deg
        if self.misalign_mode == MISALIGN_PER_RAY and not -90.0 <= steer_el <= 90.0:
            raise ValueError(f"misalign_el_deg {self.misalign_el_deg} steers the ground antenna "
                             f"to elevation {steer_el}, outside [-90, 90] deg")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")

    def psi2(self, arc_radius_km: float) -> ElevationAngle:
        """Shadowing threshold: configured value or the 100 km point of the arc."""
        if self.fading.psi2_deg is not None:
            return ElevationAngle(self.fading.psi2_deg)
        return default_psi2(arc_radius_km)


# A plain scalar with a mantissa digit and an exponent, as float() reads it.
# YAML 1.1 reads one without a decimal point or without an exponent sign,
# such as 2.0e1 or 4e-3, as a string.
_EXPONENT_FLOAT = re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$")


def _yaml_loader(base: type) -> type:
    """A subclass of yaml loader ``base`` that also reads _EXPONENT_FLOAT scalars as floats."""
    loader = type(f"Chansim{base.__name__}", (base,), {})
    loader.add_implicit_resolver("tag:yaml.org,2002:float", _EXPONENT_FLOAT,
                                 list("-+.0123456789"))
    return loader


# libyaml's parser when PyYAML was built with it: the same safe constructors
# and values as yaml.SafeLoader, several times faster on long altitude lists.
_YAML_LOADER = _yaml_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


def _mapping(data, section: str, keys) -> dict:
    """A config section's mapping, refused if it is none or has a key not in ``keys``."""
    if not isinstance(data, dict):
        raise ConfigError(f"config section {section!r} must be a mapping")
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in config section {section!r}")
    return data


def _build(cls, data: dict, section: str = ""):
    """``cls(**data)``, a broken rule raised as a ConfigError naming its key or section."""
    if section:
        _mapping(data, section, cls.__dataclass_fields__)
    try:
        try:
            return cls(**data)
        except TypeError:
            checked(cls, data)  # a required key is missing: a bad given one is named first
            for name, f in cls.__dataclass_fields__.items():
                if name not in data and f.default is f.default_factory is MISSING:
                    raise FieldError(name, "is required") from None
            raise
    except FieldError as exc:
        key = f"{section}.{exc.field}" if section else _MODE_KEYS.get(exc.field, exc.field)
        raise ConfigError(f"config key {key!r} {exc.rule}") from exc
    except (TypeError, ValueError) as exc:
        message = f"bad config section {section!r}: {exc}" if section else str(exc)
        raise ConfigError(message) from exc


def load_config(path: str | Path | None) -> ScenarioConfig:
    """Load a scenario from a YAML file; None gives the built-in defaults."""
    if path is None:
        return ScenarioConfig()
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {p}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {p}: {exc}") from None
    try:
        data = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{p}: invalid YAML: {exc}") from exc
    if data is None:
        return ScenarioConfig()
    if not isinstance(data, dict):
        raise ConfigError(f"{p}: top level must be a mapping")
    return _config_from_dict(data)


# Top-level keys that set a ScenarioConfig field of the same name directly.
_FIELD_KEYS = ("fc_ghz", "p_tx_dbm", "l_hd_db", "weather", "misalign_az_deg",
               "misalign_el_deg", "elevation_floor_deg", "seed")

# Config sections that build one ScenarioConfig field each: key -> (field, class).
_SECTIONS = {
    "pass": ("geometry", PassGeometry),
    "atmosphere": ("atmosphere", AtmosphereParams),
    "fading": ("fading", FadingConfig),
    "ntn": ("ntn", NtnConfig),
    "clustering": ("clustering", ClusteringConfig),
    "synth": ("synth", SynthConfig),
}

# Config sections whose keys set ScenarioConfig fields of other names: key -> field.
_ANTENNAS = {"satellite": "sat_antenna", "ground": "gs_antenna"}
_MODES = {"coherent": "coherent_mode", "slant": "slant_mode", "misalignment": "misalign_mode"}
_MODE_KEYS = {field: f"modes.{key}" for key, field in _MODES.items()}

_KNOWN_KEYS = {*_FIELD_KEYS, *_SECTIONS, "antennas", "modes"}


def _config_from_dict(data: dict) -> ScenarioConfig:
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown top-level config keys {sorted(unknown)}")
    kwargs = {key: data[key] for key in _FIELD_KEYS if key in data}
    kwargs.update((attr, _build(cls, data[key], key))
                  for key, (attr, cls) in _SECTIONS.items() if key in data)
    for key, value in _mapping(data.get("antennas", {}), "antennas", _ANTENNAS).items():
        kwargs[_ANTENNAS[key]] = _build(AntennaModel, value, f"antennas.{key}")
    for key, value in _mapping(data.get("modes", {}), "modes", _MODES).items():
        kwargs[_MODES[key]] = value
    return _build(ScenarioConfig, kwargs)


def apply_overrides(
    cfg: ScenarioConfig,
    *,
    weather_add: set[str] | None = None,
    misalign_az_deg: float | None = None,
    misalign_el_deg: float | None = None,
    seed: int | None = None,
) -> ScenarioConfig:
    """Apply CLI-level overrides on top of a loaded configuration."""
    changes = {key: value for key, value in (("misalign_az_deg", misalign_az_deg),
                                             ("misalign_el_deg", misalign_el_deg),
                                             ("seed", seed)) if value is not None}
    if weather_add:
        changes["weather"] = cfg.weather | frozenset(weather_add)
    try:
        return replace(cfg, **changes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
