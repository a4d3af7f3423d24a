
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chansim.atmosphere import (
    ALL_WEATHER,
    AtmosphereParams,
    cloud_attenuation_db,
    horizontal_reduction_factor,
    rain_attenuation_db,
    snow_attenuation_db,
    specific_rain_attenuation,
    total_atmospheric_db,
)
from chansim.errors import ElevationFloorError
from chansim.geometry import SLANT_AS_PRINTED, SLANT_ITU_PIECEWISE, SLANT_MODES, rain_slant_length

PARAMS = AtmosphereParams()
GS_HEIGHT_KM = 0.023

# 0.0363 * 32**1.095, hand-evaluated at full precision
GAMMA_R = 1.6145290041688587

# From the default 0.5 deg floor to zenith, with the piecewise switch at
# exactly 5 deg and its neighbouring doubles.
PSI_COLUMN = np.concatenate([
    np.linspace(0.5, 90.0, 4001),
    [5.0, np.nextafter(5.0, 0.0), np.nextafter(5.0, 90.0), 90.0],
])


# --- per-elevation references: the scalar formulas in math, one elevation at a time ---

def ref_slant_length(psi_deg, h_rain_km, h_gs_km, r_earth_km, mode):
    dh = h_rain_km - h_gs_km
    s = math.sin(math.radians(psi_deg))
    sqrt_term = math.sqrt(2.0 * dh * r_earth_km / (s * s + 2.0 * dh / r_earth_km))
    thin_term = dh / s
    if mode == SLANT_AS_PRINTED:
        return sqrt_term + thin_term
    return thin_term if psi_deg >= 5.0 else sqrt_term


def ref_rain_db(psi_deg, p, gs_height_km, mode, fc_ghz):
    gamma_r = specific_rain_attenuation(p)
    l_s = ref_slant_length(psi_deg, p.h_rain_km, gs_height_km, p.r_earth_km, mode)
    l_g = l_s * math.cos(math.radians(psi_deg))
    l_e = l_s * horizontal_reduction_factor(l_g, gamma_r, fc_ghz)
    return gamma_r * l_e + p.beta_db


def ref_cloud_db(psi_deg, p):
    return p.k_cl * p.cloud_thickness_km * p.lwc_gm3 / math.sin(math.radians(psi_deg))


def ref_snow_db(psi_deg, p):
    return p.k_sn * p.snow_rate_mmh * p.h_snow_km / math.sin(math.radians(psi_deg))


def ref_total_db(psi_deg, p, gs_height_km, weather, mode, fc_ghz):
    total = p.l_fixed_db
    if "rain" in weather:
        total += ref_rain_db(psi_deg, p, gs_height_km, mode, fc_ghz)
    if "clouds" in weather:
        total += ref_cloud_db(psi_deg, p)
    if "snow" in weather:
        total += ref_snow_db(psi_deg, p)
    return total


def exactly(values, expected):
    """Equal bit for bit, and every value a Python float."""
    assert all(type(v) is float for v in values)
    assert values == expected


class TestColumnsMatchPerElevationReferences:
    psi = PSI_COLUMN.tolist()

    @pytest.mark.parametrize("mode", SLANT_MODES)
    def test_slant_length(self, mode):
        exactly(rain_slant_length(PSI_COLUMN, 5.0, 0.023, 6371.0, mode=mode),
                [ref_slant_length(x, 5.0, 0.023, 6371.0, mode) for x in self.psi])

    @pytest.mark.parametrize("mode", SLANT_MODES)
    @pytest.mark.parametrize("fc_ghz", [10.0, 20.0])
    def test_rain(self, mode, fc_ghz):
        exactly(rain_attenuation_db(PSI_COLUMN, PARAMS, GS_HEIGHT_KM, slant_mode=mode,
                                    fc_ghz=fc_ghz),
                [ref_rain_db(x, PARAMS, GS_HEIGHT_KM, mode, fc_ghz) for x in self.psi])

    def test_clouds_and_snow(self):
        exactly(cloud_attenuation_db(PSI_COLUMN, PARAMS),
                [ref_cloud_db(x, PARAMS) for x in self.psi])
        exactly(snow_attenuation_db(PSI_COLUMN, PARAMS),
                [ref_snow_db(x, PARAMS) for x in self.psi])

    @pytest.mark.parametrize("mode", SLANT_MODES)
    @pytest.mark.parametrize("weather", [set(), {"rain"}, {"clouds"}, {"snow"}, ALL_WEATHER],
                             ids=["clear", "rain", "clouds", "snow", "all"])
    def test_total(self, mode, weather):
        exactly(total_atmospheric_db(PSI_COLUMN, PARAMS, GS_HEIGHT_KM, weather=weather,
                                     slant_mode=mode),
                [ref_total_db(x, PARAMS, GS_HEIGHT_KM, weather, mode, 10.0) for x in self.psi])


TERMS = {
    "rain": lambda psi, floor: rain_attenuation_db(psi, PARAMS, GS_HEIGHT_KM, floor_deg=floor),
    "clouds": lambda psi, floor: cloud_attenuation_db(psi, PARAMS, floor_deg=floor),
    "snow": lambda psi, floor: snow_attenuation_db(psi, PARAMS, floor_deg=floor),
    "total": lambda psi, floor: total_atmospheric_db(psi, PARAMS, GS_HEIGHT_KM,
                                                     weather=ALL_WEATHER, floor_deg=floor),
}


class TestElevationChecks:
    @pytest.mark.parametrize("term", TERMS.values(), ids=TERMS.keys())
    def test_floor_names_first_low_elevation_as_plain_float(self, term):
        with pytest.raises(ElevationFloorError) as info:
            term(np.array([45.0, 0.716215896194941, 0.9]), 1.0)
        assert str(info.value) == "elevation 0.716215896194941 deg below floor 1.0 deg"

    @pytest.mark.parametrize("term", TERMS.values(), ids=TERMS.keys())
    @pytest.mark.parametrize("psi_deg,got", [(0.0, "0.0"), (90.5, "90.5"), (math.nan, "nan")])
    def test_range_checked(self, term, psi_deg, got):
        with pytest.raises(ValueError, match=rf"must be in \(0, 90\] deg, got {got}$"):
            term(np.array([45.0, psi_deg]), 0.5)

    def test_clear_sky_has_no_floor(self):
        assert total_atmospheric_db([0.1, 90.0], PARAMS, GS_HEIGHT_KM) == [1.5, 1.5]
        with pytest.raises(ValueError, match="got 0.0"):
            total_atmospheric_db([0.0], PARAMS, GS_HEIGHT_KM)


class TestSpecificAttenuation:
    def test_gamma_r_table_values(self):
        assert specific_rain_attenuation(PARAMS) == pytest.approx(GAMMA_R, rel=1e-12)

    def test_reduction_factor_at_zero_path(self):
        assert horizontal_reduction_factor(0.0, GAMMA_R, 10.0) == 1.0


class TestRain:
    def test_zenith_piecewise_chain(self):
        # gamma_R * (5 - 0.023) + 3, hand-evaluated through the full chain
        # with L_G = L_s cos(90 deg) ~ 0 so r_0.01 ~ 1.
        [value] = rain_attenuation_db(
            [90.0], PARAMS, GS_HEIGHT_KM, slant_mode=SLANT_ITU_PIECEWISE
        )
        assert value == pytest.approx(GAMMA_R * 4.977 + 3.0, rel=1e-6)

    def test_rain_includes_polarisation_floor(self):
        for value in rain_attenuation_db([1.0, 5.0, 30.0, 60.0, 90.0], PARAMS, GS_HEIGHT_KM):
            assert value > PARAMS.beta_db

    def test_elevation_floor_propagates(self):
        with pytest.raises(ElevationFloorError):
            rain_attenuation_db([0.4], PARAMS, GS_HEIGHT_KM)

    def test_monotone_up_to_high_elevations(self):
        # Non-increasing in psi holds over (floor, 55]; above that the
        # horizontal reduction factor's sqrt term beats the shrinking
        # slant path and the curve wiggles shallowly (see next test).
        psis = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 55.0]
        values = rain_attenuation_db(psis, PARAMS, GS_HEIGHT_KM, slant_mode=SLANT_ITU_PIECEWISE)
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_high_elevation_band_is_flat(self):
        # The 55..90 deg band is non-monotone by less than 0.5 dB.
        values = rain_attenuation_db(
            [55.0, 60.0, 70.0, 80.0, 85.0, 90.0], PARAMS, GS_HEIGHT_KM,
            slant_mode=SLANT_ITU_PIECEWISE,
        )
        assert max(values) - min(values) < 0.5


class TestCloudSnow:
    def test_cloud_zenith(self):
        # 0.072 * 1.5 * 0.35
        [value] = cloud_attenuation_db([90.0], PARAMS)
        assert value == pytest.approx(0.0378, rel=1e-9)

    def test_cloud_30deg_doubles(self):
        [value] = cloud_attenuation_db([30.0], PARAMS)
        assert value == pytest.approx(0.0756, rel=1e-9)

    def test_no_clouds(self):
        p = AtmosphereParams(cloud_thickness_km=0.0)
        assert cloud_attenuation_db([45.0], p) == [0.0]

    def test_snow_zenith(self):
        # 0.004 * 4 * 5
        [value] = snow_attenuation_db([90.0], PARAMS)
        assert value == pytest.approx(0.08, rel=1e-12)

    def test_snow_30deg_doubles(self):
        assert snow_attenuation_db([30.0], PARAMS) == pytest.approx([0.16], rel=1e-9)

    def test_no_snow(self):
        p = AtmosphereParams(snow_rate_mmh=0.0)
        assert snow_attenuation_db([45.0], p) == [0.0]

    @given(st.floats(min_value=0.5, max_value=89.0), st.floats(min_value=0.01, max_value=1.0))
    def test_cloud_snow_monotone_nonincreasing(self, psi_deg, step):
        lower, higher = cloud_attenuation_db([psi_deg, min(psi_deg + step, 90.0)], PARAMS)
        assert lower >= higher
        lower, higher = snow_attenuation_db([psi_deg, min(psi_deg + step, 90.0)], PARAMS)
        assert lower >= higher


class TestTotal:
    def test_empty_weather_is_fixed_loss(self):
        [value] = total_atmospheric_db([45.0], PARAMS, GS_HEIGHT_KM, weather=set())
        assert value == pytest.approx(1.5, rel=1e-12)

    def test_clouds_and_snow_at_zenith(self):
        [value] = total_atmospheric_db([90.0], PARAMS, GS_HEIGHT_KM, weather={"clouds", "snow"})
        assert value == pytest.approx(1.5 + 0.0378 + 0.08, rel=1e-9)

    def test_all_weather_rain_dominates(self):
        psi = [90.0]
        [total] = total_atmospheric_db(psi, PARAMS, GS_HEIGHT_KM, weather=ALL_WEATHER)
        [rain] = rain_attenuation_db(psi, PARAMS, GS_HEIGHT_KM)
        [clouds] = cloud_attenuation_db(psi, PARAMS)
        [snow] = snow_attenuation_db(psi, PARAMS)
        assert total == pytest.approx(1.5 + rain + clouds + snow, rel=1e-12)
        assert rain > snow > clouds

    def test_rain_heaviest_across_elevations(self):
        psi = [0.5, 1.0, 3.0, 10.0, 30.0, 60.0, 90.0]
        for rain, clouds, snow in zip(rain_attenuation_db(psi, PARAMS, GS_HEIGHT_KM),
                                      cloud_attenuation_db(psi, PARAMS),
                                      snow_attenuation_db(psi, PARAMS), strict=True):
            assert rain > snow > clouds

    def test_unknown_weather_term(self):
        with pytest.raises(ValueError):
            total_atmospheric_db([45.0], PARAMS, GS_HEIGHT_KM, weather={"hail"})


class TestParamsValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            AtmosphereParams(rain_rate_mmh=-1.0)

    @pytest.mark.parametrize("name", [f.name for f in fields(AtmosphereParams)])
    def test_nan_rejected(self, name):
        with pytest.raises(ValueError, match=name):
            AtmosphereParams(**{name: math.nan})

    def test_nonpositive_carrier_rejected(self):
        for fc_ghz in (0.0, -10.0, float("nan")):
            with pytest.raises(ValueError, match=f"frequency must be positive, got {fc_ghz}"):
                rain_attenuation_db([45.0], PARAMS, GS_HEIGHT_KM, fc_ghz=fc_ghz)
