
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
from chansim.geometry import SLANT_ITU_PIECEWISE, ElevationAngle, PassGeometry

PARAMS = AtmosphereParams()
GEO = PassGeometry(arc_radius_km=400.0, gs_height_km=0.023, altitudes_km=(100.0,))

# 0.0363 * 32**1.095, hand-evaluated at full precision
GAMMA_R = 1.6145290041688587


class TestSpecificAttenuation:
    def test_gamma_r_table_values(self):
        assert specific_rain_attenuation(PARAMS) == pytest.approx(GAMMA_R, rel=1e-12)

    def test_reduction_factor_at_zero_path(self):
        assert horizontal_reduction_factor(0.0, GAMMA_R, 10.0) == 1.0


class TestRain:
    def test_zenith_piecewise_chain(self):
        # gamma_R * (5 - 0.023) + 3, hand-evaluated through the full chain
        # with L_G = L_s cos(90 deg) ~ 0 so r_0.01 ~ 1.
        value = rain_attenuation_db(
            ElevationAngle(90.0), PARAMS, GEO, slant_mode=SLANT_ITU_PIECEWISE
        )
        assert value == pytest.approx(GAMMA_R * 4.977 + 3.0, rel=1e-6)

    def test_rain_includes_polarisation_floor(self):
        for psi_deg in (1.0, 5.0, 30.0, 60.0, 90.0):
            value = rain_attenuation_db(ElevationAngle(psi_deg), PARAMS, GEO)
            assert value > PARAMS.beta_db

    def test_elevation_floor_propagates(self):
        with pytest.raises(ElevationFloorError):
            rain_attenuation_db(ElevationAngle(0.4), PARAMS, GEO)

    def test_monotone_up_to_high_elevations(self):
        # Non-increasing in psi holds over (floor, 55]; above that the
        # horizontal reduction factor's sqrt term beats the shrinking
        # slant path and the curve wiggles shallowly (see next test).
        psis = [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 55.0]
        values = [
            rain_attenuation_db(
                ElevationAngle(p), PARAMS, GEO, slant_mode=SLANT_ITU_PIECEWISE
            )
            for p in psis
        ]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_high_elevation_band_is_flat(self):
        # The 55..90 deg band is non-monotone by less than 0.5 dB.
        values = [
            rain_attenuation_db(
                ElevationAngle(p), PARAMS, GEO, slant_mode=SLANT_ITU_PIECEWISE
            )
            for p in (55.0, 60.0, 70.0, 80.0, 85.0, 90.0)
        ]
        assert max(values) - min(values) < 0.5


class TestCloudSnow:
    def test_cloud_zenith(self):
        # 0.072 * 1.5 * 0.35
        value = cloud_attenuation_db(ElevationAngle(90.0), PARAMS)
        assert value == pytest.approx(0.0378, rel=1e-9)

    def test_cloud_30deg_doubles(self):
        value = cloud_attenuation_db(ElevationAngle(30.0), PARAMS)
        assert value == pytest.approx(0.0756, rel=1e-9)

    def test_no_clouds(self):
        p = AtmosphereParams(cloud_thickness_km=0.0)
        assert cloud_attenuation_db(ElevationAngle(45.0), p) == 0.0

    def test_snow_zenith(self):
        # 0.004 * 4 * 5
        value = snow_attenuation_db(ElevationAngle(90.0), PARAMS)
        assert value == pytest.approx(0.08, rel=1e-12)

    def test_snow_30deg_doubles(self):
        assert snow_attenuation_db(ElevationAngle(30.0), PARAMS) == pytest.approx(
            0.16, rel=1e-9
        )

    def test_no_snow(self):
        p = AtmosphereParams(snow_rate_mmh=0.0)
        assert snow_attenuation_db(ElevationAngle(45.0), p) == 0.0

    @given(st.floats(min_value=0.5, max_value=89.0), st.floats(min_value=0.01, max_value=1.0))
    def test_cloud_snow_monotone_nonincreasing(self, psi_deg, step):
        lower, higher = ElevationAngle(psi_deg), ElevationAngle(min(psi_deg + step, 90.0))
        assert cloud_attenuation_db(lower, PARAMS) >= cloud_attenuation_db(higher, PARAMS)
        assert snow_attenuation_db(lower, PARAMS) >= snow_attenuation_db(higher, PARAMS)


class TestTotal:
    def test_empty_weather_is_fixed_loss(self):
        value = total_atmospheric_db(ElevationAngle(45.0), PARAMS, GEO, weather=set())
        assert value == pytest.approx(1.5, rel=1e-12)

    def test_clouds_and_snow_at_zenith(self):
        value = total_atmospheric_db(
            ElevationAngle(90.0), PARAMS, GEO, weather={"clouds", "snow"}
        )
        assert value == pytest.approx(1.5 + 0.0378 + 0.08, rel=1e-9)

    def test_all_weather_rain_dominates(self):
        psi = ElevationAngle(90.0)
        total = total_atmospheric_db(psi, PARAMS, GEO, weather=ALL_WEATHER)
        rain = rain_attenuation_db(psi, PARAMS, GEO)
        clouds = cloud_attenuation_db(psi, PARAMS)
        snow = snow_attenuation_db(psi, PARAMS)
        assert total == pytest.approx(1.5 + rain + clouds + snow, rel=1e-12)
        assert rain > snow > clouds

    def test_rain_heaviest_across_elevations(self):
        for psi_deg in (0.5, 1.0, 3.0, 10.0, 30.0, 60.0, 90.0):
            psi = ElevationAngle(psi_deg)
            rain = rain_attenuation_db(psi, PARAMS, GEO)
            clouds = cloud_attenuation_db(psi, PARAMS)
            snow = snow_attenuation_db(psi, PARAMS)
            assert rain > snow > clouds

    def test_unknown_weather_term(self):
        with pytest.raises(ValueError):
            total_atmospheric_db(ElevationAngle(45.0), PARAMS, GEO, weather={"hail"})


class TestParamsValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            AtmosphereParams(rain_rate_mmh=-1.0)

    def test_nonpositive_carrier_rejected(self):
        for fc_ghz in (0.0, -10.0):
            with pytest.raises(ValueError, match="carrier frequency"):
                rain_attenuation_db(ElevationAngle(45.0), PARAMS, GEO, fc_ghz=fc_ghz)
