import math

import pytest
from hypothesis import given, strategies as st

from chansim.errors import ElevationFloorError
from chansim.geometry import (
    SLANT_AS_PRINTED,
    SLANT_ITU_PIECEWISE,
    ElevationAngle,
    PassGeometry,
    altitude_to_elevation,
    rain_slant_length,
)


class TestAltitudeToElevation:
    def test_zenith(self):
        assert altitude_to_elevation(400.0, 400.0).psi_deg == pytest.approx(90.0)

    def test_quarter_radius(self):
        # arcsin(100/400), hand-evaluated
        assert altitude_to_elevation(100.0, 400.0).psi_deg == pytest.approx(
            14.477512185929925, rel=1e-12
        )

    def test_low_altitude(self):
        # arcsin(0.0125), hand-evaluated
        assert altitude_to_elevation(5.0, 400.0).psi_deg == pytest.approx(
            0.716215896194941, rel=1e-12
        )

    @pytest.mark.parametrize("h", [0.0, -1.0, 400.1])
    def test_domain_errors(self, h):
        with pytest.raises(ValueError):
            altitude_to_elevation(h, 400.0)

    @given(st.floats(min_value=1e-3, max_value=400.0), st.floats(min_value=1e-3, max_value=399.0))
    def test_strictly_increasing(self, h, delta):
        d = 400.0
        h2 = min(h + delta, d)
        if h2 > h:
            assert altitude_to_elevation(h2, d).psi_deg > altitude_to_elevation(h, d).psi_deg

    @given(st.floats(min_value=1e-6, max_value=400.0))
    def test_round_trip(self, h):
        d = 400.0
        psi = altitude_to_elevation(h, d)
        assert d * math.sin(math.radians(psi.psi_deg)) == pytest.approx(h, rel=1e-9)


class TestRainSlantLength:
    def test_zenith_as_printed(self):
        # sqrt(2*5*6371 / (1 + 2*5/6371)) + 5, hand-evaluated
        [value] = rain_slant_length([90.0], 5.0, 0.0, 6371.0)
        assert value == pytest.approx(257.21054045231415, rel=1e-9)

    def test_zenith_itu_piecewise(self):
        [value] = rain_slant_length([90.0], 5.0, 0.0, 6371.0, mode=SLANT_ITU_PIECEWISE)
        assert value == pytest.approx(5.0, rel=1e-12)

    def test_30deg_as_printed(self):
        [value] = rain_slant_length([30.0], 5.0, 0.023, 6371.0)
        assert value == pytest.approx(512.0419087750438, rel=1e-9)

    def test_elevation_floor(self):
        with pytest.raises(ElevationFloorError):
            rain_slant_length([0.4], 5.0, 0.0, 6371.0)
        # custom floor
        with pytest.raises(ElevationFloorError):
            rain_slant_length([0.9], 5.0, 0.0, 6371.0, floor_deg=1.0)

    def test_rain_below_gs_rejected(self):
        with pytest.raises(ValueError):
            rain_slant_length([45.0], 0.02, 0.023, 6371.0)

    @given(st.floats(min_value=0.5, max_value=90.0))
    def test_as_printed_dominates_piecewise(self, psi_deg):
        [printed] = rain_slant_length([psi_deg], 5.0, 0.023, 6371.0, mode=SLANT_AS_PRINTED)
        [piecewise] = rain_slant_length([psi_deg], 5.0, 0.023, 6371.0, mode=SLANT_ITU_PIECEWISE)
        assert printed >= piecewise

    def test_piecewise_switches_at_5deg(self):
        just_below, just_above = rain_slant_length(
            [4.99, 5.0], 5.0, 0.0, 6371.0, mode=SLANT_ITU_PIECEWISE
        )
        # below: spherical sqrt form; above: thin-layer form
        assert just_above == pytest.approx(5.0 / math.sin(math.radians(5.0)), rel=1e-12)
        assert just_below != pytest.approx(just_above, rel=1e-3)


class TestTypes:
    @pytest.mark.parametrize("deg", [0.0, -5.0, 90.1])
    def test_elevation_angle_range(self, deg):
        with pytest.raises(ValueError):
            ElevationAngle(deg)

    def test_pass_geometry_validates_altitudes(self):
        with pytest.raises(ValueError):
            PassGeometry(arc_radius_km=400.0, altitudes_km=(0.0,))
        with pytest.raises(ValueError):
            PassGeometry(arc_radius_km=400.0, altitudes_km=(401.0,))
        geo = PassGeometry(arc_radius_km=400.0, altitudes_km=(5.0, 400.0))
        assert [e.psi_deg for e in geo.elevations()][1] == pytest.approx(90.0)
