import math

import numpy as np
import pytest

from chansim.geometry import PassGeometry, default_psi2
from chansim.link_budget import SPEED_OF_LIGHT_M_S
from chansim.mpc import k_factor
from chansim.synth import synth_scenario

PSI_GRID = (0.75, 1.5, 3.0, 5.0, 7.0, 10.0, 14.0, 20.0, 28.0, 38.0, 50.0, 65.0, 80.0)


def make_geometry(d_km: float, psi_grid=PSI_GRID) -> PassGeometry:
    alts = tuple(d_km * math.sin(math.radians(p)) for p in psi_grid)
    return PassGeometry(arc_radius_km=d_km, gs_height_km=0.023, altitudes_km=alts)


class TestDeterminism:
    def test_identical_under_seed(self):
        geo = make_geometry(400.0)
        a = synth_scenario(geo, 10.0, default_psi2(400.0), seed=5)
        b = synth_scenario(geo, 10.0, default_psi2(400.0), seed=5)
        assert a == b

    def test_different_seeds_differ(self):
        geo = make_geometry(400.0)
        a = synth_scenario(geo, 10.0, default_psi2(400.0), seed=5)
        b = synth_scenario(geo, 10.0, default_psi2(400.0), seed=6)
        assert a != b


class TestLosOnly:
    def test_single_fspl_consistent_ray(self):
        geo = make_geometry(400.0)
        snaps = synth_scenario(geo, 10.0, default_psi2(400.0), los_only=True, seed=2)
        wavelength = SPEED_OF_LIGHT_M_S / 10e9
        expected = wavelength / (4.0 * math.pi * 400e3)
        psi2 = default_psi2(400.0).psi_deg
        assert snaps.counts.tolist() == [1] * len(snaps)
        assert snaps.is_los.all()
        for psi_deg, amplitude in zip(snaps.psi_deg, snaps.amplitude):
            if psi_deg >= psi2:
                assert amplitude == pytest.approx(expected, rel=1e-12)
            else:
                assert amplitude <= expected


class TestQualitativeShape:
    def test_more_rays_at_low_elevation(self):
        geo = make_geometry(400.0)
        snaps = synth_scenario(geo, 10.0, default_psi2(400.0), seed=1)
        low = sum(len(s) for s in snaps[:4])
        high = sum(len(s) for s in snaps[-4:])
        assert low > high

    def test_more_rays_for_smaller_arc(self):
        counts = {}
        for d in (400.0, 500.0):
            snaps = synth_scenario(make_geometry(d), 10.0, default_psi2(d), seed=1)
            counts[d] = sum(len(s) for s in snaps)
        assert counts[400.0] > counts[500.0]

    def test_high_altitude_dominated_by_los(self):
        geo = make_geometry(500.0)
        snaps = synth_scenario(geo, 10.0, default_psi2(500.0), seed=1)
        for snap in snaps:
            if snap.altitude_km >= 250.0:
                assert len(snap) <= 2

    def test_near_horizon_shadowed_k_below_one(self):
        geo = make_geometry(400.0)
        snaps = synth_scenario(geo, 10.0, default_psi2(400.0), seed=1)
        k = k_factor(snaps)[0]
        assert k is not None and k < 1.0
        # order-of-magnitude target for the deepest shadowing
        assert 1e-4 < k < 1e-1

    def test_max_extra_rays_respected(self):
        geo = make_geometry(400.0)
        for seed in range(5):
            snaps = synth_scenario(geo, 10.0, default_psi2(400.0),
                                   max_extra_rays=2, seed=seed)
            assert all(len(s) <= 4 for s in snaps)

    def test_exactly_one_los_per_snapshot(self):
        geo = make_geometry(400.0)
        snaps = synth_scenario(geo, 10.0, default_psi2(400.0), seed=3)
        assert np.add.reduceat(snaps.is_los, snaps.offsets[:-1]).tolist() == [1] * len(snaps)
