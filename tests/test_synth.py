import math

import numpy as np
import pytest

from chansim import streams
from chansim.geometry import ElevationAngle, PassGeometry, altitude_to_elevation, default_psi2
from chansim.link_budget import SPEED_OF_LIGHT_M_S
from chansim.mpc import RAY_COLUMNS, RayTable, k_factor
from chansim.synth import synth_scenario
from conftest import tracemalloc_peak

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
        low = sum(len(s) for s in list(snaps)[:4])
        high = sum(len(s) for s in list(snaps)[-4:])
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
        for altitude, rows in zip(snaps.altitude_km, snaps):
            if altitude >= 250.0:
                assert len(rows) <= 2

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


# Reference: the per-snapshot generator with one default_rng([seed, idx]) per
# snapshot, kept verbatim.  synth_scenario must return exactly its table.
_REFERENCE_RADIUS_KM = 400.0
_SHADOW_MAX_DB = 26.0
_SHADOW_JITTER_DB = 2.0
_BUILDING_MEAN_AT_HORIZON = 6.0
_BUILDING_PSI_SCALE_DEG = 10.0
_GROUND_AMP_PSI_SCALE_DEG = 40.0
_BUILDING_AMP_PSI_SCALE_DEG = 35.0
_GROUND_EXCESS_SCALE_S = 0.4e-9
_BUILDING_EXCESS_SCALE_S = 0.8e-9


def _wrap_az(angle_deg: float) -> float:
    return angle_deg % 360.0


def _clip_el(angle_deg: float) -> float:
    return min(90.0, max(-90.0, angle_deg))


Ray = tuple[float, float, float, float, float, float, float, bool]


def _los_ray(psi: ElevationAngle, d_km: float, fc_ghz: float, shadow_db: float) -> Ray:
    wavelength_m = SPEED_OF_LIGHT_M_S / (fc_ghz * 1e9)
    d_m = d_km * 1e3
    amplitude = wavelength_m / (4.0 * math.pi * d_m) * 10.0 ** (-shadow_db / 20.0)
    return (
        amplitude,
        (2.0 * math.pi * d_m / wavelength_m) % (2.0 * math.pi),
        d_m / SPEED_OF_LIGHT_M_S,
        180.0,
        -psi.psi_deg,
        0.0,
        psi.psi_deg,
        True,
    )


def _shadow_db(psi: ElevationAngle, psi2: ElevationAngle, rng: np.random.Generator) -> float:
    if psi.psi_deg >= psi2.psi_deg:
        return 0.0
    depth = _SHADOW_MAX_DB + _SHADOW_JITTER_DB * rng.standard_normal()
    return max(0.0, depth) * (1.0 - psi.psi_deg / psi2.psi_deg) ** 1.5


def _ground_ray(
    base_amplitude: float,
    los_delay_s: float,
    psi: ElevationAngle,
    radius_factor: float,
    rng: np.random.Generator,
) -> Ray:
    atten = math.exp(-psi.psi_deg / _GROUND_AMP_PSI_SCALE_DEG) * radius_factor
    amplitude = base_amplitude * rng.uniform(0.45, 0.85) * atten
    excess = rng.exponential(_GROUND_EXCESS_SCALE_S * radius_factor**2) + 0.05e-9
    # Tuple items are evaluated left to right, which fixes the draw sequence.
    return (
        amplitude,
        rng.uniform(0.0, 2.0 * math.pi),
        los_delay_s + excess,
        _wrap_az(180.0 + 0.005 * rng.standard_normal()),
        _clip_el(-psi.psi_deg + 0.005 * rng.standard_normal()),
        _wrap_az(0.5 * rng.standard_normal()),
        _clip_el(-psi.psi_deg * rng.uniform(0.8, 1.0)),
        False,
    )


def _building_rays(
    base_amplitude: float,
    los_delay_s: float,
    psi: ElevationAngle,
    radius_factor: float,
    count: int,
    rng: np.random.Generator,
) -> list[Ray]:
    n_sources = max(1, math.ceil(count / 2))
    sources = [
        {
            "aoa_az": rng.uniform(0.0, 360.0),
            "aoa_el": rng.uniform(-5.0, 35.0),
            "aod_az": _wrap_az(180.0 + 0.01 * rng.standard_normal()),
            "aod_el": _clip_el(-psi.psi_deg + 0.01 * rng.standard_normal()),
            "excess": rng.exponential(_BUILDING_EXCESS_SCALE_S * radius_factor**2) + 0.1e-9,
            "amp": rng.uniform(0.1, 0.6),
        }
        for _ in range(n_sources)
    ]
    atten = math.exp(-psi.psi_deg / _BUILDING_AMP_PSI_SCALE_DEG) * radius_factor**2
    rays = []
    for j in range(count):
        src = sources[j % n_sources]
        rays.append(
            (
                base_amplitude * src["amp"] * rng.uniform(0.7, 1.0) * atten,
                rng.uniform(0.0, 2.0 * math.pi),
                los_delay_s + src["excess"] + abs(rng.normal(0.0, 0.03e-9)),
                src["aod_az"],
                src["aod_el"],
                _wrap_az(src["aoa_az"] + rng.normal(0.0, 0.6)),
                _clip_el(src["aoa_el"] + rng.normal(0.0, 0.5)),
                False,
            )
        )
    return rays


def reference_synth_scenario(
    geometry: PassGeometry,
    fc_ghz: float,
    psi2: ElevationAngle,
    los_only: bool = False,
    max_extra_rays: int = 8,
    seed: int = 0,
) -> RayTable:
    d = geometry.arc_radius_km
    radius_factor = _REFERENCE_RADIUS_KM / d
    wavelength_m = SPEED_OF_LIGHT_M_S / (fc_ghz * 1e9)
    base_amplitude = wavelength_m / (4.0 * math.pi * d * 1e3)
    rays: list[Ray] = []
    offsets = [0]
    psi_deg = []
    for idx, altitude in enumerate(geometry.altitudes_km):
        rng = np.random.default_rng([seed, idx])
        psi = altitude_to_elevation(altitude, d)
        los = _los_ray(psi, d, fc_ghz, _shadow_db(psi, psi2, rng))
        rays.append(los)
        if not los_only:
            if rng.random() < min(1.0, 1.05 * math.exp(-psi.psi_deg / 30.0) * radius_factor):
                rays.append(_ground_ray(base_amplitude, los[2], psi, radius_factor, rng))
            mean_extra = (
                _BUILDING_MEAN_AT_HORIZON
                * math.exp(-psi.psi_deg / _BUILDING_PSI_SCALE_DEG)
                * radius_factor**3
            )
            count = int(min(max_extra_rays, rng.poisson(mean_extra)))
            if count > 0:
                rays.extend(
                    _building_rays(base_amplitude, los[2], psi, radius_factor, count, rng)
                )
        offsets.append(len(rays))
        psi_deg.append(psi.psi_deg)
    columns = np.array(rays, dtype=float).reshape(-1, len(RAY_COLUMNS) + 1)
    table = RayTable(
        dict(zip(RAY_COLUMNS, columns.T)),
        columns[:, -1] != 0.0,
        offsets,
        geometry.altitudes_km,
        d,
    )
    assert table.psi_deg.tolist() == psi_deg
    return table


def assert_bit_identical(got: RayTable, want: RayTable) -> None:
    for name in (*RAY_COLUMNS, "is_los", "offsets", "psi_deg", "altitude_km"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.arc_radius_km == want.arc_radius_km


# Altitudes from near the horizon to the zenith, so that every branch runs:
# shadowed and clear LOS, ground rays and up to the Poisson cap of building rays.
ORACLE_PSI_GRID = (0.6, 1.0, 2.0, 3.5, 5.0, 7.5, 10.0, 12.0, 14.0, 16.0, 20.0, 25.0,
                   30.0, 40.0, 55.0, 70.0, 85.0, 90.0)


class TestMatchesPerSnapshotGenerators:
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**32 + 5, 2**70 + 3])
    @pytest.mark.parametrize("d_km", [300.0, 400.0, 600.0])
    def test_full_scenario(self, seed, d_km):
        geo = make_geometry(d_km, ORACLE_PSI_GRID)
        psi2 = default_psi2(d_km)
        assert_bit_identical(synth_scenario(geo, 10.0, psi2, seed=seed),
                             reference_synth_scenario(geo, 10.0, psi2, seed=seed))

    @pytest.mark.parametrize("los_only", [False, True])
    @pytest.mark.parametrize("max_extra_rays", [0, 3, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2**70 + 3])
    def test_settings(self, los_only, max_extra_rays, seed):
        geo = make_geometry(300.0, ORACLE_PSI_GRID)
        psi2 = default_psi2(300.0)
        kwargs = dict(los_only=los_only, max_extra_rays=max_extra_rays, seed=seed)
        assert_bit_identical(synth_scenario(geo, 20.0, psi2, **kwargs),
                             reference_synth_scenario(geo, 20.0, psi2, **kwargs))

    def test_long_pass(self):
        # A dense low-elevation pass draws every kind of ray thousands of times.
        d_km = 400.0
        alts = tuple(d_km * math.sin(math.radians(p)) for p in np.linspace(0.5, 90.0, 2000))
        geo = PassGeometry(arc_radius_km=d_km, gs_height_km=0.023, altitudes_km=alts)
        psi2 = default_psi2(d_km)
        assert_bit_identical(synth_scenario(geo, 10.0, psi2, seed=7),
                             reference_synth_scenario(geo, 10.0, psi2, seed=7))

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            synth_scenario(make_geometry(400.0), 10.0, default_psi2(400.0), seed=-1)


class TestBoundedMemory:
    """A pass is built in one flat float buffer and seeded a chunk of rows at a
    time, so synthesis holds no Python object per ray or per snapshot."""

    # The buffer takes eight floats a ray, about the table's own bytes (seven
    # float columns, a bool column and three per-snapshot arrays).  Building
    # the table adds its sorted copy, the phase, snapshot and sort-order
    # columns and the elevation lists: about three tables in all, at any
    # pass length once a stream chunk is small beside the pass.  A list of
    # one tuple of floats a ray peaked at 8.5 tables.
    LIMIT = 4.0

    @staticmethod
    def table_bytes(table: RayTable) -> int:
        return sum(getattr(table, name).nbytes for name in
                   (*RAY_COLUMNS, "is_los", "offsets", "psi_deg", "altitude_km"))

    # 64-row stream chunks put 16 and 32 chunks in these passes, as 1024-row
    # chunks do in passes of 16 000 and 32 000 altitudes.
    @pytest.mark.parametrize("n_altitudes", [1000, 2000])
    def test_peak_is_a_few_tables(self, monkeypatch, n_altitudes):
        monkeypatch.setattr(streams, "_CHUNK_ROWS", 64)
        d_km = 400.0
        alts = tuple(d_km * (i + 1) / n_altitudes for i in range(n_altitudes))
        geo = PassGeometry(arc_radius_km=d_km, gs_height_km=0.023, altitudes_km=alts)
        psi2 = default_psi2(d_km)
        # A first pass, so that the peak counts no one-off allocation of numpy's.
        synth_scenario(make_geometry(d_km), 10.0, psi2)
        tables = []
        peak = tracemalloc_peak(lambda: tables.append(synth_scenario(geo, 10.0, psi2, seed=1)))
        assert peak <= self.LIMIT * self.table_bytes(tables[0])
