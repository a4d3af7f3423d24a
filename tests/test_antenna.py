import math

import numpy as np
import pytest

from chansim.antenna import (
    AntennaModel,
    gain_dbi,
    misalignment_loss_db,
    spatial_filter,
)
from conftest import make_snapshot

ISO = AntennaModel()
SINGLE_2DEG = AntennaModel(kind="single-element", peak_gain_dbi=35.0, hpbw_deg=2.0)


def af_bruteforce_db(n, spacing, steer_deg, angle_deg):
    """Brute-force array factor: explicit sum over elements."""
    u = math.sin(math.radians(angle_deg)) - math.sin(math.radians(steer_deg))
    total = sum(np.exp(1j * 2.0 * math.pi * spacing * k * u) for k in range(n))
    return 20.0 * math.log10(abs(total) / n)


class TestGain:
    def test_isotropic_everywhere(self):
        for off in (0.0, 10.0, -90.0, 180.0):
            assert gain_dbi(ISO, off, 0.0) == 0.0
            assert gain_dbi(ISO, 0.0, off) == 0.0

    def test_single_element_half_power(self):
        assert gain_dbi(SINGLE_2DEG, 1.0, 0.0) == pytest.approx(35.0 - 3.0, rel=1e-12)
        assert gain_dbi(SINGLE_2DEG, 0.0, 1.0) == pytest.approx(35.0 - 3.0, rel=1e-12)

    def test_single_element_floor(self):
        # 2*HPBW off: 48 dB by the lobe model, clipped at the 30 dB floor
        assert gain_dbi(SINGLE_2DEG, 4.0, 0.0) == pytest.approx(35.0 - 30.0)

    def test_array_boresight_peak(self):
        arr = AntennaModel(kind="phased-array", peak_gain_dbi=20.0, nx=3, ny=3)
        assert gain_dbi(arr, 0.0, 0.0) == pytest.approx(20.0, rel=1e-12)

    def test_array_first_null(self):
        # broadside 3-element row, d = 0.5 wavelengths: null at sin(th) = 2/3
        arr = AntennaModel(kind="phased-array", peak_gain_dbi=0.0, nx=3, ny=1, floor_db=300.0)
        null_deg = math.degrees(math.asin(2.0 / 3.0))
        assert gain_dbi(arr, null_deg, 0.0) < -250.0

    @pytest.mark.parametrize("steer", [0.0, 30.0, 60.0, 75.0])
    @pytest.mark.parametrize("offset", [0.5, 1.7, 3.0, 8.0])
    def test_array_matches_bruteforce(self, steer, offset):
        arr = AntennaModel(
            kind="phased-array", peak_gain_dbi=10.0, nx=8, ny=5,
            steer_az_deg=steer, floor_db=500.0,
        )
        expected = (
            10.0
            + af_bruteforce_db(8, 0.5, steer, steer + offset)
            + af_bruteforce_db(5, 0.5, 0.0, 0.0)
        )
        assert gain_dbi(arr, offset, 0.0) == pytest.approx(expected, abs=1e-9)

    def test_array_peak_at_steering_direction(self):
        for steer in (0.0, 30.0, 60.0, 75.0):
            arr = AntennaModel(
                kind="phased-array", peak_gain_dbi=0.0, nx=16, ny=1, steer_az_deg=steer
            )
            offsets = np.arange(-90.0 - steer, 90.0 - steer, 0.1)
            offsets = offsets[(offsets >= -180.0) & (offsets <= 180.0)]
            gains = [gain_dbi(arr, float(o), 0.0) for o in offsets]
            best = offsets[int(np.argmax(gains))]
            assert abs(best) <= 0.1 + 1e-9

    def test_beamwidth_narrows_with_elements(self):
        def half_power_width(n):
            arr = AntennaModel(kind="phased-array", peak_gain_dbi=0.0, nx=n, ny=1)
            for off in np.arange(0.05, 90.0, 0.05):
                if gain_dbi(arr, float(off), 0.0) <= -3.0:
                    return off
            return 90.0

        widths = [half_power_width(n) for n in (3, 9, 30, 60)]
        assert widths == sorted(widths, reverse=True)
        assert all(a > b for a, b in zip(widths, widths[1:]))

    def test_offset_range_validation(self):
        with pytest.raises(ValueError):
            gain_dbi(ISO, 181.0, 0.0)


class TestMisalignment:
    def test_zero_offset_zero_loss(self):
        arr = AntennaModel(kind="phased-array", peak_gain_dbi=12.0, nx=60, ny=60)
        for model in (ISO, SINGLE_2DEG, arr):
            assert misalignment_loss_db(model, 0.0, 0.0) == 0.0

    def test_single_element_half_beamwidth(self):
        assert misalignment_loss_db(SINGLE_2DEG, 1.0, 0.0) == pytest.approx(3.0, rel=1e-12)

    def test_steered_array_beats_single_antenna_at_3deg(self):
        arr = AntennaModel(
            kind="phased-array", peak_gain_dbi=35.0, nx=60, ny=60,
            steer_az_deg=75.0,
        )
        loss_array = misalignment_loss_db(arr, 3.0, 0.0)
        loss_single = misalignment_loss_db(SINGLE_2DEG, 3.0, 0.0)
        assert loss_array < loss_single
        assert loss_array > 0.0

    def test_single_element_monotone_in_main_lobe(self):
        losses = [misalignment_loss_db(SINGLE_2DEG, d, 0.0) for d in np.arange(0.0, 3.0, 0.1)]
        assert all(b >= a for a, b in zip(losses, losses[1:]))


class TestSpatialFilter:
    def test_isotropic_identity(self, two_ray_snapshot):
        out = spatial_filter(two_ray_snapshot, ISO, ISO)
        assert out == two_ray_snapshot

    def test_gs_lobe_weighting(self):
        snap = make_snapshot([(1e-8, 0.0, 0.0, True), (1e-8, 0.0, 1e-9)], psi_deg=30.0,
                             aoa_az_deg=[10.0, 14.0], aoa_el_deg=[30.0, 30.0])
        gs = AntennaModel(
            kind="single-element", peak_gain_dbi=35.0, hpbw_deg=2.0,
            steer_az_deg=10.0, steer_el_deg=30.0,
        )
        out = spatial_filter(snap, ISO, gs)
        los, off_lobe = out.amplitude.tolist()
        assert los == pytest.approx(1e-8 * 10 ** (35.0 / 20.0), rel=1e-12)
        # 2*HPBW off boresight: at least 12 dB below peak (floor-clipped at 30)
        rel_db = 20.0 * math.log10(off_lobe / los)
        assert rel_db <= -12.0

    def test_angles_unchanged(self, two_ray_snapshot):
        out = spatial_filter(two_ray_snapshot, SINGLE_2DEG, SINGLE_2DEG)
        for name in ("aoa_az_deg", "aod_el_deg", "delay_s"):
            assert getattr(out, name).tolist() == getattr(two_ray_snapshot, name).tolist()

    def test_filter_then_power_is_linear(self):
        snap = make_snapshot([(1.0, 0.0, 0.0, True), (0.5, 1.0, 1e-9)])
        gs = AntennaModel(kind="single-element", peak_gain_dbi=6.0, hpbw_deg=40.0)
        out = spatial_filter(snap, ISO, gs)
        for before, after, az, el in zip(snap.amplitude, out.amplitude, snap.aoa_az_deg,
                                         snap.aoa_el_deg):
            expected = before * before * 10.0 ** (gain_dbi(gs, az, el) / 10.0)
            assert after * after == pytest.approx(expected, rel=1e-12)


class TestModelValidation:
    def test_single_needs_hpbw(self):
        with pytest.raises(ValueError):
            AntennaModel(kind="single-element", peak_gain_dbi=10.0)

    @pytest.mark.parametrize("hpbw", [1e-300, 1e200], ids=["underflow", "overflow"])
    def test_single_hpbw_square_in_range(self, hpbw):
        # gain_dbi divides by the HPBW squared.
        with pytest.raises(ValueError, match="HPBW whose square is positive and finite"):
            AntennaModel(kind="single-element", peak_gain_dbi=10.0, hpbw_deg=hpbw)

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            AntennaModel(kind="horn")

    @pytest.mark.parametrize("el", [90.5, -90.5, 150.0])
    def test_steering_beyond_ray_elevations(self, el):
        with pytest.raises(ValueError, match=r"steer_el_deg must be in \[-90, 90\] deg"):
            AntennaModel(steer_el_deg=el)
        with pytest.raises(ValueError, match=r"steer_el_deg must be in \[-90, 90\] deg"):
            AntennaModel().steered(0.0, el)

    def test_steered_copy(self):
        arr = AntennaModel(kind="phased-array", nx=4, ny=4)
        steered = arr.steered(10.0, 5.0)
        assert steered.steer_az_deg == 10.0
        assert arr.steer_az_deg == 0.0
