import numpy as np
import pytest

from chansim.cli import main
from chansim.errors import TraceError
from chansim.geometry import PassGeometry, default_psi2
from chansim.mpc import RAY_COLUMNS, RayTable
from chansim.synth import synth_scenario
from chansim.traceio import load_trace, save_trace


def sample_snapshots():
    rays = [
        # (amplitude, phase_rad, delay_s, aod_az, aod_el, aoa_az, aoa_el)
        (3.1e-9, 0.25, 1.334226e-3, 180.0, -7.18, 0.0, 7.18),
        (1.2e-9, 4.0, 1.3342265e-3, 180.01, -7.18, 213.0, -6.5),
        (3.1e-9, 1.5, 1.334226e-3, 180.0, -19.88, 0.0, 19.88),
    ]
    return RayTable(
        dict(zip(RAY_COLUMNS, zip(*rays))),
        [True, False, True],
        [0, 2, 3],
        [50.0, 136.0],
        400.0,
    )


HEADER = "# chansim-trace v1 arc_radius_km=400.0 amplitude=linear"
COLS = (
    "altitude_km,amplitude,phase_rad,delay_s,aod_az_deg,aod_el_deg,"
    "aoa_az_deg,aoa_el_deg,n_interactions"
)


class TestRoundTrip:
    def test_save_load_exact(self, tmp_path):
        path = tmp_path / "trace.csv"
        snapshots = sample_snapshots()
        save_trace(snapshots, path)
        assert load_trace(path) == snapshots

    def test_double_round_trip_bytes(self, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        save_trace(sample_snapshots(), p1)
        save_trace(load_trace(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestLoadValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="not found"):
            load_trace(tmp_path / "nope.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TraceError):
            load_trace(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(HEADER + "\n")
        with pytest.raises(TraceError, match="no rows"):
            load_trace(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# chansim-trace v9 arc_radius_km=400\n" + COLS + "\n")
        with pytest.raises(TraceError, match="version"):
            load_trace(path)

    def test_missing_arc_radius(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# chansim-trace v1 amplitude=linear\n" + COLS + "\n")
        with pytest.raises(TraceError, match="arc_radius_km"):
            load_trace(path)

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            HEADER + "\n" + COLS + "\n" + "50.0,1e-9,0.0,0.001\n"
        )
        with pytest.raises(TraceError, match="line 3"):
            load_trace(path)

    def test_duplicate_los_reports_line(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [
            "50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,0",
            "50.0,2e-9,0.0,0.002,180.0,-7.0,10.0,5.0,0",
        ]
        path.write_text(HEADER + "\n" + COLS + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(TraceError, match="line 4.*duplicate LOS"):
            load_trace(path)

    @pytest.mark.parametrize("rows,match", [
        (["50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,1",
          "50.0,1e-9,0.0,0.001,360.0,-7.0,0.0,7.0,1",
          "50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,x"], "line 4: azimuth 360.0"),
        (["50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,1",
          "50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,1.0",
          "50.0,-1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,1"], "line 4: invalid literal for int"),
        (["50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,99.0,-1",
          "50.0,-1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,1"], "line 3: negative interaction"),
        (["50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,1",
          "50.0,1e-9,0.0,-0.001,180.0,-7.0,0.0,99.0,1",
          "50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,-1"], "line 4: delay must be non-negative"),
    ], ids=["range-before-parse", "parse-before-range", "count-before-range",
            "range-before-count"])
    def test_first_bad_line_reported(self, tmp_path, rows, match):
        path = tmp_path / "t.csv"
        path.write_text(HEADER + "\n" + COLS + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(TraceError, match=match):
            load_trace(path)

    def test_blank_lines_keep_line_numbers(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            HEADER + "\n\n" + COLS + "\n\n  \n"
            + "50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,0\n\n"
            + "50.0,2e-9,0.0,0.002,180.0,-7.0,10.0,5.0,0\n"
        )
        with pytest.raises(TraceError, match="line 8.*duplicate LOS"):
            load_trace(path)

    def test_altitude_above_arc_radius(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            HEADER + "\n" + COLS + "\n" + "401.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,0\n"
        )
        with pytest.raises(TraceError):
            load_trace(path)


class TestNonFiniteFields:
    # One ray with a NaN amplitude, one with an infinite phase, one with a
    # NaN delay: each loaded before and wrote nan cells with exit 0.
    ROWS = [
        "50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,0",
        "50.0,nan,0.5,0.002,180.0,-7.0,10.0,5.0,1",
        "60.0,1e-9,inf,0.001,180.0,-7.0,0.0,7.0,0",
        "60.0,1e-9,0.0,nan,180.0,-7.0,10.0,5.0,1",
    ]

    def write(self, tmp_path, rows, header=HEADER):
        path = tmp_path / "t.csv"
        path.write_text(header + "\n" + COLS + "\n" + "\n".join(rows) + "\n")
        return path

    @pytest.mark.parametrize("sub", ["linkbudget", "spreads"])
    def test_cli_exits_3_naming_the_line(self, tmp_path, capsys, sub):
        path = self.write(tmp_path, self.ROWS)
        assert main([sub, "--trace", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "line 4: amplitude must be non-negative and finite, got nan" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("field,value,match", [
        (1, "nan", "amplitude must be non-negative and finite, got nan"),
        (1, "inf", "amplitude must be non-negative and finite, got inf"),
        (2, "inf", "phase must be finite, got inf"),
        (2, "-inf", "phase must be finite, got -inf"),
        (2, "nan", "phase must be finite, got nan"),
        (3, "nan", "delay must be non-negative and finite, got nan"),
        (3, "inf", "delay must be non-negative and finite, got inf"),
    ])
    def test_each_field_must_be_finite(self, tmp_path, field, value, match):
        parts = self.ROWS[0].split(",")
        parts[field] = value
        path = self.write(tmp_path, [self.ROWS[0], ",".join(parts)])
        with pytest.raises(TraceError, match=f"line 4: {match}"):
            load_trace(path)

    def test_infinite_dbm_power_is_refused(self, tmp_path):
        header = "# chansim-trace v1 arc_radius_km=400.0 amplitude=dbm p_tx_dbm=30.0"
        rows = ["50.0,-134.49,0.0,0.001,180.0,-7.0,0.0,7.0,0",
                "50.0,inf,0.0,0.002,180.0,-7.0,0.0,7.0,1"]
        with pytest.raises(TraceError, match="line 4: amplitude must be non-negative and finite"):
            load_trace(self.write(tmp_path, rows, header))
        # -inf dBm is a zero gain, which stays valid.
        rows[1] = rows[1].replace("inf", "-inf")
        assert load_trace(self.write(tmp_path, rows, header)).amplitude[1] == 0.0


class TestHeaderArcRadius:
    @pytest.mark.parametrize("radius", ["nan", "inf", "0", "-400.0"])
    def test_bad_radius_names_line_1(self, tmp_path, capsys, radius):
        path = tmp_path / "t.csv"
        path.write_text(
            f"# chansim-trace v1 arc_radius_km={radius} amplitude=linear\n" + COLS + "\n"
            + "50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,0\n"
        )
        with pytest.raises(TraceError, match="line 1: bad arc_radius_km: arc radius"):
            load_trace(path)
        assert main(["linkbudget", "--trace", str(path), "--out", str(tmp_path / "o")]) == 3
        assert "line 1" in capsys.readouterr().err


class TestFaultOrder:
    """Line faults first, then each snapshot's duplicate LOS, then its altitude."""

    ROWS = [
        "401.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,0",
        "50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,0",
        "50.0,2e-9,0.0,0.002,180.0,-7.0,10.0,5.0,0",
        "60.0,1e-9,0.0,-0.001,180.0,-7.0,0.0,7.0,1",
    ]

    def load(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        path.write_text(HEADER + "\n" + COLS + "\n" + "\n".join(rows) + "\n")
        return load_trace(path)

    def test_field_fault_before_snapshot_rules(self, tmp_path):
        with pytest.raises(TraceError, match="line 6: delay must be non-negative"):
            self.load(tmp_path, self.ROWS)

    def test_snapshot_rules_in_snapshot_order(self, tmp_path):
        with pytest.raises(TraceError, match=r"line 3: altitude 401.0 km outside \(0, 400.0\] km"):
            self.load(tmp_path, self.ROWS[:3])
        with pytest.raises(TraceError, match="line 4: duplicate LOS ray for altitude 50.0 km"):
            self.load(tmp_path, self.ROWS[1:3] + self.ROWS[:1])

    def test_duplicate_los_before_altitude_in_one_snapshot(self, tmp_path):
        rows = [r.replace("50.0,", "450.0,", 1) for r in self.ROWS[1:3]]
        with pytest.raises(TraceError, match="line 4: duplicate LOS ray for altitude 450.0 km"):
            self.load(tmp_path, rows)


class TestDbmConversion:
    def test_power_rows_convert_to_linear_gain(self, tmp_path):
        path = tmp_path / "t.csv"
        header = "# chansim-trace v1 arc_radius_km=400.0 amplitude=dbm p_tx_dbm=30.0"
        # received -134.49 dBm at 30 dBm TX -> gain 10^(-164.49/20)
        path.write_text(
            header + "\n" + COLS + "\n"
            + "50.0,-134.49,0.0,0.001,180.0,-7.0,0.0,7.0,0\n"
        )
        assert load_trace(path).amplitude[0] == pytest.approx(
            10.0 ** (-164.49 / 20.0), rel=1e-12
        )

    def test_dbm_header_requires_ptx(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "# chansim-trace v1 arc_radius_km=400.0 amplitude=dbm\n" + COLS + "\n"
            + "50.0,-134.49,0.0,0.001,180.0,-7.0,0.0,7.0,0\n"
        )
        with pytest.raises(TraceError, match="p_tx_dbm"):
            load_trace(path)


class TestSave:
    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_trace(sample_snapshots().take([]), tmp_path / "t.csv")


class TestNumpyBuiltPass:
    def test_numpy_geometry_round_trips(self, tmp_path):
        geo = PassGeometry(
            arc_radius_km=np.float64(400.0),
            gs_height_km=np.float64(0.023),
            altitudes_km=np.array([25.0, 136.0, 371.0]),
        )
        snapshots = synth_scenario(geo, 10.0, default_psi2(400.0), seed=1)
        path = tmp_path / "trace.csv"
        save_trace(snapshots, path)
        assert "np." not in path.read_text()
        loaded = load_trace(path)
        assert loaded == snapshots
        assert loaded.altitude_km.tolist() == [25.0, 136.0, 371.0]
