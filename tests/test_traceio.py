import tracemalloc
import warnings

import numpy as np
import pytest

from chansim.cli import main
from chansim.errors import TraceError
from chansim.geometry import PassGeometry, default_psi2
from chansim.mpc import RAY_COLUMNS, RayTable, first_bad_ray
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
        with pytest.raises(TraceError, match=": line 1: empty trace file$"):
            load_trace(path)

    def test_header_only(self, tmp_path):
        # The fault names the last line read, blank or not.
        path = tmp_path / "empty.csv"
        for tail, line in [("", 1), ("\n \n", 3)]:
            path.write_text(HEADER + "\n" + tail)
            with pytest.raises(TraceError, match=f": line {line}: trace file holds no rows$"):
                load_trace(path)

    @pytest.mark.parametrize("tail, line", [("", 2), ("\n  \n", 4)],
                             ids=["no-rows", "blank-rows"])
    def test_column_row_without_data_rows(self, tmp_path, capsys, tail, line):
        # np.loadtxt given no rows warns; the loader refuses the file before it.
        path = tmp_path / "t.csv"
        path.write_text(HEADER + "\n" + COLS + "\n" + tail)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["linkbudget", "--trace", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"chansim: input error: {path}: line {line}: trace file holds no rows\n")

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


    @pytest.mark.parametrize("radius", ["4_00", "\u0664\u0660\u0660"],
                             ids=["underscore", "arabic-indic"])
    def test_radius_parsed_as_row_cells_are(self, tmp_path, capsys, radius):
        # float() read both as 400 km, while a row cell of either form is refused.
        path = tmp_path / "t.csv"
        path.write_text(
            f"# chansim-trace v1 arc_radius_km={radius} amplitude=linear\n" + COLS + "\n"
            + "50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,0\n", encoding="utf-8"
        )
        assert main(["linkbudget", "--trace", str(path), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            f"chansim: input error: {path}: line 1: bad arc_radius_km: "
            f"could not convert string '{radius}' to float64\n")
        assert not (tmp_path / "o").exists()


class TestHeaderItems:
    """Line 1 gives arc_radius_km, amplitude and p_tx_dbm, each at most once; an
    unknown item was ignored and a repeated one silently took the last value."""

    UNKNOWN = "unknown header item {!r}; expected one of arc_radius_km, amplitude, p_tx_dbm"

    @pytest.mark.parametrize("items, message", [
        ("fc_ghz=20.0", UNKNOWN.format("fc_ghz")),
        ("carrier=whatever", UNKNOWN.format("carrier")),
        ("arc_radius_km=500.0", "header item 'arc_radius_km' given twice"),
        ("amplitude=linear", "header item 'amplitude' given twice"),
        ("p_tx_dbm=30.0 p_tx_dbm=30.0", "header item 'p_tx_dbm' given twice"),
    ])
    def test_names_line_1_and_exits_3(self, tmp_path, capsys, items, message):
        path = tmp_path / "t.csv"
        path.write_text(f"{HEADER} {items}\n{COLS}\n50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,0\n")
        assert main(["linkbudget", "--trace", str(path), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"chansim: input error: {path}: line 1: {message}\n"

    def test_each_item_once_in_any_order_loads(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# chansim-trace v1 p_tx_dbm=30.0 amplitude=linear arc_radius_km=500.0\n"
                        f"{COLS}\n50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,0\n")
        assert load_trace(path).arc_radius_km == 500.0


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

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_ptx_names_line_1(self, tmp_path, capsys, value):
        # inf made every gain 0 and the run exit 0; -inf and nan blamed line 3.
        path = tmp_path / "t.csv"
        path.write_text(
            f"# chansim-trace v1 arc_radius_km=400.0 amplitude=dbm p_tx_dbm={value}\n"
            + COLS + "\n" + "50.0,-134.49,0.0,0.001,180.0,-7.0,0.0,7.0,0\n"
            + "50.0,-140.0,0.0,0.002,180.0,-7.0,0.0,7.0,1\n"
        )
        assert main(["linkbudget", "--trace", str(path), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (f"chansim: input error: {path}: line 1: "
                                           f"bad p_tx_dbm: must be finite, got {value}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("amplitude", [" amplitude=linear", ""], ids=["linear", "default"])
    @pytest.mark.parametrize("value, message", [
        ("abc", "could not convert string to float: 'abc'"),
        ("inf", "must be finite, got inf"),
        ("nan", "must be finite, got nan"),
        ("3_0", "could not convert string '3_0' to float64"),
        ("\u0663\u0660", "could not convert string '\u0663\u0660' to float64"),
    ])
    def test_bad_ptx_under_linear_names_line_1(self, tmp_path, capsys, amplitude, value,
                                               message):
        # Linear amplitudes do not use p_tx_dbm, but a given one must still parse.
        path = tmp_path / "t.csv"
        path.write_text(
            f"# chansim-trace v1 arc_radius_km=400.0{amplitude} p_tx_dbm={value}\n"
            + COLS + "\n" + "50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,0\n", encoding="utf-8"
        )
        assert main(["linkbudget", "--trace", str(path), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (f"chansim: input error: {path}: line 1: "
                                           f"bad p_tx_dbm: {message}\n")
        assert not (tmp_path / "o").exists()


class TestSave:
    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_trace(sample_snapshots().take([]), tmp_path / "t.csv")

    @pytest.mark.parametrize("is_los", [[True, False, True, False], [True, False, False, False]],
                             ids=["both-los", "one-los"])
    def test_adjacent_equal_altitudes_refused(self, tmp_path, is_los):
        # Saved as one run of 50 km rows, these two snapshots loaded back as a
        # duplicate LOS ray, or as one merged snapshot.
        ray = (1e-9, 0.0, 1e-3, 180.0, -7.0, 0.0, 7.0)
        table = RayTable(dict(zip(RAY_COLUMNS, zip(*[ray] * 4))), is_los, [0, 2, 4],
                         [50.0, 50.0], 400.0)
        with pytest.raises(ValueError, match="adjacent snapshots share altitude 50.0 km"):
            save_trace(table, tmp_path / "t.csv")
        assert list(tmp_path.iterdir()) == []

    def test_repeated_altitude_apart_round_trips(self, tmp_path):
        # Equal altitudes with another snapshot between them stay two snapshots.
        table = sample_snapshots().take([0, 1, 0])
        assert table.altitude_km.tolist() == [50.0, 136.0, 50.0]
        path = tmp_path / "t.csv"
        save_trace(table, path)
        assert load_trace(path) == table


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


ROW = "50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,{}"


def trace_text(rows, newline="\n", final=True):
    text = newline.join([HEADER, COLS, *rows])
    return text + newline if final else text


class TestStreamedLines:
    """Loading streams the file: its lines end at \\n, \\r or \\r\\n, and a
    fault anywhere in it is named by its line as the file object counts them."""

    ROWS = [ROW.format(0), ROW.format(1), ROW.replace("50.0", "60.0").format(0)]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    @pytest.mark.parametrize("final", [True, False])
    def test_endings_load_the_same(self, tmp_path, newline, final):
        path = tmp_path / "t.csv"
        path.write_bytes(trace_text(self.ROWS, newline, final).encode())
        expected = tmp_path / "lf.csv"
        expected.write_text(trace_text(self.ROWS))
        assert load_trace(path) == load_trace(expected)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("final", [True, False])
    def test_fault_on_the_last_line_is_named(self, tmp_path, newline, final):
        path = tmp_path / "t.csv"
        rows = [*self.ROWS[:2], "", self.ROWS[2].replace("0.001", "-0.001")]
        path.write_bytes(trace_text(rows, newline, final).encode())
        with pytest.raises(TraceError, match="line 6: delay must be non-negative"):
            load_trace(path)
        rows[-1] = "60.0,1e-9"
        path.write_bytes(trace_text(rows, newline, final).encode())
        with pytest.raises(TraceError, match="line 6: expected 9 fields, got 2"):
            load_trace(path)

    @pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    def test_other_unicode_breaks_do_not_end_a_line(self, tmp_path, char):
        # str.splitlines would split here; a CSV row ends only at \n or \r.
        path = tmp_path / "t.csv"
        path.write_text(trace_text([ROW.format(0) + char + ROW.format(1)]))
        with pytest.raises(TraceError, match="line 3: expected 9 fields, got 17"):
            load_trace(path)

    @pytest.mark.parametrize("char", ["\v", "\f", "\x1c", "\x85", "\u2028"])
    def test_whitespace_only_line_is_one_blank_line(self, tmp_path, char):
        path = tmp_path / "t.csv"
        path.write_text(trace_text([ROW.format(0), char + char, ROW.format(0)]))
        with pytest.raises(TraceError, match="line 5: duplicate LOS ray"):
            load_trace(path)


class TestUnreadableBytes:
    """A byte that is not UTF-8 makes the file unreadable (exit 3), wherever
    it lies and whatever else is wrong before it."""

    def write(self, tmp_path, header, first_row):
        # Well past the first 64 KiB, so the fault is met mid-stream.
        text = trace_text([first_row] + [ROW.format(1)] * 5000).replace(HEADER, header, 1)
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode() + b"50.0,\xff\n")
        assert path.stat().st_size > 2 * 65536
        return path

    @pytest.mark.parametrize("header,first_row", [
        (HEADER, ROW.format(0)),
        (HEADER, "50.0,x"),
        (HEADER, ROW.format(0).replace("0.001", "-0.001")),
        ("# chansim-trace v1 amplitude=linear", ROW.format(0)),
    ], ids=["valid", "parse-fault", "field-fault", "header-fault"])
    def test_exits_3_as_unreadable(self, tmp_path, capsys, header, first_row):
        path = self.write(tmp_path, header, first_row)
        message = f"cannot read trace file {path}: {self.whole_file_fault(path)}"
        with pytest.raises(TraceError) as err:
            load_trace(path)
        assert str(err.value) == message
        assert main(["linkbudget", "--trace", str(path), "--out", str(tmp_path / "o")]) == 3
        assert message in capsys.readouterr().err

    @staticmethod
    def whole_file_fault(path) -> str:
        with pytest.raises(UnicodeDecodeError) as err:
            path.read_bytes().decode("utf-8")
        return str(err.value)

    @pytest.mark.parametrize("cut", [65535, 65536, 65537, 131072])
    @pytest.mark.parametrize("bad", [b"\xe2\x82", b"\xe2\x82(", b"\xff", b"\xf0\x9f\x98"])
    def test_position_counts_from_the_first_byte(self, tmp_path, cut, bad):
        # Blank lines of an em space (3 bytes), so some cuts split a character.
        text = trace_text([ROW.format(0)] + [ROW.format(1), "\u2003"] * 3000).encode()
        path = tmp_path / "t.csv"
        path.write_bytes(text[:cut] + bad + text[cut:])
        with pytest.raises(TraceError) as err:
            load_trace(path)
        assert str(err.value) == f"cannot read trace file {path}: {self.whole_file_fault(path)}"


class TestPastNumpyChunk:
    """np.loadtxt parses 50 000 rows per chunk; a fault past it keeps its line."""

    N_ROWS = 50_010

    def write(self, tmp_path, bad_row: int, bad: str):
        # A blank line after every 10 000 rows shifts the line numbers.
        lines = [HEADER, COLS]
        for i in range(self.N_ROWS):
            if i and i % 10_000 == 0:
                lines.append("")
            lines.append(bad if i == bad_row else ROW.format(int(i > 0)))
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("bad,match", [
        ("50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0", "expected 9 fields, got 8"),
        ("50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,91.0,1", "elevation"),
        ("50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,-1", "negative interaction count"),
        ("50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,0", "duplicate LOS ray"),
    ], ids=["parse", "field", "count", "snapshot"])
    def test_fault_named_by_its_line(self, tmp_path, bad, match):
        bad_row = 50_003
        # Two header lines and five blank lines come before that row.
        path = self.write(tmp_path, bad_row, bad)
        with pytest.raises(TraceError, match=f"line {bad_row + 1 + 2 + 5}: {match}"):
            load_trace(path)

    def test_valid_rows_load(self, tmp_path):
        table = load_trace(self.write(tmp_path, 0, ROW.format(0)))
        assert table.n_rays == self.N_ROWS and int(table.is_los.sum()) == 1


def generated_table(n_snapshots=40, n_rays=500, seed=3):
    """A valid pass of n_snapshots x n_rays random rays, one LOS ray each."""
    rng = np.random.default_rng(seed)
    n = n_snapshots * n_rays
    columns = {
        "amplitude": rng.uniform(1e-10, 1e-8, n),
        "phase_rad": rng.uniform(0.0, 2 * np.pi, n),
        "delay_s": rng.uniform(1e-3, 2e-3, n),
        "aod_az_deg": rng.uniform(0.0, 360.0, n),
        "aod_el_deg": rng.uniform(-90.0, 90.0, n),
        "aoa_az_deg": rng.uniform(0.0, 360.0, n),
        "aoa_el_deg": rng.uniform(-90.0, 90.0, n),
    }
    is_los = np.zeros(n, dtype=bool)
    is_los[::n_rays] = True
    altitudes = 500.0 * np.arange(1, n_snapshots + 1) / n_snapshots
    return RayTable(columns, is_los, np.arange(0, n + 1, n_rays), altitudes, 500.0)


class TestBoundedMemory:
    """Loading and saving hold the ray table and a chunk, never the whole text."""

    LIMIT = 1.5

    @staticmethod
    def peak_bytes(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_load_peak(self, tmp_path):
        path = tmp_path / "t.csv"
        save_trace(generated_table(), path)
        size = path.stat().st_size
        assert self.peak_bytes(lambda: load_trace(path)) <= self.LIMIT * size

    def test_save_peak(self, tmp_path):
        table = generated_table()
        path = tmp_path / "t.csv"
        peak = self.peak_bytes(lambda: save_trace(table, path))
        assert peak <= self.LIMIT * path.stat().st_size
        assert load_trace(path) == table


class TestSingleRowCheck:
    """numpy alone decides whether a line parses; the rows before the first line it
    rejects are checked by the same rule as a file it accepts, in one call."""

    @pytest.mark.parametrize("bad_row", [1, 2049, 50_003])
    def test_row_check_runs_once_whatever_the_row(self, tmp_path, monkeypatch, bad_row):
        from chansim import traceio

        calls = []

        def counted(columns):
            calls.append(len(columns["amplitude"]))
            return first_bad_ray(columns)

        monkeypatch.setattr(traceio, "first_bad_ray", counted)
        path = TestPastNumpyChunk().write(tmp_path, bad_row, ROW.format(1)[:-2])
        with pytest.raises(TraceError, match="expected 9 fields, got 8"):
            load_trace(path)
        assert calls == [bad_row]

    @pytest.mark.parametrize("field,value,column,dtype", [
        (1, "1_000", 2, "float64"),
        (1, "١٢", 2, "float64"),
        (8, "99999999999999999999", 9, "int64"),
    ], ids=["underscore", "arabic-indic-digits", "count-beyond-int64"])
    def test_numpy_only_rejection_named_by_its_line(self, tmp_path, field, value, column, dtype):
        # float() and int() take these values; np.loadtxt does not.
        parts = ROW.format(1).split(",")
        parts[field] = value
        path = tmp_path / "t.csv"
        path.write_text(trace_text([ROW.format(0), "", "", ",".join(parts)]))
        message = f"line 6: could not convert string '{value}' to {dtype} in column {column}"
        with pytest.raises(TraceError) as err:
            load_trace(path)
        assert str(err.value) == f"{path}: {message}"

    def test_rejected_line_before_a_later_row_fault(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(trace_text([ROW.format(0), ROW.format(1).replace("1e-9", "1_000"),
                                    ROW.format(-1)]))
        with pytest.raises(TraceError, match="line 4: could not convert string '1_000'"):
            load_trace(path)

    def test_row_fault_before_the_rejected_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(trace_text([ROW.format(0), ROW.format(-1), "50.0,x"]))
        with pytest.raises(TraceError, match="line 4: negative interaction count"):
            load_trace(path)


DBM_HEADER = "# chansim-trace v1 arc_radius_km=400.0 amplitude=dbm p_tx_dbm=30.0"


class TestDbmBeyondFloatRange:
    """A dBm power too large for a float is a bad amplitude of its own line, reported
    as one stderr line with no warning, whatever follows it."""

    @pytest.mark.parametrize("later", [[], ["50.0,1e-9"]], ids=["alone", "later-bad-row"])
    def test_one_line_naming_line_3(self, tmp_path, capsys, later):
        rows = [ROW.format(0).replace("1e-9", "1e308"), *later]
        path = tmp_path / "t.csv"
        path.write_text(trace_text(rows).replace(HEADER, DBM_HEADER))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["linkbudget", "--trace", str(path), "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert err == (f"chansim: input error: {path}: line 3: amplitude must be "
                       "non-negative and finite, got inf\n")
