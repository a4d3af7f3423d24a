import copy
import csv
import io
import json
import math
import pickle
import random
import re
import threading
import time
import typing
from collections.abc import Mapping
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from chansim import config as config_mod
from chansim import report
from chansim import traceio
from chansim.antenna import AntennaModel
from chansim.atmosphere import AtmosphereParams
from chansim.cli import main
from chansim.config import (
    DEFAULT_ALTITUDES_KM,
    ClusteringConfig,
    FadingConfig,
    NtnConfig,
    ScenarioConfig,
    SynthConfig,
    apply_overrides,
    load_config,
)
from chansim.errors import ConfigError, FieldError, Interval, NumericError
from chansim.fading import RicianParams, ShadowedRicianParams
from chansim.geometry import PassGeometry
from chansim.report import run_report
from conftest import assert_config_refused

BASE_CONFIG = {
    "pass": {
        "arc_radius_km": 400.0,
        "gs_height_km": 0.023,
        "altitudes_km": [5.0, 25.0, 50.0, 136.0, 264.0, 371.0],
    },
    "fc_ghz": 10.0,
    "p_tx_dbm": 30.0,
    "seed": 1,
}


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(BASE_CONFIG))
    return path


def read_csv(path: Path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfig:
    def test_defaults(self):
        cfg = load_config(None)
        assert cfg.geometry.arc_radius_km == 400.0
        assert cfg.atmosphere.rain_rate_mmh == 32.0
        assert cfg.psi2(400.0).psi_deg == pytest.approx(14.477512185929925)

    def test_file_overrides_defaults(self, config_file):
        cfg = load_config(config_file)
        assert cfg.geometry.altitudes_km == (5.0, 25.0, 50.0, 136.0, 264.0, 371.0)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("frequency: 10\n")
        with pytest.raises(ConfigError, match="unknown top-level"):
            load_config(path)

    def test_unknown_section_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("clustering: {radius: 0.3}\n")
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(path)

    def test_bad_mode_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("modes: {coherent: octopus}\n")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("key", ["coherent", "slant", "misalignment"])
    def test_bad_mode_value_names_key(self, tmp_path, capsys, key):
        path = tmp_path / "bad.yaml"
        path.write_text(f"modes: {{{key}: octopus}}\n")
        assert main(["linkbudget", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert f"config key 'modes.{key}' must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("terms,message", [
        ("[rain, hail]",
         "config key 'weather' must be one of ('clouds', 'rain', 'snow'), got 'hail'"),
        ("[[rain]]", "config key 'weather' must be a list, each item a string"),
        ("rain", "config key 'weather' must be a list, each item a string"),
    ], ids=["unknown", "nested", "scalar"])
    def test_bad_weather_in_file_rejected(self, tmp_path, capsys, terms, message):
        path = tmp_path / "bad.yaml"
        path.write_text(f"weather: {terms}\n")
        assert main(["linkbudget", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert message in capsys.readouterr().err

    def test_negative_seed_in_file_names_seed(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("seed: -1\n")
        with pytest.raises(ConfigError, match=r"config key 'seed' must be in \[0, inf\), got -1"):
            load_config(path)
        assert main(["linkbudget", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_negative_seed_flag_names_seed(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match=r"seed must be in \[0, inf\), got -1"):
            apply_overrides(ScenarioConfig(), seed=-1)
        assert main(["linkbudget", "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        assert "seed" in capsys.readouterr().err

    def test_readme_example_scenario_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Example scenario file:\n\n```yaml\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "scenario.yaml"
        path.write_text(block)
        assert main(["linkbudget", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_invalid_yaml_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("pass: {altitudes_km: [5.0, 25.0}\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(path)

    def test_libyaml_and_python_loaders_agree(self, tmp_path, monkeypatch):
        path = tmp_path / "full.yaml"
        path.write_text(
            "pass: {arc_radius_km: 500, gs_height_km: 0.023, altitudes_km: [5, 2.5e+1, 499.5]}\n"
            "fc_ghz: 2.0e1\n"
            "atmosphere: {k_rn: 6.5e-2, epsilon: 1.2E0, k_sn: 4e-3, rain_rate_mmh: .32e2}\n"
            "weather: [rain, snow]\n"
            "misalign_az_deg: -0.3\n"
            "fading: {psi2_deg: null, fit_samples: 1000}\n"
            "ntn: {psi1_deg: 10, psi2_deg: 15.0,"
            " sigma_db: {NTN-TDL-A: 8.0, NTN-TDL-B: 6, NTN-TDL-C: 4.0}}\n"
            "modes: {coherent: phasor-sum, slant: itu-piecewise}\n"
            "seed: 7\n"
        )
        fast = load_config(path)
        assert (fast.fc_ghz, fast.atmosphere.k_sn, fast.atmosphere.rain_rate_mmh) == (
            20.0, 4e-3, 32.0)
        monkeypatch.setattr(config_mod, "_YAML_LOADER", config_mod._yaml_loader(yaml.SafeLoader))
        assert load_config(path) == fast

    @pytest.mark.parametrize("base", [getattr(yaml, "CSafeLoader", yaml.SafeLoader),
                                      yaml.SafeLoader], ids=["libyaml", "python"])
    @pytest.mark.parametrize("text,message", [
        ("seed: 3\npass: {arc_radius_km: 400.0}\nseed: 5\n",
         "config key 'seed' given twice, on lines 1 and 3"),
        ("pass:\n  arc_radius_km: 400.0\n  gs_height_km: 0.023\n  arc_radius_km: 500.0\n",
         "config key 'arc_radius_km' given twice, on lines 2 and 4"),
    ], ids=["top-level", "nested"])
    def test_repeated_key_refused(self, tmp_path, capsys, monkeypatch, base, text, message):
        monkeypatch.setattr(config_mod, "_YAML_LOADER", config_mod._yaml_loader(base))
        path = tmp_path / "twice.yaml"
        path.write_text(text)
        assert main(["linkbudget", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"chansim: config error: {message}\n"

    @pytest.mark.parametrize("base", [getattr(yaml, "CSafeLoader", yaml.SafeLoader),
                                      yaml.SafeLoader], ids=["libyaml", "python"])
    def test_merged_keys_may_repeat(self, tmp_path, monkeypatch, base):
        # An explicit key overrides a merged one, and a mapping merged before it
        # is constructed is not refused for the keys merged into it.
        text = ("outer:\n  b: &b {<<: &a {x: 1}, x: 2}\n"
                "c: {<<: *b, y: 3}\nd: {<<: [*a, *b], x: 4}\n")
        assert yaml.load(text, Loader=config_mod._yaml_loader(base)) == {
            "outer": {"b": {"x": 2}}, "c": {"x": 2, "y": 3}, "d": {"x": 4}}
        monkeypatch.setattr(config_mod, "_YAML_LOADER", config_mod._yaml_loader(base))
        path = tmp_path / "merged.yaml"
        path.write_text("pass: {<<: {arc_radius_km: 500.0, gs_height_km: 0.05},"
                        " arc_radius_km: 450.0, altitudes_km: [5.0]}\n")
        geometry = load_config(path).geometry
        assert (geometry.arc_radius_km, geometry.gs_height_km) == (450.0, 0.05)

    @pytest.mark.parametrize("spelling", ["4e-3", "4E-3", "+4e-3", "40e-4", "0.0004e1", ".0004e1"])
    def test_exponent_without_point_or_sign_is_a_number(self, tmp_path, spelling):
        # YAML 1.1 reads these as strings: its floats need a decimal point and a signed exponent.
        path = tmp_path / "exponent.yaml"
        path.write_text(f"atmosphere: {{k_sn: {spelling}}}\n")
        assert load_config(path).atmosphere.k_sn == 0.004

    def test_quoted_exponent_stays_a_string(self, tmp_path):
        path = tmp_path / "quoted.yaml"
        path.write_text("fc_ghz: '2e1'\n")
        with pytest.raises(ConfigError, match="config key 'fc_ghz' must be a number, got '2e1'"):
            load_config(path)

    def test_flag_overrides_beat_file(self, config_file):
        cfg = load_config(config_file)
        out = apply_overrides(cfg, weather_add={"rain"}, seed=99)
        assert out.weather == frozenset({"rain"})
        assert out.seed == 99
        # original untouched
        assert cfg.weather == frozenset()

    @pytest.mark.parametrize("text,key", [
        ("pass: {arc_radius_km: 400.0, altitudes_km: [5.0], direction: ascending}\n", "direction"),
        ("atmosphere: {fc_ghz: 20.0}\n", "fc_ghz"),
        ("fading: {m_shadow: 1.0}\n", "m_shadow"),
        ("ntn: {tap_file: taps.csv}\n", "tap_file"),
    ], ids=["pass.direction", "atmosphere.fc_ghz", "fading.m_shadow", "ntn.tap_file"])
    def test_removed_keys_rejected(self, tmp_path, capsys, text, key):
        path = tmp_path / "old.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"unknown keys .*'{key}'"):
            load_config(path)
        assert main(["linkbudget", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert key in capsys.readouterr().err

    def test_nonpositive_carrier_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("fc_ghz: 0\n")
        with pytest.raises(ConfigError, match="fc_ghz"):
            load_config(path)

    def test_ntn_sigma_partial_override_keeps_defaults(self, tmp_path):
        path = tmp_path / "sigma.yaml"
        path.write_text("ntn: {sigma_db: {NTN-TDL-A: 2}}\n")
        sigmas = load_config(path).ntn.sigma_db
        assert sigmas == {"NTN-TDL-A": 2.0, "NTN-TDL-B": 6.0, "NTN-TDL-C": 4.0}
        assert all(type(v) is float for v in sigmas.values())

    @pytest.mark.parametrize("sigma_db,match", [
        ("{A: 8.0}", "unknown profile names"),
        ("{NTN-TDL-B: -1.0}", r"'ntn.sigma_db.NTN-TDL-B' must be in \[0, inf\), got -1.0"),
        ("{NTN-TDL-B: .nan}", "'ntn.sigma_db.NTN-TDL-B' must be a number, got nan"),
        ("{NTN-TDL-C: loud}", "must be a number"),
        ("{NTN-TDL-C: true}", "must be a number"),
        ("[8.0, 6.0, 4.0]", "'ntn.sigma_db' must be a mapping"),
    ], ids=["unknown-name", "negative", "nan", "string", "bool", "list"])
    def test_ntn_sigma_rejected(self, tmp_path, sigma_db, match):
        path = tmp_path / "sigma.yaml"
        path.write_text(f"ntn: {{sigma_db: {sigma_db}}}\n")
        with pytest.raises(ConfigError, match=match):
            load_config(path)

    @pytest.mark.parametrize("number", [np.float32(5.0), np.int64(5), np.float64(5.0)])
    def test_ntn_sigma_takes_numpy_reals(self, number):
        sigmas = NtnConfig(sigma_db={"NTN-TDL-A": number}).sigma_db
        assert sigmas["NTN-TDL-A"] == 5.0 and type(sigmas["NTN-TDL-A"]) is float

    @pytest.mark.parametrize("flag", [True, np.True_])
    def test_ntn_sigma_refuses_bools(self, flag):
        with pytest.raises(ValueError, match=r"^sigma_db\.NTN-TDL-A must be a number, got True$"):
            NtnConfig(sigma_db={"NTN-TDL-A": flag})

    def test_ntn_sigma_int_beyond_float_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "sigma.yaml"
        path.write_text(f"ntn: {{sigma_db: {{NTN-TDL-A: 1{'0' * 400}}}}}\n")
        with pytest.raises(ConfigError, match="must be a number"):
            load_config(path)
        assert main(["ntn-compare", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "must be a number" in capsys.readouterr().err

    def test_config_hashes_and_sigmas_are_read_only(self, tmp_path):
        # The sigmas were a plain dict: hashing raised, and assignment changed a checked config.
        assert hash(ScenarioConfig()) == hash(ScenarioConfig())
        cfg = ScenarioConfig()
        with pytest.raises(TypeError):
            cfg.ntn.sigma_db["NTN-TDL-A"] = math.nan
        assert cfg.ntn.sigma_db["NTN-TDL-A"] == 8.0
        path = tmp_path / "defaults.yaml"
        path.write_text(
            "pass: {arc_radius_km: 400, gs_height_km: 0.023,"
            " altitudes_km: [5, 25, 50, 90, 136, 200, 264, 330, 371, 398]}\n"
            "fc_ghz: 10\n"
            "p_tx_dbm: 30\n"
            "ntn: {psi1_deg: 10, psi2_deg: 15,"
            " sigma_db: {NTN-TDL-C: 4, NTN-TDL-A: 8, NTN-TDL-B: 6}}\n"
            "clustering: {xi: 0.3, zeta: 2}\n"
            "seed: 1\n"
        )
        loaded = load_config(path)
        assert loaded == ScenarioConfig()
        assert hash(loaded) == hash(ScenarioConfig())

    @pytest.mark.parametrize("key", [
        "fc_ghz", "p_tx_dbm", "l_hd_db", "misalign_az_deg", "misalign_el_deg",
        "elevation_floor_deg", "seed",
    ])
    @pytest.mark.parametrize("value", ["ten", "true", "[1.0]", "{a: 1}", "null"])
    def test_top_level_scalar_types_rejected(self, tmp_path, capsys, key, value):
        assert_config_refused(tmp_path, capsys, f"{key}: {value}\n", key, key)

    @pytest.mark.parametrize("text,key", [
        ("fading: {fit_samples: abc}", "fading.fit_samples"),
        ("fading: {fit_samples: 20000.5}", "fading.fit_samples"),
        ("clustering: {xi: abc}", "clustering.xi"),
        ("ntn: {psi1_deg: abc}", "ntn.psi1_deg"),
        ("fading: {psi2_deg: abc}", "fading.psi2_deg"),
        ("synth: {max_extra_rays: abc}", "synth.max_extra_rays"),
        ("antennas: {ground: {steer_az_deg: abc}}", "antennas.ground.steer_az_deg"),
        ("antennas: {ground: {kind: phased-array, nx: 2.5}}", "antennas.ground.nx"),
        ("synth: {los_only: 'yes please'}", "synth.los_only"),
        ("fading: {designate_strongest_los: 'no'}", "fading.designate_strongest_los"),
        ("pass: {altitudes_km: [5.0, true]}", "pass.altitudes_km"),
    ])
    def test_section_field_types_rejected(self, tmp_path, capsys, text, key):
        assert_config_refused(tmp_path, capsys, text + "\n",
                              f"config key '{re.escape(key)}' must be", key)

    def test_float_fields_stay_floats(self, tmp_path):
        path = tmp_path / "ints.yaml"
        path.write_text(
            "fc_ghz: 10\nl_hd_db: 2\nseed: 3\n"
            "clustering: {xi: 1, zeta: 2}\nfading: {psi2_deg: 20, fit_samples: 100}\n"
            "antennas: {ground: {kind: single-element, peak_gain_dbi: 35, hpbw_deg: 2}}\n"
        )
        cfg = load_config(path)
        floats = (cfg.fc_ghz, cfg.l_hd_db, cfg.clustering.xi, cfg.fading.psi2_deg,
                  cfg.gs_antenna.peak_gain_dbi, cfg.gs_antenna.hpbw_deg)
        assert all(type(v) is float for v in floats)
        ints = (cfg.seed, cfg.clustering.zeta, cfg.fading.fit_samples)
        assert all(type(v) is int for v in ints)
        out = tmp_path / "o"
        assert main(["linkbudget", "--config", str(path), "--out", str(out)]) == 0
        header, rows = read_csv(out / "linkbudget.csv")
        assert {row[header.index("l_hd_db")] for row in rows} == {"2.0"}
        assert '"fc_ghz": 10.0,' in (out / "summary.json").read_text()

    @pytest.mark.parametrize("atmosphere", ["", "atmosphere: {k_rn: 0.05}\n",
                                            "atmosphere: {epsilon: 1.0}\n"],
                             ids=["neither", "k_rn-only", "epsilon-only"])
    def test_other_carrier_needs_rain_coefficients(self, tmp_path, capsys, atmosphere):
        path = tmp_path / "carrier.yaml"
        path.write_text("fc_ghz: 20.0\n" + atmosphere)
        assert main(["linkbudget", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "atmosphere.k_rn" in err and "atmosphere.epsilon" in err

    def test_other_carrier_with_rain_coefficients_runs(self, tmp_path):
        path = tmp_path / "carrier.yaml"
        path.write_text("fc_ghz: 20.0\natmosphere: {k_rn: 0.05, epsilon: 1.0}\n")
        out = tmp_path / "o"
        assert main(["linkbudget", "--config", str(path), "--out", str(out), "--rain"]) == 0
        assert json.loads((out / "summary.json").read_text())["fc_ghz"] == 20.0

    def test_non_integer_seed_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("seed: 1.5\n")
        with pytest.raises(ConfigError, match="seed"):
            load_config(path)

    def test_ntn_threshold_validation(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("ntn: {psi1_deg: 20.0, psi2_deg: 15.0}\n")
        with pytest.raises(ConfigError, match="psi1"):
            load_config(path)

    @pytest.mark.parametrize("text,key,flags", [
        ("fc_ghz: .nan\natmosphere: {k_rn: 0.05, epsilon: 1.0}\n", "fc_ghz", []),
        ("p_tx_dbm: .nan\n", "p_tx_dbm", []),
        ("atmosphere: {rain_rate_mmh: .nan}\n", "rain_rate_mmh", ["--rain"]),
        ("elevation_floor_deg: .nan\n", "elevation_floor_deg", ["--rain"]),
    ], ids=["fc_ghz", "p_tx_dbm", "rain_rate_mmh", "elevation_floor_deg"])
    def test_nan_rejected_naming_key(self, tmp_path, capsys, text, key, flags):
        path = tmp_path / "nan.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        out = tmp_path / "o"
        assert main(["linkbudget", "--config", str(path), "--out", str(out), *flags]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,text,rule", [
        ("misalign_az_deg", "misalign_az_deg: .inf\n", "a number, got inf"),
        ("misalign_az_deg", "misalign_az_deg: 200\nmodes: {misalignment: per-ray}\n",
         "in [-180, 180], got 200.0"),
        ("misalign_el_deg", "misalign_el_deg: -180.5\n", "in [-180, 180], got -180.5"),
        # An int beyond float range raised OverflowError from the range check.
        ("misalign_az_deg", f"misalign_az_deg: {10**400}\n", f"a number, got {10**400}"),
    ], ids=["inf", "per-ray-200", "el-below", "int-beyond-float"])
    def test_misalignment_range_checked_at_load(self, tmp_path, capsys, key, text, rule):
        assert_config_refused(tmp_path, capsys, text,
                              re.escape(f"config key '{key}' must be {rule}"), key)

    def test_misalignment_flag_range_names_key(self, tmp_path, capsys):
        code = main(["linkbudget", "--misalign-az", "200", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "misalign_az_deg must be in [-180, 180], got 200.0" in capsys.readouterr().err

    @pytest.mark.parametrize("key,text,flags", [
        ("steer_el_deg", "antennas: {ground: {steer_el_deg: 150}}\n", []),
        ("steer_el_deg", "antennas: {satellite: {steer_el_deg: -95}}\n", []),
        ("misalign_el_deg", "antennas: {ground: {steer_el_deg: 60}}\nmisalign_el_deg: 40\n"
         "modes: {misalignment: per-ray}\n", []),
        ("misalign_el_deg", "modes: {misalignment: per-ray}\n", ["--misalign-el", "-150"]),
    ], ids=["ground-150", "satellite-95", "per-ray-file", "per-ray-flag"])
    def test_steering_beyond_ray_elevations_names_key(self, tmp_path, capsys, key, text, flags):
        # Ray elevations lie in [-90, 90]: a pointing outside that range would
        # fail mid-run, or not, depending on the pass.
        path = tmp_path / "steer.yaml"
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["linkbudget", "--config", str(path), "--out", str(out), *flags]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_aggregate_misalignment_takes_any_elevation_offset(self, tmp_path):
        assert main(["linkbudget", "--misalign-el", "-150", "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("text,message", [
        ("ntn: {psi1_deg: -5, psi2_deg: 200}\n", "'ntn.psi1_deg' must be in (0, 90), got -5.0"),
        ("ntn: {psi1_deg: 10, psi2_deg: 200}\n", "'ntn.psi2_deg' must be in (0, 90], got 200.0"),
    ], ids=["psi1-negative", "psi2-above"])
    def test_ntn_thresholds_beyond_elevations_name_key(self, tmp_path, capsys, text, message):
        # select_profile would label every row by one profile, whatever the elevation.
        path = tmp_path / "ntn.yaml"
        path.write_text(text)
        out = tmp_path / "o"
        assert main(["ntn-compare", "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("hpbw", ["1.0e-300", "1.0e+200"], ids=["underflow", "overflow"])
    def test_hpbw_square_out_of_range_names_section(self, tmp_path, capsys, hpbw):
        # gain_dbi divides by the HPBW squared: 0/0 wrote nan cells, and an
        # overflowing square raised OverflowError mid-run.
        path = tmp_path / "hpbw.yaml"
        path.write_text(f"antennas: {{ground: {{kind: single-element, hpbw_deg: {hpbw}}}}}\n")
        out = tmp_path / "o"
        assert main(["linkbudget", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "antennas.ground" in err and "HPBW whose square is positive and finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("sub", report.SUBCOMMANDS)
    def test_carrier_without_a_wavelength_names_key(self, tmp_path, capsys, sub):
        # 1e300 GHz overflows in Hz, so the wavelength would be 0.
        path = tmp_path / "huge-fc.yaml"
        path.write_text("fc_ghz: 1.0e+300\natmosphere: {k_rn: 0.1, epsilon: 1.0}\n")
        out = tmp_path / "o"
        assert main([sub, "--config", str(path), "--out", str(out)]) == 2
        assert "fc_ghz: frequency 1e+300 GHz has no positive finite wavelength" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_rain_needs_gs_below_rain_height(self, tmp_path, capsys):
        # The rain slant path runs from the GS up to the rain height.
        path = tmp_path / "high-gs.yaml"
        path.write_text("pass: {arc_radius_km: 400.0, gs_height_km: 6.0,"
                        " altitudes_km: [100.0, 200.0]}\n")
        with pytest.raises(ConfigError, match="pass.gs_height_km 6.0 below atmosphere.h_rain_km"):
            apply_overrides(load_config(path), weather_add={"rain"})
        out = tmp_path / "o"
        assert main(["linkbudget", "--config", str(path), "--out", str(out), "--rain"]) == 2
        err = capsys.readouterr().err
        assert "pass.gs_height_km" in err and "atmosphere.h_rain_km" in err
        assert not out.exists()
        assert main(["linkbudget", "--config", str(path), "--out", str(out),
                     "--clouds", "--snow"]) == 0

    @pytest.mark.parametrize("gains", [(0.0, 1.0e5), (1.0e308, 1.0e308)],
                             ids=["power-overflows", "sum-infinite"])
    def test_antenna_gains_that_overflow_name_both_keys(self, tmp_path, capsys, gains):
        # spatial_filter scales amplitudes by 10^((G_sat + G_gs)/20): beyond
        # float range every power became an 'unbounded' cell.
        g_sat, g_gs = gains
        path = tmp_path / "huge-gain.yaml"
        path.write_text(f"antennas: {{satellite: {{kind: phased-array, peak_gain_dbi: {g_sat!r}}},"
                        f" ground: {{kind: single-element, peak_gain_dbi: {g_gs!r},"
                        " hpbw_deg: 2.0}}\n")
        keys = ("antennas.satellite.peak_gain_dbi", "antennas.ground.peak_gain_dbi")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert all(key in str(err.value) for key in keys)
        out = tmp_path / "o"
        assert main(["linkbudget", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys) and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("atmosphere", [
        "{rain_rate_mmh: 1.0e+300, epsilon: 5.0}",
        "{k_rn: 1.0e+300, rain_rate_mmh: 1.0e+10, epsilon: 1.0}",
    ], ids=["power-overflows", "product-infinite"])
    def test_rain_attenuation_that_overflows_names_keys(self, tmp_path, capsys, atmosphere):
        # k_rn * rain_rate ** epsilon raised OverflowError mid-run.
        path = tmp_path / "huge-rain.yaml"
        path.write_text(f"atmosphere: {atmosphere}\n")
        with pytest.raises(ConfigError, match=r"atmosphere\.k_rn \* atmosphere\.rain_rate_mmh "
                                              r"\*\* atmosphere\.epsilon"):
            apply_overrides(load_config(path), weather_add={"rain"})
        out = tmp_path / "o"
        assert main(["linkbudget", "--config", str(path), "--out", str(out), "--rain"]) == 2
        err = capsys.readouterr().err
        assert "atmosphere.rain_rate_mmh" in err and "Traceback" not in err
        assert not out.exists()
        assert main(["linkbudget", "--config", str(path), "--out", str(out),
                     "--clouds", "--snow"]) == 0


class TestConfigTypes:
    """Every config type checks its own fields, however it is built."""

    @pytest.mark.parametrize("changes,match", [
        ({"coherent_mode": "octopus"}, r"mode must be one of \('power-sum', 'phasor-sum'\)"),
        ({"slant_mode": "octopus"}, r"mode must be one of \('as-printed', 'itu-piecewise'\)"),
        ({"misalign_mode": "octopus"}, r"mode must be one of \('aggregate', 'per-ray'\)"),
        ({"weather": frozenset({"hail"})}, "weather must be one of"),
        ({"fc_ghz": 0.0}, r"fc_ghz must be in \(0, inf\), got 0.0"),
        ({"fc_ghz": -5.0}, r"fc_ghz must be in \(0, inf\), got -5.0"),
        ({"seed": -1}, r"seed must be in \[0, inf\), got -1"),
        ({"geometry": PassGeometry(arc_radius_km=400.0)}, "at least one altitude sample"),
        ({"fc_ghz": math.nan}, "fc_ghz must be a number, got nan"),
        ({"p_tx_dbm": math.nan}, "p_tx_dbm must be a number"),
        ({"l_hd_db": math.nan}, "l_hd_db must be a number"),
        ({"elevation_floor_deg": math.nan}, "elevation_floor_deg must be a number"),
        ({"misalign_az_deg": math.nan}, "misalign_az_deg must be a number"),
        ({"misalign_az_deg": math.inf}, "misalign_az_deg must be a number, got inf"),
        ({"misalign_el_deg": 180.5}, r"misalign_el_deg must be in \[-180, 180\], got 180.5"),
        ({"misalign_mode": "per-ray", "misalign_el_deg": -90.5}, "misalign_el_deg -90.5 steers"),
        ({"weather": frozenset({"rain"}),
          "geometry": PassGeometry(arc_radius_km=400.0, gs_height_km=6.0, altitudes_km=(100.0,))},
         "rain needs pass.gs_height_km 6.0 below atmosphere.h_rain_km 5.0"),
        ({"weather": frozenset({"rain"}), "atmosphere": AtmosphereParams(h_rain_km=0.023)},
         "rain needs pass.gs_height_km 0.023 below atmosphere.h_rain_km 0.023"),
        ({"fc_ghz": 1e-310, "atmosphere": AtmosphereParams(k_rn=0.1, epsilon=1.0)},
         "fc_ghz: frequency 1e-310 GHz has no positive finite wavelength"),
    ])
    def test_scenario_checked_at_construction_and_replace(self, changes, match):
        with pytest.raises(ValueError, match=match):
            ScenarioConfig(**changes)
        with pytest.raises(ValueError, match=match):
            replace(ScenarioConfig(), **changes)

    def test_short_arc_needs_explicit_psi2(self):
        geometry = PassGeometry(arc_radius_km=80.0, altitudes_km=(20.0,))
        with pytest.raises(ValueError, match="fading.psi2_deg explicitly"):
            ScenarioConfig(geometry=geometry)
        cfg = ScenarioConfig(geometry=geometry, fading=FadingConfig(psi2_deg=10.0))
        assert cfg.psi2(80.0).psi_deg == 10.0

    @pytest.mark.parametrize("build,match", [
        (lambda: ClusteringConfig(xi=0), r"xi must be in \(0, inf\), got 0.0"),
        (lambda: ClusteringConfig(zeta=0), r"zeta must be in \[1, inf\), got 0"),
        (lambda: FadingConfig(fit_samples=10), r"fit_samples must be in \[100, inf\), got 10"),
        (lambda: FadingConfig(psi2_deg=91.0), r"\(0, 90\]"),
        (lambda: NtnConfig(psi1_deg=20, psi2_deg=15), "psi1_deg must be below"),
        (lambda: NtnConfig(psi1_deg=-5, psi2_deg=200), r"psi1_deg must be in \(0, 90\), got -5.0"),
        (lambda: NtnConfig(psi1_deg=0.0), r"psi1_deg must be in \(0, 90\), got 0.0"),
        (lambda: NtnConfig(psi2_deg=90.5), r"psi2_deg must be in \(0, 90\], got 90.5"),
    ], ids=["xi", "zeta", "fit_samples", "psi2_deg", "ntn-order", "ntn-psi1-negative",
            "ntn-psi1-zero", "ntn-psi2-above"])
    def test_sections_checked_at_construction(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()


# Every config type; a field declared with errors.ranged carries its rule in its metadata.
CONFIG_TYPES = (ScenarioConfig, PassGeometry, AtmosphereParams, FadingConfig, NtnConfig,
                ClusteringConfig, SynthConfig, AntennaModel, RicianParams, ShadowedRicianParams)
RANGED = [(cls, f.name, f.metadata["allowed"])
          for cls in CONFIG_TYPES for f in fields(cls) if "allowed" in f.metadata]
# Required fields, and the pass's one altitude, at values no joint rule refuses.
REQUIRED = {PassGeometry: {"arc_radius_km": 400.0, "altitudes_km": [5.0]},
            RicianParams: {"k": 1.0, "omega": 1.0},
            ShadowedRicianParams: {"k": 1.0, "m": 1.0, "omega": 1.0}}


def _config_key(cls, name: str) -> str | None:
    """The config file key that sets field ``name`` of ``cls``, or None if none does."""
    if cls is ScenarioConfig:
        return config_mod._MODE_KEYS.get(name, name)
    if cls is AntennaModel:
        return f"antennas.ground.{name}"
    return next((f"{key}.{name}" for key, (_, section) in config_mod._SECTIONS.items()
                 if section is cls), None)


class TestDeclaredRanges:
    """Each field's declared interval or choices, read from its metadata, is the rule a
    constructor and a config file meet, and a refusal names the key and the value."""

    @pytest.mark.parametrize("cls,name,allowed", RANGED,
                             ids=[f"{cls.__name__}.{name}" for cls, name, _ in RANGED])
    def test_ends_and_just_outside(self, tmp_path, capsys, cls, name, allowed):
        hint = typing.get_type_hints(cls)[name]
        origin = typing.get_origin(hint)
        key = _config_key(cls, name)
        if origin is Mapping:  # a mapping field's rule holds for each entry
            def given(x):
                return {"NTN-TDL-A": x}
            named = f"{key}.NTN-TDL-A"
        else:
            def given(x):
                return [x] if origin is frozenset else x
            named = key

        def build(x):
            return cls(**{**REQUIRED.get(cls, {}), name: given(x)})

        def config_text(x):
            *sections, leaf = key.split(".")
            data = node = {}
            for section in sections:
                node = node.setdefault(section, {})
            node.update({**REQUIRED.get(cls, {}), leaf: given(x)})
            return yaml.safe_dump(data)

        if isinstance(allowed, Interval):
            rule, outside = f"in {allowed.text}", []
            for end, closed, away in ((allowed.low, allowed.low_closed, -1),
                                      (allowed.high, allowed.high_closed, 1)):
                if hint is int and math.isfinite(end):
                    end = int(end)
                if closed:
                    build(end)
                    if key:
                        path = tmp_path / "ok.yaml"
                        path.write_text(config_text(end))
                        load_config(path)
                else:
                    with pytest.raises(FieldError):
                        build(end)
                if math.isfinite(end):
                    outside.append(end + away if hint is int
                                   else math.nextafter(end, away * math.inf))
        else:
            rule, outside = f"one of {allowed!r}", ["octopus"]
        for x in outside:
            with pytest.raises(FieldError, match=re.escape(f"must be {rule}, got {x!r}")):
                build(x)
            if key:
                message = f"config key '{named}' must be {rule}, got {x!r}"
                assert_config_refused(tmp_path, capsys, config_text(x),
                                      f"^{re.escape(message)}$", f"'{named}'")

    def test_every_config_type_declares_some(self):
        assert {cls for cls, _, _ in RANGED} == set(CONFIG_TYPES)

    def test_readme_table_is_the_declared_rules(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = {key: values.split(" (the")[0] for key, values in
                 re.findall(r"^  \| `([^`]+)`[^|]* \| (.+?) \|$", readme, re.MULTILINE)}
        assert table == {
            _config_key(cls, name).replace("antennas.ground.", "antennas.*."):
                allowed.text if isinstance(allowed, Interval)
                else ", ".join(f"`{choice}`" for choice in allowed)
            for cls, name, allowed in RANGED if _config_key(cls, name)}


class TestRunReport:
    def test_linkbudget_outputs(self, tmp_path):
        cfg = ScenarioConfig()
        summary = run_report(cfg, "linkbudget", tmp_path)
        header, rows = read_csv(tmp_path / "linkbudget.csv")
        assert header == [
            "psi_deg", "altitude_km", "l_total_db", "p_rx_dbm", "p_coh_dbm",
            "l_hd_db", "l_am_db", "l_atm_db", "fspl_db",
        ]
        assert len(rows) == summary["n_snapshots"] == len(cfg.geometry.altitudes_km)
        alts = [float(r[1]) for r in rows]
        assert alts == sorted(alts)
        data = json.loads((tmp_path / "summary.json").read_text())
        assert data["subcommand"] == "linkbudget"

    def test_deterministic_outputs(self, tmp_path):
        cfg = ScenarioConfig()
        run_report(cfg, "spreads", tmp_path / "a")
        run_report(cfg, "spreads", tmp_path / "b")
        assert (tmp_path / "a" / "spreads.csv").read_bytes() == (
            tmp_path / "b" / "spreads.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "summary.json").read_bytes() == (
            tmp_path / "b" / "summary.json"
        ).read_bytes()

    def test_failed_summary_leaves_no_new_file(self, tmp_path, monkeypatch):
        old = tmp_path / "old"
        run_report(ScenarioConfig(seed=1), "ntn-compare", old)
        before = {path.name: path.read_bytes() for path in old.iterdir()}

        def failing_chunks(payload):
            yield "{"
            raise OSError("disk full")

        monkeypatch.setattr(report, "_json_chunks", failing_chunks)
        for out in (old, tmp_path / "new"):
            with pytest.raises(OSError, match="disk full"):
                run_report(ScenarioConfig(seed=2), "ntn-compare", out)
        assert {path.name: path.read_bytes() for path in old.iterdir()} == before
        assert list((tmp_path / "new").iterdir()) == []

    def test_symlink_to_directory_replaced_as_a_file(self, tmp_path):
        # A rename replaces the link itself, so only a real directory is refused.
        linked = tmp_path / "linked"
        linked.mkdir()
        out = tmp_path / "out"
        out.mkdir()
        (out / "summary.json").symlink_to(linked, target_is_directory=True)
        run_report(ScenarioConfig(), "linkbudget", out)
        assert not (out / "summary.json").is_symlink()
        assert json.loads((out / "summary.json").read_text())["subcommand"] == "linkbudget"
        assert list(linked.iterdir()) == []

    def test_cluster_counts_in_expected_range(self, tmp_path):
        summary = run_report(ScenarioConfig(), "cluster", tmp_path)
        counts = [p["n_clusters"] for p in summary["per_snapshot"]]
        assert all(0 <= c <= 3 for c in counts)

    def test_fading_summary_fields(self, tmp_path):
        summary = run_report(ScenarioConfig(), "fading", tmp_path)
        for fit in summary["fits"]:
            assert fit["regime"] in ("shadowed-rician", "rician", "deterministic-los")
        header, rows = read_csv(tmp_path / "fading.csv")
        assert header[:5] == ["psi_deg", "altitude_km", "n_mpcs", "regime", "k_direct"]

    def test_spreads_cdf_samples(self, tmp_path):
        summary = run_report(ScenarioConfig(), "spreads", tmp_path)
        cdf = summary["cdf"]["rms_ds_s"]
        assert cdf["values"] == sorted(cdf["values"])
        assert len(cdf["cum_prob"]) == len(cdf["values"])

    def test_ntn_rows(self, tmp_path):
        summary = run_report(ScenarioConfig(), "ntn-compare", tmp_path)
        header, rows = read_csv(tmp_path / "ntn-compare.csv")
        profiles = {r[2] for r in rows}
        assert profiles <= {"NTN-TDL-A", "NTN-TDL-B", "NTN-TDL-C"}
        assert summary["sigma_db"]["NTN-TDL-A"] == 8.0

    def test_carrier_frequency_reaches_fspl_and_rain(self, tmp_path):
        # fc_ghz is the only carrier frequency: the FSPL column and the rain
        # reduction factor both follow it.
        from chansim.atmosphere import AtmosphereParams, total_atmospheric_db
        from chansim.link_budget import fspl_db

        rain_20ghz = AtmosphereParams(k_rn=0.0751, epsilon=1.099)
        cfg = apply_overrides(ScenarioConfig(fc_ghz=20.0, atmosphere=rain_20ghz),
                              weather_add={"rain"})
        run_report(cfg, "linkbudget", tmp_path)
        _, rows = read_csv(tmp_path / "linkbudget.csv")
        assert len(rows) == len(cfg.geometry.altitudes_km)
        d_km = cfg.geometry.arc_radius_km
        for row in rows:
            psi = [float(row[0])]
            gs_height_km = cfg.geometry.gs_height_km
            assert float(row[8]) == pytest.approx(fspl_db(d_km, 20.0), rel=1e-12)
            [l_atm] = total_atmospheric_db(psi, cfg.atmosphere, gs_height_km, weather={"rain"},
                                           slant_mode=cfg.slant_mode, fc_ghz=20.0)
            assert float(row[7]) == pytest.approx(l_atm, rel=1e-12)
            assert [l_atm] != total_atmospheric_db(psi, cfg.atmosphere, gs_height_km,
                                                   weather={"rain"}, slant_mode=cfg.slant_mode)

    def test_rain_delta_is_rain_term(self, tmp_path):
        cfg = ScenarioConfig()
        run_report(cfg, "linkbudget", tmp_path / "clear")
        rainy_cfg = apply_overrides(cfg, weather_add={"rain"})
        run_report(rainy_cfg, "linkbudget", tmp_path / "rain")
        _, clear = read_csv(tmp_path / "clear" / "linkbudget.csv")
        _, rainy = read_csv(tmp_path / "rain" / "linkbudget.csv")
        from chansim.atmosphere import rain_attenuation_db

        for c, r in zip(clear, rainy):
            psi = [float(c[0])]
            delta = float(r[2]) - float(c[2])
            [expected] = rain_attenuation_db(psi, cfg.atmosphere, cfg.geometry.gs_height_km,
                                             slant_mode=cfg.slant_mode)
            assert delta == pytest.approx(expected, rel=1e-9)


class TestCli:
    def test_linkbudget_run(self, tmp_path, config_file, capsys):
        out = tmp_path / "out"
        code = main([
            "linkbudget", "--config", str(config_file), "--out", str(out), "--rain",
        ])
        assert code == 0
        assert (out / "linkbudget.csv").exists()
        assert (out / "summary.json").exists()
        assert "linkbudget" in capsys.readouterr().out

    def test_all_subcommands_run(self, tmp_path, config_file):
        for name in ("linkbudget", "fading", "spreads", "cluster", "ntn-compare"):
            out = tmp_path / name
            assert main([name, "--config", str(config_file), "--out", str(out)]) == 0
            assert (out / f"{name}.csv").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("ntn: {psi1_deg: 20.0, psi2_deg: 15.0}\n")
        code = main(["linkbudget", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_code(self, tmp_path):
        assert main([
            "linkbudget", "--config", str(tmp_path / "nope.yaml"),
            "--out", str(tmp_path / "o"),
        ]) == 2

    def test_missing_trace_exit_code(self, tmp_path, capsys):
        code = main([
            "linkbudget", "--trace", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert "input error" in capsys.readouterr().err

    def test_numeric_error_exit_code(self, tmp_path, capsys, monkeypatch):
        from chansim import fading
        from chansim.errors import NumericError

        def failing_fit(samples, regime):
            raise NumericError("fit did not converge")

        monkeypatch.setattr(fading, "fit", failing_fit)
        cfg = tmp_path / "numeric.yaml"
        cfg.write_text("pass: {arc_radius_km: 400.0, altitudes_km: [5.0]}\n")
        code = main(["fading", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 4
        assert "numeric error" in capsys.readouterr().err

    def test_trace_input_round_trip(self, tmp_path, config_file):
        from chansim.config import load_config
        from chansim.report import gather_snapshots
        from chansim.traceio import save_trace

        cfg = load_config(config_file)
        snaps = gather_snapshots(cfg, None)
        trace = tmp_path / "trace.csv"
        save_trace(snaps, trace)
        out = tmp_path / "out"
        code = main([
            "spreads", "--config", str(config_file), "--trace", str(trace),
            "--out", str(out),
        ])
        assert code == 0
        data = json.loads((out / "summary.json").read_text())
        assert data["source"] == "trace"

    def test_unflagged_single_ray_names_altitude_and_promotion_rule(self, tmp_path, capsys):
        # designate_strongest_los promotes nothing in a one-ray snapshot; the
        # refusal used to tell the user to pass it.
        config = tmp_path / "scenario.yaml"
        config.write_text("fading: {designate_strongest_los: true}\n")
        trace = _write_trace(tmp_path / "t.csv", 400.0, [50.0, 136.0]).read_text()
        trace = trace.replace("136.0,1e-9,0.0,0.001,180.0,-10.0,0.0,10.0,0",
                              "136.0,1e-9,0.0,0.001,180.0,-10.0,0.0,10.0,1")
        (tmp_path / "t.csv").write_text(trace)
        code = main(["fading", "--config", str(config), "--trace", str(tmp_path / "t.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            "chansim: config error: snapshot at altitude 136.0 km has no LOS-flagged MPC; "
            "flag one: designate_strongest promotes the strongest path only in a snapshot "
            "of more than one ray\n")

    def test_elevation_floor_gates_only_the_weather_terms(self, tmp_path, capsys):
        # The default pass starts at 0.716 deg: under a 1 deg floor the clear
        # sky budget runs, and a 1/sin(psi) term refuses the lowest snapshot.
        path = tmp_path / "floor.yaml"
        path.write_text("elevation_floor_deg: 1.0\n")
        assert main(["linkbudget", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        capsys.readouterr()
        args = ["linkbudget", "--config", str(path), "--out", str(tmp_path / "b"), "--clouds"]
        assert main(args) == 2
        message = "elevation 0.716215896194941 deg below floor 1.0 deg"
        assert capsys.readouterr().err == f"chansim: config error: {message}\n"

    def test_misalign_flags(self, tmp_path, config_file):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg2 = dict(BASE_CONFIG)
        cfg2["antennas"] = {
            "ground": {"kind": "single-element", "peak_gain_dbi": 0.0, "hpbw_deg": 2.0}
        }
        cfg_path = tmp_path / "ant.yaml"
        cfg_path.write_text(yaml.safe_dump(cfg2))
        assert main(["linkbudget", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main([
            "linkbudget", "--config", str(cfg_path), "--out", str(out_b),
            "--misalign-az", "1.0",
        ]) == 0
        _, rows_a = read_csv(out_a / "linkbudget.csv")
        _, rows_b = read_csv(out_b / "linkbudget.csv")
        for a, b in zip(rows_a, rows_b):
            assert float(b[2]) - float(a[2]) == pytest.approx(3.0, rel=1e-9)


SHADOWED_ALTITUDES_KM = [5.0, 15.0, 25.0, 35.0, 45.0, 55.0, 65.0, 75.0, 85.0, 95.0]


class TestFadingPool:
    """Fading rows are sampled and fitted on a pool of report._FADING_THREADS threads."""

    @pytest.fixture
    def fitting_threads(self, monkeypatch):
        from chansim import fading

        names = set()
        real_fit = fading.fit

        def recorded_fit(samples, regime):
            names.add(threading.current_thread().name)
            return real_fit(samples, regime)

        monkeypatch.setattr(fading, "fit", recorded_fit)
        return names

    @pytest.mark.parametrize("altitudes_km", [None, SHADOWED_ALTITUDES_KM, [136.0]],
                             ids=["default", "all-shadowed", "one-row"])
    def test_outputs_equal_on_any_thread_count(self, tmp_path, monkeypatch, fitting_threads,
                                               altitudes_km):
        cfg = ScenarioConfig()
        if altitudes_km is not None:
            cfg = replace(cfg, geometry=replace(cfg.geometry, altitudes_km=altitudes_km))
        outputs = []
        for n in (1, 2, 4):
            monkeypatch.setattr(report, "_FADING_THREADS", n)
            fitting_threads.clear()
            summary = run_report(cfg, "fading", tmp_path / str(n))
            assert 1 <= len(fitting_threads) <= n
            assert threading.current_thread().name not in fitting_threads
            outputs.append([(tmp_path / str(n) / name).read_bytes()
                            for name in ("fading.csv", "summary.json")])
        if altitudes_km == SHADOWED_ALTITUDES_KM:
            assert {fit["regime"] for fit in summary["fits"]} == {"shadowed-rician"}
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.fixture
    def failing_rows(self, monkeypatch):
        """fading.fit raises on rows 3 and 7 of a seed-1 run; row 3 fails last."""
        from chansim import fading, report

        rows = {}
        real_sample = fading.sample

        def tagged_sample(params, n, seed):
            draws = real_sample(params, n, seed)
            rows[id(draws)] = seed - report._row_seed(1, 0)
            return draws

        def failing_fit(samples, regime):
            row = rows[id(samples)]
            if row == 3:
                time.sleep(0.2)
            if row in (3, 7):
                raise NumericError(f"row {row} did not converge")
            return fading.RicianParams(k=1.0, omega=1.0)

        monkeypatch.setattr(fading, "sample", tagged_sample)
        monkeypatch.setattr(fading, "fit", failing_fit)
        return SHADOWED_ALTITUDES_KM

    @pytest.mark.parametrize("n", [1, 4])
    def test_first_failing_row_raises(self, tmp_path, monkeypatch, failing_rows, n):
        monkeypatch.setattr(report, "_FADING_THREADS", n)
        cfg = ScenarioConfig(seed=1)
        cfg = replace(cfg, geometry=replace(cfg.geometry, altitudes_km=failing_rows))
        with pytest.raises(NumericError, match="^row 3 did not converge$"):
            run_report(cfg, "fading", tmp_path / "o")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("n", [1, 4])
    def test_first_failing_row_exits_numeric(self, tmp_path, capsys, monkeypatch,
                                             failing_rows, n):
        monkeypatch.setattr(report, "_FADING_THREADS", n)
        path = tmp_path / "shadowed.yaml"
        path.write_text(yaml.safe_dump({
            "pass": {"arc_radius_km": 400.0, "altitudes_km": failing_rows}, "seed": 1,
        }))
        assert main(["fading", "--config", str(path), "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err
        assert "numeric error" in err and "row 3 did not converge" in err


def write_csv(path: Path, columns: dict) -> None:
    """The CSV of a report's named columns at ``path``, as ``run_report`` writes it."""
    traceio._atomic_write({path: traceio._csv_chunks(columns)})


def write_json(path: Path, payload: dict) -> None:
    """``payload`` as ``run_report`` writes ``summary.json``, at ``path``."""
    traceio._atomic_write({path: report._json_chunks(payload)})


def _row_at_a_time_csv(columns: dict) -> bytes:
    """The CSV bytes of the row-at-a-time writer the chunked one replaced."""

    def cell(value) -> str:
        if value is None:
            return "undefined"
        if isinstance(value, float):
            if math.isinf(value):
                return "unbounded" if value > 0 else "-inf"
            return repr(float(value))
        return str(value)

    lines = [",".join(columns)]
    lines.extend(",".join(map(cell, row)) for row in zip(*columns.values()))
    return ("\n".join(lines) + "\n").encode("utf-8")


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cell cannot be formatted")


class TestWriteCsv:
    """CSVs are formatted a column at a time and written in chunks of rows."""

    @staticmethod
    def columns(n_rows: int) -> dict:
        chunk = traceio._CSV_CHUNK_ROWS

        def mixed(i):
            return (None, math.inf, -math.inf, 7, "regime", np.float64(i) / 3, True, 0.25)[i % 8]

        floats = [math.inf if i % 97 == 5 else -math.inf if i % 89 == 3 else
                  math.nan if i % 83 == 1 else -0.0 if i % 79 == 2 else i * 1e-9 / 7
                  for i in range(n_rows)]
        return {
            "float": floats,
            "finite": [i / 3 for i in range(n_rows)],
            "int": list(range(-3, n_rows - 3)),
            "str": [f"s{i % 5}" for i in range(n_rows)],
            "int_str": [i if i % 2 else "undefined" for i in range(n_rows)],
            "mixed": [mixed(i) for i in range(n_rows)],
            # All floats in the first chunk, a None in the second.
            "late_none": [None if i == chunk + 2 else i * 0.5 for i in range(n_rows)],
        }

    @pytest.mark.parametrize("rows", ["0", "1", "chunk-1", "chunk", "chunk+1", "2chunk+1"])
    def test_bytes_equal_row_at_a_time(self, tmp_path, rows):
        chunk = traceio._CSV_CHUNK_ROWS
        n_rows = {"0": 0, "1": 1, "chunk-1": chunk - 1, "chunk": chunk, "chunk+1": chunk + 1,
                  "2chunk+1": 2 * chunk + 1}[rows]
        columns = self.columns(n_rows)
        write_csv(tmp_path / "t.csv", columns)
        assert (tmp_path / "t.csv").read_bytes() == _row_at_a_time_csv(columns)
        assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]

    def test_error_mid_stream_leaves_no_file(self, tmp_path):
        chunk = traceio._CSV_CHUNK_ROWS
        columns = self.columns(2 * chunk + 1)
        columns["mixed"][chunk + 1] = _Unprintable()
        with pytest.raises(RuntimeError, match="cell cannot be formatted"):
            write_csv(tmp_path / "out" / "t.csv", columns)
        assert list((tmp_path / "out").iterdir()) == []


    @pytest.mark.parametrize("rows", ["0", "1", "chunk-1", "chunk+1"])
    def test_array_columns_equal_list_columns(self, tmp_path, rows):
        chunk = traceio._CSV_CHUNK_ROWS
        n_rows = {"0": 0, "1": 1, "chunk-1": chunk - 1, "chunk+1": chunk + 1}[rows]
        floats = np.array(self.columns(n_rows)["float"], dtype=float)
        arrays = {"float": floats, "int": np.arange(-3, n_rows - 3), "flag": floats > 0}
        write_csv(tmp_path / "arrays.csv", arrays)
        write_csv(tmp_path / "lists.csv", {k: v.tolist() for k, v in arrays.items()})
        assert (tmp_path / "arrays.csv").read_bytes() == (tmp_path / "lists.csv").read_bytes()


def _sentinels_as_text(value):
    """A deep copy of ``value`` with each non-finite float as its CSV text."""
    if isinstance(value, float) and not math.isfinite(value):
        return traceio._fmt(value)
    if isinstance(value, dict):
        return {k: _sentinels_as_text(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sentinels_as_text(v) for v in value]
    return value


class TestWriteJson:
    """summary.json is encoded in batches of pieces, byte-identical to json.dumps."""

    PAYLOADS = {
        "empty": {},
        "nested": {"a": [], "b": {}, "c": [1, [2, {"d": None, "e": "é\u2028"}]], "f": True},
        "sentinels": {"x": math.inf, "y": -math.inf, "z": math.nan,
                      "cdf": {"values": [0.5, math.inf], "n": [None, -0.0]}},
        # Some thousand pieces, so that several batches are written.
        "long": {"fits": [{"psi_deg": i / 7, "k": None if i % 3 else i} for i in range(3000)]},
    }

    @pytest.mark.parametrize("name", PAYLOADS)
    @pytest.mark.parametrize("batch", [1, 2, 3, None])
    def test_bytes_equal_json_dumps(self, tmp_path, monkeypatch, name, batch):
        if batch is not None:
            monkeypatch.setattr(report, "_JSON_BATCH_PIECES", batch)
        payload = self.PAYLOADS[name]
        write_json(tmp_path / "summary.json", payload)
        expected = json.dumps(_sentinels_as_text(payload), indent=2) + "\n"
        assert (tmp_path / "summary.json").read_bytes() == expected.encode("utf-8")

    @pytest.mark.parametrize("name", ["empty", "nested", "long"])
    def test_finite_payload_not_copied(self, name):
        payload = self.PAYLOADS[name]
        assert report._json_safe(payload) is payload

    def test_only_containers_of_sentinels_copied(self):
        payload = self.PAYLOADS["sentinels"]
        safe = report._json_safe(payload)
        assert safe == _sentinels_as_text(payload)
        assert safe["cdf"]["n"] is payload["cdf"]["n"]
        assert payload["x"] == math.inf and payload["cdf"]["values"] == [0.5, math.inf]

    def test_every_batch_boundary(self, tmp_path, monkeypatch):
        monkeypatch.setattr(report, "_JSON_BATCH_PIECES", 4)
        ends = set()
        for n_values in range(1, 9):
            payload = {"a": list(range(n_values))}
            ends.add(len(list(json.JSONEncoder(indent=2).iterencode(payload))) % 4)
            write_json(tmp_path / "summary.json", payload)
            expected = json.dumps(payload, indent=2) + "\n"
            assert (tmp_path / "summary.json").read_bytes() == expected.encode("utf-8")
        # The encodings end at every offset within a batch, the last piece included.
        assert ends == {0, 1, 2, 3}

    def test_unencodable_value_leaves_no_file(self, tmp_path):
        payload = {"fits": list(range(3 * report._JSON_BATCH_PIECES)) + [object()]}
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json(tmp_path / "out" / "summary.json", payload)
        assert list((tmp_path / "out").iterdir()) == []


class TestNumpyInputs:
    def test_numpy_geometry_writes_plain_numbers(self, tmp_path):
        geo = PassGeometry(
            arc_radius_km=np.float64(400.0),
            gs_height_km=np.float64(0.023),
            altitudes_km=np.array([5.0, 50.0, 136.0, 371.0]),
        )
        run_report(ScenarioConfig(geometry=geo), "linkbudget", tmp_path)
        text = (tmp_path / "linkbudget.csv").read_text()
        assert "np." not in text
        _, rows = read_csv(tmp_path / "linkbudget.csv")
        assert len(rows) == 4
        assert "np." not in (tmp_path / "summary.json").read_text()


def _write_trace(path: Path, arc_radius_km: float, altitudes_km) -> Path:
    """A LOS-only trace: one ray per altitude."""
    rows = [
        f"{h!r},1e-9,0.0,0.001,180.0,-10.0,0.0,10.0,0" for h in altitudes_km
    ]
    path.write_text(
        f"# chansim-trace v1 arc_radius_km={arc_radius_km!r} amplitude=linear\n"
        "altitude_km,amplitude,phase_rad,delay_s,aod_az_deg,aod_el_deg,"
        "aoa_az_deg,aoa_el_deg,n_interactions\n" + "\n".join(rows) + "\n"
    )
    return path


class TestTraceGeometry:
    def test_trace_arc_radius_drives_summary_and_psi2(self, tmp_path):
        # 100 km on a 500 km arc is the true psi2 point, so it is not shadowed;
        # the 400 km default psi2 (14.48 deg) would call it shadowed.
        trace = _write_trace(tmp_path / "t.csv", 500.0, [60.0, 100.0, 400.0])
        summary = run_report(load_config(None), "fading", tmp_path / "o", trace_path=trace)
        assert summary["arc_radius_km"] == 500.0
        assert summary["psi2_deg"] == pytest.approx(11.536959032815489, rel=1e-12)
        _, rows = read_csv(tmp_path / "o" / "fading.csv")
        regimes = {float(r[1]): r[3] for r in rows}
        assert regimes == {
            60.0: "shadowed-rician", 100.0: "deterministic-los", 400.0: "deterministic-los",
        }

    def test_trace_beyond_default_altitudes(self, tmp_path):
        trace = _write_trace(tmp_path / "t.csv", 300.0, [50.0, 299.0])
        summary = run_report(load_config(None), "linkbudget", tmp_path / "o", trace_path=trace)
        assert summary["arc_radius_km"] == 300.0
        assert summary["n_snapshots"] == 2

    def test_short_trace_arc_runs_budget_but_needs_psi2_for_fading(self, tmp_path, capsys):
        # The config's own 400 km pass is not rebuilt with the trace's 80 km
        # radius, so only the default psi2 of the fading report refuses it.
        trace = _write_trace(tmp_path / "t.csv", 80.0, [20.0, 60.0])
        summary = run_report(load_config(None), "linkbudget", tmp_path / "o", trace_path=trace)
        assert summary["arc_radius_km"] == 80.0
        assert main(["fading", "--trace", str(trace), "--out", str(tmp_path / "f")]) == 2
        assert "set psi2 explicitly" in capsys.readouterr().err

    def test_conflicting_config_arc_radius_rejected(self, tmp_path, capsys):
        trace = _write_trace(tmp_path / "t.csv", 500.0, [100.0])
        cfg = tmp_path / "c.yaml"
        cfg.write_text("pass: {arc_radius_km: 400.0, altitudes_km: [100.0]}\n")
        with pytest.raises(ConfigError, match="arc_radius_km"):
            run_report(load_config(cfg), "linkbudget", tmp_path / "o", trace_path=trace)
        code = main(["spreads", "--config", str(cfg), "--trace", str(trace),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_matching_config_arc_radius_accepted(self, tmp_path):
        trace = _write_trace(tmp_path / "t.csv", 500.0, [100.0])
        cfg = tmp_path / "c.yaml"
        cfg.write_text("pass: {arc_radius_km: 500.0, altitudes_km: [100.0]}\n")
        summary = run_report(load_config(cfg), "linkbudget", tmp_path / "o", trace_path=trace)
        assert summary["arc_radius_km"] == 500.0

    @pytest.mark.parametrize("build", [
        lambda: copy.deepcopy(ScenarioConfig()),
        lambda: pickle.loads(pickle.dumps(ScenarioConfig())),
        lambda: ScenarioConfig(geometry=PassGeometry(400.0, 0.023, DEFAULT_ALTITUDES_KM)),
    ], ids=["deepcopy", "pickle", "explicit"])
    def test_default_pass_compared_by_value(self, tmp_path, build):
        trace = _write_trace(tmp_path / "t.csv", 500.0, [100.0])
        summary = run_report(build(), "linkbudget", tmp_path / "o", trace_path=trace)
        assert summary["arc_radius_km"] == 500.0


# One LOS-only snapshot (50 km), one with four rays at azimuths 0/90/180/270
# at both ends (200 km) and one with two equal rays in antiphase (300 km).
SENTINEL_TRACE = """\
# chansim-trace v1 arc_radius_km=400.0 amplitude=linear
altitude_km,amplitude,phase_rad,delay_s,aod_az_deg,aod_el_deg,aoa_az_deg,aoa_el_deg,n_interactions
50.0,1e-9,0.0,0.001,180.0,-7.0,0.0,7.0,0
200.0,1e-9,0.0,0.001,0.0,-30.0,0.0,30.0,0
200.0,1e-9,0.0,0.0010001,90.0,-30.0,90.0,30.0,1
200.0,1e-9,0.0,0.0010002,180.0,-30.0,180.0,30.0,1
200.0,1e-9,0.0,0.0010003,270.0,-30.0,270.0,30.0,1
300.0,1e-9,0.0,0.001,180.0,-48.0,0.0,48.0,0
300.0,1e-9,3.141592653589793,0.0010001,180.0,-48.0,0.0,48.0,1
"""


class TestSentinels:
    @pytest.fixture
    def run(self, tmp_path):
        trace = tmp_path / "sentinel.csv"
        trace.write_text(SENTINEL_TRACE)
        cfg = tmp_path / "c.yaml"
        cfg.write_text("modes: {coherent: phasor-sum}\nfading: {fit_samples: 100}\n")

        def run(subcommand):
            out = tmp_path / subcommand
            assert main([subcommand, "--config", str(cfg), "--trace", str(trace),
                         "--out", str(out)]) == 0
            header, rows = read_csv(out / f"{subcommand}.csv")
            by_altitude = {float(row[1]): dict(zip(header, row)) for row in rows}
            return by_altitude, json.loads((out / "summary.json").read_text())

        return run

    def test_los_only_k_is_undefined(self, run):
        rows, summary = run("fading")
        assert rows[50.0]["k_direct"] == rows[50.0]["k_fit"] == "undefined"
        assert summary["fits"][0]["k_direct"] is None

    def test_uniform_azimuths_are_unbounded(self, run):
        rows, summary = run("spreads")
        for name in ("az_spread_sat_deg", "az_spread_gs_deg"):
            assert rows[200.0][name] == "unbounded"
            assert {rows[50.0][name], rows[300.0][name]} == {"0.0"}
            assert summary["cdf"][name]["n_unbounded"] == 1
            assert summary["cdf"][name]["values"] == [0.0, 0.0]

    def test_antiphase_pair_cancels(self, run):
        rows, _ = run("linkbudget")
        assert rows[300.0]["p_coh_dbm"] == rows[300.0]["p_rx_dbm"] == "-inf"
        assert rows[300.0]["l_total_db"] == "unbounded"
        assert "inf" not in rows[200.0]["l_total_db"]


class TestSectionTypesRejectInfinity:
    """An infinity passes one-sided bounds; each section type refuses it by name."""

    @pytest.mark.parametrize("text,key,sub,flags", [
        ("antennas: {ground: {kind: single-element, peak_gain_dbi: .inf, hpbw_deg: 2.0}}\n",
         "antennas.ground.peak_gain_dbi", "linkbudget", []),
        ("clustering: {xi: .inf}\n", "clustering.xi", "cluster", []),
        ("atmosphere: {rain_rate_mmh: .inf}\n", "atmosphere.rain_rate_mmh", "linkbudget",
         ["--rain"]),
        ("pass: {arc_radius_km: .inf, altitudes_km: [5.0]}\n", "pass.arc_radius_km",
         "linkbudget", []),
    ], ids=["antenna-gain", "clustering-xi", "rain-rate", "arc-radius"])
    def test_file_exits_2_naming_key(self, tmp_path, capsys, text, key, sub, flags):
        assert_config_refused(tmp_path, capsys, text,
                              re.escape(f"config key '{key}' must be a number, got inf"), key,
                              sub, flags)


class TestSectionTypesRejectNan:
    """A NaN passes range checks written as comparisons; each section type refuses it."""

    @pytest.mark.parametrize("text,key,sub,flags", [
        ("ntn: {psi1_deg: .nan}\n", "psi1_deg", "ntn-compare", []),
        ("clustering: {xi: .nan}\n", "xi", "cluster", []),
        ("antennas: {ground: {kind: single-element, peak_gain_dbi: .nan, hpbw_deg: 2.0}}\n",
         "peak_gain_dbi", "linkbudget", []),
        ("pass: {arc_radius_km: 400.0, gs_height_km: .nan, altitudes_km: [5.0, 50.0]}\n",
         "gs_height_km", "linkbudget", ["--rain"]),
        ("synth: {max_extra_rays: -1}\n", "synth.max_extra_rays", "linkbudget", []),
    ], ids=["ntn-psi1", "clustering-xi", "antenna-gain", "pass-gs-height", "synth-negative"])
    def test_file_exits_2_naming_key(self, tmp_path, capsys, text, key, sub, flags):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_config(path)
        out = tmp_path / "o"
        assert main([sub, "--config", str(path), "--out", str(out), *flags]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("build,match", [
        (lambda: NtnConfig(psi1_deg=math.nan), "psi1_deg must be a number, got nan"),
        (lambda: NtnConfig(psi2_deg=math.nan), "psi2_deg must be a number, got nan"),
        (lambda: ClusteringConfig(xi=math.nan), "xi must be a number, got nan"),
        (lambda: AntennaModel(kind="single-element", peak_gain_dbi=math.nan, hpbw_deg=2.0),
         "peak_gain_dbi must be a number, got nan"),
        (lambda: AntennaModel(kind="single-element", hpbw_deg=math.nan),
         "hpbw_deg must be a number or null, got nan"),
        (lambda: AntennaModel(steer_az_deg=math.nan), "steer_az_deg must be a number, got nan"),
        (lambda: PassGeometry(arc_radius_km=400.0, gs_height_km=math.nan),
         "gs_height_km must be a number, got nan"),
        (lambda: PassGeometry(arc_radius_km=math.nan), "arc_radius_km must be a number, got nan"),
        (lambda: SynthConfig(max_extra_rays=-1), r"max_extra_rays must be in \[0, inf\), got -1"),
    ])
    def test_checked_at_construction(self, build, match):
        with pytest.raises(ValueError, match=match):
            build()

    def test_zero_extra_rays_still_allowed(self):
        assert SynthConfig(max_extra_rays=0).max_extra_rays == 0


class TestUnreadablePaths:
    """A path that cannot be read or created exits with one line naming it."""

    def _run(self, capsys, *args):
        code = main(["linkbudget", *args])
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        return code, err

    @pytest.fixture(params=["directory", "not-utf8"])
    def unreadable(self, request, tmp_path):
        if request.param == "directory":
            return tmp_path
        path = tmp_path / "binary"
        path.write_bytes(b"\xff\xfe\x00pass")
        return path

    def test_unreadable_config_exits_2(self, tmp_path, capsys, unreadable):
        code, err = self._run(capsys, "--config", str(unreadable), "--out", str(tmp_path / "o"))
        assert code == 2
        assert err.startswith("chansim: config error:") and str(unreadable) in err

    def test_unreadable_trace_exits_3(self, tmp_path, capsys, unreadable):
        code, err = self._run(capsys, "--trace", str(unreadable), "--out", str(tmp_path / "o"))
        assert code == 3
        assert err.startswith("chansim: input error:") and str(unreadable) in err

    @pytest.mark.parametrize("old_csv", [True, False], ids=["old-csv", "no-csv"])
    def test_summary_naming_a_directory_exits_3(self, tmp_path, capsys, old_csv):
        # Neither file is renamed into place: no new CSV beside the old summary path.
        out = tmp_path / "out"
        (out / "summary.json").mkdir(parents=True)
        (out / "summary.json" / "kept").write_text("kept\n")
        if old_csv:
            (out / "linkbudget.csv").write_text("old\n")
        code, err = self._run(capsys, "--out", str(out))
        assert code == 3
        assert err.startswith("chansim: input error:") and str(out / "summary.json") in err
        assert sorted(p.name for p in out.iterdir()) == (
            ["linkbudget.csv", "summary.json"] if old_csv else ["summary.json"])
        assert not old_csv or (out / "linkbudget.csv").read_text() == "old\n"
        assert [p.name for p in (out / "summary.json").iterdir()] == ["kept"]

    def test_out_naming_a_file_exits_3(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        code, err = self._run(capsys, "--out", str(out))
        assert code == 3
        assert err.startswith("chansim: input error:") and str(out) in err
        assert out.read_text() == "not a directory\n"


# One scenario in YAML; TestEntryPointsAgree builds it again as a library call.
# Every number is exact in float32, so each scalar type stores the same float.
AGREE_YAML = """\
pass: {arc_radius_km: 500, gs_height_km: 0.125, altitudes_km: [5, 25.5, 136, 499]}
fc_ghz: 12
p_tx_dbm: 33
l_hd_db: 2
atmosphere: {k_rn: 0.03125, epsilon: 1.125, rain_rate_mmh: 20}
antennas:
  satellite: {kind: phased-array, peak_gain_dbi: 20, nx: 8, ny: 4}
  ground: {kind: single-element, peak_gain_dbi: 35, hpbw_deg: 2}
weather: [rain, clouds]
misalign_az_deg: 1
misalign_el_deg: -0.5
clustering: {xi: 0.5, zeta: 2}
seed: 3
"""


def _library_scenario(real, integer) -> ScenarioConfig:
    from chansim.atmosphere import AtmosphereParams

    return ScenarioConfig(
        geometry=PassGeometry(real(500), real(0.125), [real(h) for h in (5, 25.5, 136, 499)]),
        fc_ghz=real(12), p_tx_dbm=real(33), l_hd_db=real(2),
        atmosphere=AtmosphereParams(k_rn=real(0.03125), epsilon=real(1.125),
                                    rain_rate_mmh=real(20)),
        sat_antenna=AntennaModel(kind="phased-array", peak_gain_dbi=real(20),
                                 nx=integer(8), ny=integer(4)),
        gs_antenna=AntennaModel(kind="single-element", peak_gain_dbi=real(35),
                                hpbw_deg=real(2)),
        weather=frozenset({"rain", "clouds"}),
        misalign_az_deg=real(1), misalign_el_deg=real(-0.5),
        clustering=ClusteringConfig(xi=real(0.5), zeta=integer(2)),
        seed=integer(3),
    )


def _int_where_whole(v: float):
    return int(v) if float(v).is_integer() else v


class TestEntryPointsAgree:
    """A YAML file and a library build of one scenario give equal configs and bytes."""

    @pytest.mark.parametrize("real,integer", [
        (_int_where_whole, int),
        (np.float64, np.int64),
        (np.float32, np.int64),
        (lambda v: np.int64(v) if float(v).is_integer() else v, np.int64),
    ], ids=["int", "float64", "float32", "int64"])
    def test_yaml_and_library_agree(self, tmp_path, real, integer):
        path = tmp_path / "scenario.yaml"
        path.write_text(AGREE_YAML)
        from_yaml = load_config(path)
        from_library = _library_scenario(real, integer)
        assert from_library == from_yaml
        for cfg, name in ((from_yaml, "yaml"), (from_library, "library")):
            run_report(cfg, "linkbudget", tmp_path / name)
        for output in ("linkbudget.csv", "summary.json"):
            assert ((tmp_path / "library" / output).read_bytes()
                    == (tmp_path / "yaml" / output).read_bytes())

    @pytest.mark.parametrize("build,field", [
        (lambda: ScenarioConfig(fc_ghz=np.float32("nan")), "fc_ghz must be a number, got nan"),
        (lambda: ScenarioConfig(p_tx_dbm=True), "p_tx_dbm must be a number, got True"),
        (lambda: ScenarioConfig(fc_ghz="12"), "fc_ghz must be a number, got '12'"),
        (lambda: AntennaModel(kind="phased-array", nx=2.5), "nx must be an integer, got 2.5"),
        (lambda: ScenarioConfig(fc_ghz=10**400), f"fc_ghz must be a number, got {10**400}"),
        (lambda: PassGeometry(400.0, altitudes_km={5.0}),
         "altitudes_km must be a list, each item a number, got {5.0}"),
    ], ids=["float32-nan", "bool", "str", "fractional-nx", "int-beyond-float", "unordered"])
    def test_library_refuses_naming_the_field(self, build, field):
        with pytest.raises(ValueError, match=f"^{re.escape(field)}$"):
            build()

    @pytest.mark.parametrize("text,message", [
        ("modes: {slant: 5}\n", "config key 'modes.slant' must be a string, got 5\n"),
        ("fc_ghz: 1" + "0" * 400 + "\n", f"config key 'fc_ghz' must be a number, got {10**400}\n"),
    ], ids=["mode-type", "int-beyond-float"])
    def test_yaml_refuses_naming_the_key(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert main(["linkbudget", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"chansim: config error: {message}"


class TestMissingSectionKey:
    @pytest.mark.parametrize("text,message", [
        ("pass: {altitudes_km: [50.0]}\n", "config key 'pass.arc_radius_km' is required"),
        # A bad given key is named before a missing one.
        ("pass: {altitudes_km: [50.0], gs_height_km: low}\n",
         "config key 'pass.gs_height_km' must be a number, got 'low'"),
        ("pass: {arc_radius_km: 400.0}\n",
         "pass geometry needs at least one altitude sample: pass.altitudes_km is empty"),
    ], ids=["missing", "bad-before-missing", "no-altitudes"])
    def test_names_the_key(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)
        assert main(["linkbudget", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"chansim: config error: {message}\n"


class TestSavedTraceRelation:
    """A synthetic pass saved with save_trace and run with --trace gives the
    synthetic run's outputs: the same CSV bytes and, but for its source, summary."""

    @pytest.mark.parametrize("sub", ["linkbudget", "fading", "spreads", "cluster",
                                     "ntn-compare"])
    def test_same_outputs(self, tmp_path, sub):
        from chansim.report import gather_snapshots
        from chansim.traceio import save_trace

        cfg = ScenarioConfig()
        trace = tmp_path / "pass.trace.csv"
        save_trace(gather_snapshots(cfg, None), trace)
        run_report(cfg, sub, tmp_path / "synthetic")
        run_report(cfg, sub, tmp_path / "traced", trace_path=trace)
        assert ((tmp_path / "traced" / f"{sub}.csv").read_bytes()
                == (tmp_path / "synthetic" / f"{sub}.csv").read_bytes())
        summaries = [json.loads((tmp_path / run / "summary.json").read_text())
                     for run in ("synthetic", "traced")]
        assert [s.pop("source") for s in summaries] == ["synthetic", "trace"]
        assert summaries[0] == summaries[1]


class TestSavedTraceRelations:
    """Runs on the default pass saved with save_trace whose outputs must not see
    how the file orders its rows, the seed, or a common scale of the amplitudes."""

    CFG = ScenarioConfig(fading=FadingConfig(fit_samples=200))
    SUBCOMMANDS = ("linkbudget", "fading", "spreads", "cluster", "ntn-compare")

    @staticmethod
    def outputs(cfg, trace, out, subs) -> dict[str, bytes]:
        """Each subcommand's CSV and summary.json bytes from a run on ``trace``."""
        for sub in subs:
            run_report(cfg, sub, out / sub, trace_path=trace)
        return {f"{sub}/{name}": (out / sub / name).read_bytes()
                for sub in subs for name in (f"{sub}.csv", "summary.json")}

    @staticmethod
    def csvs(outputs, subs) -> list[bytes]:
        return [outputs[f"{sub}/{sub}.csv"] for sub in subs]

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        """The saved trace and the outputs of every subcommand on it."""
        from chansim.report import gather_snapshots
        from chansim.traceio import save_trace

        tmp = tmp_path_factory.mktemp("saved")
        trace = tmp / "pass.trace.csv"
        save_trace(gather_snapshots(self.CFG, None), trace)
        return trace, self.outputs(self.CFG, trace, tmp, self.SUBCOMMANDS)

    def test_shuffled_snapshots_and_rays(self, saved, tmp_path):
        trace, expected = saved
        header, columns, *rows = trace.read_text().splitlines(keepends=True)
        snapshots = {}
        for row in rows:
            snapshots.setdefault(row.split(",", 1)[0], []).append(row)
        rng = random.Random(0)
        shuffled = list(snapshots.values())
        rng.shuffle(shuffled)
        for rays in shuffled:
            rng.shuffle(rays)
        shuffled_rows = [row for rays in shuffled for row in rays]
        assert [r.split(",", 1)[0] for r in shuffled_rows] != [r.split(",", 1)[0] for r in rows]
        assert any(rays != [r for r in rows if r in rays] for rays in shuffled)
        shuffled_trace = tmp_path / "shuffled.trace.csv"
        shuffled_trace.write_text("".join([header, columns, *shuffled_rows]))
        assert self.outputs(self.CFG, shuffled_trace, tmp_path, self.SUBCOMMANDS) == expected

    def test_seed_changes_no_trace_output_but_fading(self, saved, tmp_path):
        trace, expected = saved
        subs = ("linkbudget", "spreads", "cluster")
        got = self.outputs(apply_overrides(self.CFG, seed=9), trace, tmp_path, subs)
        assert self.csvs(got, subs) == self.csvs(expected, subs)

    def test_doubled_amplitudes_keep_spreads_and_clusters(self, saved, tmp_path):
        trace, expected = saved
        header, columns, *rows = trace.read_text().splitlines(keepends=True)
        doubled = []
        for row in rows:
            altitude, amplitude, rest = row.split(",", 2)
            doubled.append(f"{altitude},{2.0 * float(amplitude)!r},{rest}")
        doubled_trace = tmp_path / "doubled.trace.csv"
        doubled_trace.write_text("".join([header, columns, *doubled]))
        subs = ("spreads", "cluster")
        got = self.outputs(self.CFG, doubled_trace, tmp_path, subs)
        assert self.csvs(got, subs) == self.csvs(expected, subs)

    def test_doubled_amplitudes_scale_powers_by_6_dB_and_omega_by_4(self, saved, tmp_path):
        trace, expected = saved
        header, columns, *rows = trace.read_text().splitlines(keepends=True)
        doubled = []
        for row in rows:
            altitude, amplitude, rest = row.split(",", 2)
            doubled.append(f"{altitude},{2.0 * float(amplitude)!r},{rest}")
        doubled_trace = tmp_path / "doubled.trace.csv"
        doubled_trace.write_text("".join([header, columns, *doubled]))
        subs = ("linkbudget", "fading")
        got = self.outputs(self.CFG, doubled_trace, tmp_path, subs)
        base, twice = ({sub: list(csv.DictReader(io.StringIO(out[f"{sub}/{sub}.csv"].decode())))
                        for sub in subs} for out in (expected, got))
        assert [len(twice[sub]) for sub in subs] == [len(base[sub]) for sub in subs]
        for old, new in zip(base["fading"], twice["fading"]):
            assert new["k_direct"] == old["k_direct"]
            assert float(new["omega"]) == 4.0 * float(old["omega"])
        six_db = 20.0 * math.log10(2.0)
        for old, new in zip(base["linkbudget"], twice["linkbudget"]):
            for name in ("l_hd_db", "l_am_db", "l_atm_db", "fspl_db"):
                assert new[name] == old[name]
            for name, sign in (("p_coh_dbm", 1.0), ("p_rx_dbm", 1.0), ("l_total_db", -1.0)):
                shift = float(new[name]) - float(old[name])
                assert abs(shift - sign * six_db) <= 1e-12, (name, shift)
