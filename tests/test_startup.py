"""Start-up cost: only the fading fits may pull in scipy, and only scipy.special."""

import json
import subprocess
import sys

from conftest import child_env

PUBLIC_NAMES = [
    "AntennaModel", "AtmosphereParams", "ChansimError", "ConfigError",
    "ElevationAngle", "ElevationFloorError", "FadingRegime",
    "NumericError", "PassGeometry", "RayTable", "RicianParams", "ScenarioConfig",
    "ShadowedRicianParams", "TraceError",
    "altitude_to_elevation", "azimuth_spread", "build_features", "cloud_attenuation_db",
    "cluster_snapshot", "coherent_power_dbm", "dbscan", "elevation_spread",
    "fit", "fspl_db", "gain_dbi", "k_factor", "load_config",
    "load_trace", "misalignment_loss_db", "ntn_attenuation_db", "rain_attenuation_db",
    "rain_slant_length", "rician_pdf", "run_report", "sample",
    "save_trace", "select_profile", "select_regime", "shadowed_rician_pdf",
    "snow_attenuation_db", "spatial_filter", "spread_report", "sweep_pass",
    "synth_scenario", "total_atmospheric_db",
]

PROBE = """
import json, sys
# scipy.special, and the subpackages that scipy.integrate and scipy.optimize load.
SCIPY = ["scipy.constants", "scipy.fft", "scipy.integrate", "scipy.linalg",
         "scipy.optimize", "scipy.sparse", "scipy.spatial", "scipy.special"]
import chansim.cli
scipy_after_cli = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
import chansim
from chansim import FadingRegime, fit
import chansim.fading
print(json.dumps({
    "scipy_after_cli": scipy_after_cli,
    "scipy_after_fading": [m for m in SCIPY if m in sys.modules],
    "fit": chansim.fit is chansim.fading.fit is fit,
    "regime": FadingRegime is chansim.fading.FadingRegime,
    "default_psi2": chansim.geometry.default_psi2(400.0).psi_deg,
    "all": sorted(chansim.__all__),
    "missing": [n for n in chansim.__all__ if not hasattr(chansim, n)],
}))
"""


def test_cli_import_loads_no_scipy_and_keeps_public_names():
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=child_env(), capture_output=True, text=True,
        check=True, timeout=120,
    )
    probe = json.loads(out.stdout)
    assert probe["scipy_after_cli"] == []
    assert probe["scipy_after_fading"] == ["scipy.special"]
    assert probe["fit"] and probe["regime"]
    assert probe["default_psi2"] == 14.477512185929925
    assert probe["all"] == PUBLIC_NAMES
    assert probe["missing"] == []


def test_cli_import_loads_no_thread_pool():
    # The fading report's thread pool is imported where the report runs.
    probe = "import sys, chansim.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"


CLUSTER_PROBE = """
import sys
from chansim.clustering import build_features
from chansim.config import ScenarioConfig
from chansim.report import gather_snapshots, run_report
config = ScenarioConfig()
table = gather_snapshots(config, None)
assert len(table.blocks()) >= 2, table.counts
build_features(table)
run_report(config, "cluster", sys.argv[1])
print('concurrent.futures' in sys.modules)
"""


def test_clustering_loads_no_thread_pool(tmp_path):
    # Ray-table blocks and DBSCAN batches run on the calling thread.
    out = subprocess.run(
        [sys.executable, "-c", CLUSTER_PROBE, str(tmp_path)], env=child_env(),
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
