"""Output checks for one CLI call (or one in-process report) of a workload.

Every check returns a list of error strings; an empty list means the
outputs passed.  The checks are, in order: the CSV header, the row count
and altitudes, the link-budget identities, the summary, and, when a
reference recorded for the same workload and seed exists, every cell of
the CSV and every reference key of ``summary.json``.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
from pathlib import Path

COLUMNS = {
    "linkbudget": ("psi_deg", "altitude_km", "l_total_db", "p_rx_dbm", "p_coh_dbm",
                   "l_hd_db", "l_am_db", "l_atm_db", "fspl_db"),
    "spreads": ("psi_deg", "altitude_km", "n_mpcs", "rms_ds_s", "mean_excess_delay_s",
                "az_spread_sat_deg", "el_spread_sat_deg", "az_spread_gs_deg",
                "el_spread_gs_deg"),
    "cluster": ("psi_deg", "altitude_km", "mpc_index", "delay_s", "label"),
    "ntn-compare": ("psi_deg", "altitude_km", "profile", "fspl_db", "ntn_mean_db",
                    "ntn_lo_db", "ntn_hi_db", "ntn_draw_db"),
    "fading": ("psi_deg", "altitude_km", "n_mpcs", "regime", "k_direct", "omega",
               "k_fit", "m_fit", "omega_fit", "n_samples"),
}

REL_TOL = 1e-12
# Fitted parameters come out of a bounded optimiser, so they agree to 1e-9 only.
FIT_REL_TOL = 1e-9
FIT_KEYS = frozenset({"k_fit", "m_fit", "omega_fit"})
BUDGET_TOL_DB = 1e-9
MAX_ERRORS = 5

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _num(cell: str) -> float | None:
    """Float value of a cell; 'unbounded' reads as +inf, other text as None."""
    if cell == "unbounded":
        return math.inf
    try:
        return float(cell)
    except ValueError:
        return None


def _close(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b
    return abs(a - b) <= tol * max(abs(a), abs(b))


def cells_match(got: str, want: str, column: str) -> bool:
    """Text cells must be equal; finite numbers agree to the column's tolerance."""
    if got == want:
        return True
    a, b = _num(got), _num(want)
    if a is None or b is None or not (math.isfinite(a) and math.isfinite(b)):
        return False
    return _close(a, b, FIT_REL_TOL if column in FIT_KEYS else REL_TOL)


def read_csv_text(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return (rows[0], rows[1:]) if rows else ([], [])


def _budget_errors(rows: list[list[str]], p_tx_dbm: float) -> list[str]:
    """L_tot = P_tx - P_rx and P_rx = P_coh - L_hd - L_am - L_atm on every row."""
    errors = []
    for i, row in enumerate(rows, start=2):
        l_tot, p_rx, p_coh, l_hd, l_am, l_atm = (_num(c) for c in row[2:8])
        if None in (l_tot, p_rx, p_coh, l_hd, l_am, l_atm):
            errors.append(f"linkbudget.csv line {i}: non-numeric budget cell")
        elif math.isinf(p_coh):
            if not (p_coh < 0 and p_rx == -math.inf and l_tot == math.inf):
                errors.append(f"linkbudget.csv line {i}: P_coh -inf not carried through")
        elif abs(p_rx - (p_coh - l_hd - l_am - l_atm)) > BUDGET_TOL_DB:
            errors.append(f"linkbudget.csv line {i}: P_rx != P_coh - L_hd - L_am - L_atm")
        elif abs(l_tot - (p_tx_dbm - p_rx)) > BUDGET_TOL_DB:
            errors.append(f"linkbudget.csv line {i}: L_tot != P_tx - P_rx")
        if len(errors) >= MAX_ERRORS:
            break
    return errors


def _json_errors(got, want, where: str, key: str = "") -> list[str]:
    """Compare a JSON value against the reference on the reference's keys only."""
    if isinstance(want, dict):
        if not isinstance(got, dict):
            return [f"{where}: expected a mapping"]
        errors = []
        for k, v in want.items():
            if k not in got:
                errors.append(f"{where}.{k}: missing")
            else:
                errors.extend(_json_errors(got[k], v, f"{where}.{k}", k))
            if len(errors) >= MAX_ERRORS:
                break
        return errors
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: expected a list of {len(want)}"]
        errors = []
        for i, (g, w) in enumerate(zip(got, want)):
            errors.extend(_json_errors(g, w, f"{where}[{i}]", key))
            if len(errors) >= MAX_ERRORS:
                break
        return errors
    if isinstance(want, bool) or not isinstance(want, (int, float)):
        return [] if got == want else [f"{where}: {got!r} != {want!r}"]
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return [f"{where}: {got!r} != {want!r}"]
    tol = FIT_REL_TOL if key in FIT_KEYS else REL_TOL
    return [] if _close(float(got), float(want), tol) else [f"{where}: {got!r} != {want!r}"]


def reference_paths(workload: str, seed: int, subcommand: str) -> tuple[Path, Path]:
    base = REFERENCE_DIR / f"{workload}-seed{seed}"
    return base / f"{subcommand}.csv.gz", base / f"{subcommand}.summary.json.gz"


def check_outputs(
    subcommand: str,
    out_dir: Path,
    altitudes: list[float],
    rays_per_snapshot: list[int] | None,
    reference: tuple[Path, Path] | None,
) -> list[str]:
    """Check the CSV and summary.json one subcommand wrote into out_dir.

    ``altitudes`` are the input altitudes in ascending order; the report
    writes one row per altitude, or one per ray for ``cluster``, whose
    row count per snapshot must then equal ``rays_per_snapshot``.
    """
    csv_path = out_dir / f"{subcommand}.csv"
    summary_path = out_dir / "summary.json"
    if not csv_path.is_file() or not summary_path.is_file():
        return [f"{subcommand}: missing {csv_path.name} or summary.json"]
    header, rows = read_csv_text(csv_path.read_text(encoding="utf-8"))
    if tuple(header) != COLUMNS[subcommand]:
        return [f"{subcommand}.csv: header {header} != {list(COLUMNS[subcommand])}"]
    if subcommand == "cluster":
        if rays_per_snapshot is None:
            return ["cluster.csv: no ray counts to check the rows against"]
        expected = [h for h, n in zip(altitudes, rays_per_snapshot) for _ in range(n)]
    else:
        expected = altitudes
    if len(rows) != len(expected):
        return [f"{subcommand}.csv: {len(rows)} rows, expected {len(expected)}"]
    errors = []
    for i, (row, h) in enumerate(zip(rows, expected), start=2):
        if len(row) != len(header):
            errors.append(f"{subcommand}.csv line {i}: {len(row)} cells")
        elif _num(row[1]) is None or not _close(_num(row[1]), h, REL_TOL):
            errors.append(f"{subcommand}.csv line {i}: altitude {row[1]} != {h!r}")
        if len(errors) >= MAX_ERRORS:
            return errors
    try:
        summary = json.loads(summary_path.read_text(encoding="utf-8"))
    except ValueError as exc:
        return [f"summary.json: {exc}"]
    if summary.get("subcommand") != subcommand or summary.get("n_snapshots") != len(altitudes):
        errors.append("summary.json: wrong subcommand or n_snapshots")
    if subcommand == "linkbudget":
        p_tx = summary.get("p_tx_dbm")
        if not isinstance(p_tx, (int, float)):
            errors.append("summary.json: p_tx_dbm missing")
        else:
            errors.extend(_budget_errors(rows, float(p_tx)))
    if errors or reference is None:
        return errors[:MAX_ERRORS]

    ref_csv, ref_summary = reference
    ref_header, ref_rows = read_csv_text(gzip.decompress(ref_csv.read_bytes()).decode("utf-8"))
    if ref_header != header or len(ref_rows) != len(rows):
        return [f"{subcommand}.csv: shape differs from the reference"]
    for i, (row, want) in enumerate(zip(rows, ref_rows), start=2):
        for column, g, w in zip(header, row, want):
            if not cells_match(g, w, column):
                errors.append(f"{subcommand}.csv line {i} {column}: {g} != reference {w}")
                if len(errors) >= MAX_ERRORS:
                    return errors
    want_summary = json.loads(gzip.decompress(ref_summary.read_bytes()).decode("utf-8"))
    errors.extend(_json_errors(summary, want_summary, "summary.json"))
    return errors[:MAX_ERRORS]


def rays_per_snapshot(csv_path: Path) -> list[int]:
    """Rays per snapshot, from the n_mpcs column of a checked spreads or fading CSV."""
    header, rows = read_csv_text(csv_path.read_text(encoding="utf-8"))
    col = header.index("n_mpcs")
    return [int(row[col]) for row in rows]
