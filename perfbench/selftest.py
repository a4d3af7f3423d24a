"""Self-test of the benchmark's failure accounting.

    python3 perfbench/selftest.py

Run from a checkout root.  It runs the smoke-size long-pass ``linkbudget``
call and shows that the checker passes its outputs, fails them once one
budget cell is changed, fails a cell the identities do not cover once a
reference exists, and that a call exiting non-zero counts as failed.
Exits 0 when every expectation holds.
"""

from __future__ import annotations

import gzip
import shutil
import sys
import tempfile
import time
from pathlib import Path

# The benchmark directory holds only its own sources, no bytecode caches.
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _edit_cell(csv_path: Path, row: int, column: str, change) -> None:
    header, rows = check.read_csv_text(csv_path.read_text(encoding="utf-8"))
    col = header.index(column)
    rows[row][col] = repr(change(float(rows[row][col])))
    csv_path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n", encoding="utf-8")


def main() -> int:
    if not (run.SRC / "chansim" / "cli.py").is_file():
        print(f"selftest: no chansim sources under {run.SRC}", file=sys.stderr)
        return 2
    run.WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    spawner = run.Spawner(time.perf_counter() + 120.0, scratch)
    bench = run.WorkloadRun(WORKLOADS["long-pass"], 1, True, spawner)
    results = []

    def expect(label: str, errors: list[str], should_fail: bool) -> None:
        ok = bool(errors) == should_fail
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {errors[:1] or 'passes'}")

    try:
        out = bench.dir / "linkbudget"
        _, code, _ = spawner.run(bench.cli_args("linkbudget", out))
        alts = bench.altitudes
        expect("unchanged outputs", check.check_outputs("linkbudget", out, alts, None, None), False)

        ref_dir = bench.dir / "reference"
        ref_dir.mkdir()
        reference = (ref_dir / "linkbudget.csv.gz", ref_dir / "linkbudget.summary.json.gz")
        reference[0].write_bytes(gzip.compress((out / "linkbudget.csv").read_bytes()))
        reference[1].write_bytes(gzip.compress((out / "summary.json").read_bytes()))
        expect("unchanged outputs against a reference",
               check.check_outputs("linkbudget", out, alts, None, reference), False)

        budget_edit = bench.dir / "budget-edit"
        shutil.copytree(out, budget_edit)
        _edit_cell(budget_edit / "linkbudget.csv", 3, "p_rx_dbm", lambda v: v + 0.01)
        expect("one P_rx cell changed by 0.01 dB",
               check.check_outputs("linkbudget", budget_edit, alts, None, None), True)

        fspl_edit = bench.dir / "fspl-edit"
        shutil.copytree(out, fspl_edit)
        _edit_cell(fspl_edit / "linkbudget.csv", 3, "fspl_db", lambda v: v * (1 + 1e-9))
        expect("one FSPL cell changed by 1e-9 relative, against a reference",
               check.check_outputs("linkbudget", fspl_edit, alts, None, reference), True)

        bench.verify("linkbudget", budget_edit, code)
        expect("the runner counts the changed output as failed",
               ["counted"] if bench.failed == 1 and bench.attempted == 1 else [], True)

        bad_config = bench.dir / "bad.yaml"
        bad_config.write_text("no_such_key: 1\n", encoding="utf-8")
        args = bench.cli_args("linkbudget", bench.dir / "bad-out")
        args[args.index("--config") + 1] = str(bad_config)
        _, code, _ = spawner.run(args)
        bench.verify("linkbudget", bench.dir / "bad-out", code)
        expect(f"a call exiting {code} is counted as failed",
               ["counted"] if code != 0 and bench.failed == 2 and bench.attempted == 2 else [],
               True)
    finally:
        shutil.rmtree(bench.dir, ignore_errors=True)
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest:", "passed" if all(results) else "FAILED")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
