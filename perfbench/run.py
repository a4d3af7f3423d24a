"""chansim benchmark: fresh-process CLI timings and a traced per-layer run.

    python3 perfbench/run.py --workload long-pass --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --seconds 35          # every workload, one table
    python3 perfbench/run.py --smoke               # every workload, tiny inputs
    python3 perfbench/run.py --record-reference    # rewrite the seed-1 references
    python3 perfbench/selftest.py                  # failure accounting self-test

Run it from the root of a chansim checkout; the program is imported from
``src/`` there, and nothing else is used.  The benchmark writes the
workload's inputs from ``--seed`` into ``.perfbench_work/`` and hands the
program only those files.

With ``--trace 0`` it runs rounds for about ``--seconds``.  A round starts
one fresh process that imports ``chansim.cli`` and builds the config, then
one fresh ``python -m chansim.cli`` process per subcommand of the
workload, one at a time, and checks every output.  It reports the median
set-up time (``setup_s``), the snapshots processed per second of CLI wall
time in the median round (``snapshots_per_s``) and the largest peak RSS of
any CLI child (``peak_rss_mb``); the per-subcommand medians, such as
``linkbudget_s``, go to the record.  With ``--trace 1`` it times
``-X importtime`` and alternates untraced and traced in-process runs
(``inproc.py``) for the per-layer metrics.  The last stdout line is the
result JSON; the line before it is the run record (versions, commit,
input sizes, sample counts and quartiles), also saved under
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

# The benchmark directory holds only its own sources, no bytecode caches.
sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
from workloads import (  # noqa: E402
    DENSE_RAYS,
    DENSE_SMOKE_RAYS,
    WORKLOADS,
    Workload,
    scenario,
    write_inputs,
)

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
INPROC = Path(__file__).resolve().parent / "inproc.py"
REFERENCE_SEED = 1
# Every run, build included, must end well inside 180 s.
RUN_DEADLINE_S = 165.0

SETUP_CODE = (
    "import sys, chansim.cli\n"
    "from chansim.config import apply_overrides, load_config\n"
    "apply_overrides(load_config(sys.argv[1]))\n"
)


class DeadlineExceeded(Exception):
    """The run's deadline passed before a child could be started."""


class Spawner:
    """Starts one child at a time under a shared deadline and reaps it with wait4."""

    def __init__(self, deadline: float, log_dir: Path) -> None:
        self.deadline = deadline
        self.log_dir = log_dir
        self.spawned = 0
        self.last_stderr: Path | None = None

    def run(self, args: list[str]) -> tuple[float, int, float]:
        """Wall seconds from spawn to exit, exit code and peak RSS (MB) of one child.

        The child's stderr is kept in ``self.last_stderr``.
        """
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise DeadlineExceeded
        self.spawned += 1
        self.last_stderr = self.log_dir / f"stderr-{self.spawned}.txt"
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self.last_stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                    stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                # Set before the timer is cancelled, so a late kill() is a no-op.
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
        return wall, proc.returncode, usage.ru_maxrss / 1024.0


def summarize(values: list[float]) -> dict:
    """Median, quartiles, count and the highest percentile with >= 10 samples beyond it."""
    vals = sorted(values)
    out = {"n": len(vals), "median": statistics.median(vals)}
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out.update(q1=q1, q3=q3)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if len(vals) * (1.0 - pct / 100.0) >= 10:
            out[f"p{pct:g}"] = statistics.quantiles(vals, n=1000)[int(pct * 10) - 1]
            break
    return out


def parse_importtime(text: str) -> dict[str, float]:
    """Cumulative import seconds of chansim and of scipy, numpy and yaml under it."""
    entries = []
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or "imported package" in line:
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(parts[1]) * 1e-6))
    totals = {"chansim": 0.0, "scipy": 0.0, "numpy": 0.0, "yaml": 0.0}
    ancestors: list[str] = []
    # Children are printed before their parent, so walk backwards.
    for depth, name, cum_s in reversed(entries):
        del ancestors[depth:]
        package = name.split(".")[0]
        under_chansim = (ancestors[0] if ancestors else name).split(".")[0] == "chansim"
        if (package in totals and under_chansim
                and not any(a.split(".")[0] == package for a in ancestors)):
            totals[package] += cum_s
        ancestors.append(name)
    return {f"import.{k}_s": v for k, v in totals.items()}


class WorkloadRun:
    """One benchmark run of one workload: inputs, timed children, checks."""

    def __init__(self, workload: Workload, seed: int, smoke: bool, spawner: Spawner) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.spawner = spawner
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
        self.inputs = write_inputs(workload, seed, smoke, self.dir)
        self.altitudes = sorted(scenario(workload, seed, smoke)["pass"]["altitudes_km"])
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.absent: list[str] = []
        self.compare_reference = True
        self.rays: list[int] | None = None
        if workload.uses_trace:
            self.rays = [DENSE_SMOKE_RAYS if smoke else DENSE_RAYS] * len(self.altitudes)

    def cli_args(self, sub: str, out: Path) -> list[str]:
        args = [sys.executable, "-m", "chansim.cli", sub,
                "--config", str(self.inputs["config"]), "--out", str(out)]
        if self.inputs["trace"] is not None:
            args += ["--trace", str(self.inputs["trace"])]
        return args

    def reference(self, sub: str) -> tuple[Path, Path] | None:
        if self.smoke or not self.compare_reference:
            return None
        paths = check.reference_paths(self.workload.name, self.seed, sub)
        return paths if all(p.is_file() for p in paths) else None

    def verify(self, sub: str, out: Path, exit_code: int) -> None:
        """Count one attempted report and record why it failed, if it did."""
        errors = [f"{sub}: exit code {exit_code}"] if exit_code != 0 else check.check_outputs(
            sub, out, self.altitudes, self.rays, self.reference(sub))
        self.count(errors)
        if not errors and sub in ("spreads", "fading") and not self.workload.uses_trace:
            self.rays = check.rays_per_snapshot(out / f"{sub}.csv")

    def count(self, errors: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(errors)
        self.failures.extend(errors)

    def setup_probe(self) -> float:
        wall, code, _ = self.spawner.run(
            [sys.executable, "-c", SETUP_CODE, str(self.inputs["config"])])
        self.count([f"setup: exit code {code}"] if code != 0 else [])
        return wall

    def measure(self, seconds: float) -> dict:
        """Time rounds of fresh-process calls for about ``seconds``."""
        subs = self.workload.subcommands
        self.setup_probe()  # untimed warm-up: bytecode cache and file cache
        samples: dict[str, list[float]] = {"setup_s": []}
        samples.update({f"{s}_s": [] for s in subs})
        round_walls: list[float] = []
        peak_rss = 0.0

        def one_round() -> bool:
            nonlocal peak_rss
            samples["setup_s"].append(self.setup_probe())
            round_wall = 0.0
            for sub in subs:
                out = self.dir / f"cli-{len(round_walls)}" / sub
                wall, code, rss = self.spawner.run(self.cli_args(sub, out))
                self.verify(sub, out, code)
                samples[f"{sub}_s"].append(wall)
                round_wall += wall
                peak_rss = max(peak_rss, rss)
                shutil.rmtree(out, ignore_errors=True)
            round_walls.append(round_wall)
            return True

        self.repeat_within(seconds, one_round)
        stats = {name: summarize(vals) for name, vals in samples.items() if vals}
        if not round_walls:
            return stats
        per_round = len(self.altitudes) * len(subs)
        stats["snapshots_per_s"] = {"n": len(round_walls),
                                    "median": per_round / statistics.median(round_walls)}
        stats["peak_rss_mb"] = {"n": len(round_walls) * len(subs), "median": peak_rss}
        return stats

    def repeat_within(self, seconds: float, step) -> None:
        """Call ``step`` once, then again while one more call of the mean
        duration so far still ends within ``seconds`` and before the
        deadline, and until ``step`` returns False."""
        start = time.perf_counter()
        calls = 0
        while True:
            try:
                if not step():
                    return
            except DeadlineExceeded:
                self.count(["run deadline reached"])
                return
            calls += 1
            now = time.perf_counter()
            if now + (now - start) / calls > min(start + seconds, self.spawner.deadline):
                return

    def inproc(self, traced: bool, index: int) -> dict | None:
        out = self.dir / f"inproc-{index}"
        spec = {"config": str(self.inputs["config"]),
                "trace": str(self.inputs["trace"]) if self.inputs["trace"] else None,
                "out_dir": str(out), "subcommands": list(self.workload.subcommands),
                "traced": traced, "result": str(self.dir / f"inproc-{index}.json")}
        spec_path = self.dir / f"inproc-{index}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        _, code, _ = self.spawner.run([sys.executable, str(INPROC), str(spec_path)])
        for sub in self.workload.subcommands:
            self.verify(sub, out / sub, code)
        shutil.rmtree(out, ignore_errors=True)
        if code != 0:
            return None
        return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))

    def trace(self, seconds: float) -> dict:
        """Import breakdown, then untraced/traced in-process pairs for about ``seconds``."""
        start = time.perf_counter()
        imports: dict[str, list[float]] = {}
        for _ in range(3):
            _, code, _ = self.spawner.run(
                [sys.executable, "-X", "importtime", "-c", "import chansim.cli"])
            self.count([f"importtime: exit code {code}"] if code != 0 else [])
            if code == 0:
                text = self.spawner.last_stderr.read_text(encoding="utf-8")
                for name, value in parse_importtime(text).items():
                    imports.setdefault(name, []).append(value)
        untraced, traced = [], []

        def one_pair() -> bool:
            plain = self.inproc(False, 2 * len(traced))
            spans = self.inproc(True, 2 * len(traced) + 1)
            if plain is None or spans is None:
                return False
            untraced.append(plain)
            traced.append(spans)
            return True

        self.repeat_within(seconds - (time.perf_counter() - start), one_pair)
        stats = {name: summarize(vals) for name, vals in imports.items()}
        if traced:
            stats.update(layer_stats(traced, untraced))
            self.absent = traced[-1]["absent"]
        return stats


def layer_stats(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer calls, self time, items and failures from the traced runs' spans."""
    per_run: list[dict[str, float]] = []
    for run in traced:
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _, _ in run["spans"]:
            child_time[parent] += end - start
        values: dict[str, float] = defaultdict(float)
        for call_id, _, name, start, end, items, failed in run["spans"]:
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += (end - start) - child_time[call_id]
            if items is not None:
                values[f"{name}.items"] += items
            values[f"{name}.failed"] += failed
            values["trace.failed"] += failed
        counters = run["counters"]
        values.update({k: v for k, v in counters.items() if not k.endswith(".no_quad")})
        mass_calls = values.get("fading.shadowed_rician_mass.calls", 0)
        if mass_calls:
            values["fading.mass_cache_hit_ratio"] = (
                counters.get("fading.shadowed_rician_mass.no_quad", 0) / mass_calls)
        values["report.bytes_written"] = run["bytes_written"]
        values["trace.wall_s"] = run["wall_s"]
        per_run.append(values)
    names = sorted(set().union(*per_run))
    stats = {name: summarize([run.get(name, 0.0) for run in per_run]) for name in names}
    wall_plain = statistics.median(run["wall_s"] for run in untraced)
    stats["trace.overhead_ratio"] = {
        "n": len(traced), "median": stats["trace.wall_s"]["median"] / wall_plain}
    return stats


def run_record(run: WorkloadRun, trace: int, seconds: float) -> dict:
    """How the run was made: machine, versions, commit, seed and input sizes."""
    init = (SRC / "chansim" / "__init__.py").read_text(encoding="utf-8")
    version = re.search(r'__version__\s*=\s*"([^"]+)"', init)
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    rays = run.rays
    sizes = {"snapshots": len(run.altitudes), "trace_bytes": run.inputs["trace_bytes"],
             "why": run.workload.why}
    if rays:
        sizes.update(rays_mean=sum(rays) / len(rays), rays_max=max(rays),
                     regimes=regime_split(run.altitudes, rays))
    return {
        "workload": run.workload.name, "seed": run.seed, "smoke": run.smoke, "trace": trace,
        "seconds": seconds, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "pyyaml": metadata.version("PyYAML"),
        "chansim": version.group(1) if version else None,
        "commit": commit,
        "inputs": sizes,
    }


def regime_split(altitudes: list[float], rays: list[int]) -> dict:
    """Fading regimes by the documented rule, with the default threshold psi2.

    psi2 is the elevation of the 100 km point, so a snapshot is shadowed
    exactly when its altitude is below 100 km.
    """
    split = {"shadowed-rician": 0, "rician": 0, "deterministic-los": 0}
    for h, n in zip(altitudes, rays):
        if h < 100.0:
            split["shadowed-rician"] += 1
        else:
            split["rician" if n > 1 else "deterministic-los"] += 1
    return split


def select_metrics(stats: dict, spec: list[dict]) -> dict:
    """The metrics BENCHMARK.json lists, in its order; an absent layer reads 0."""
    return {m["name"]: {"value": float(stats[m["name"]]["median"]) if m["name"] in stats else 0.0,
                        "unit": m["unit"]}
            for m in spec}


def run_workload(workload: Workload, seed: int, seconds: float, trace: int,
                 smoke: bool) -> tuple[dict, dict]:
    """Run one workload; return the result object and the full record."""
    WORK.mkdir(exist_ok=True)
    log_dir = Path(tempfile.mkdtemp(prefix="logs-", dir=WORK))
    spawner = Spawner(time.perf_counter() + RUN_DEADLINE_S, log_dir)
    run = WorkloadRun(workload, seed, smoke, spawner)
    try:
        stats = run.trace(seconds) if trace else run.measure(seconds)
        record = run_record(run, trace, seconds)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        shutil.rmtree(log_dir, ignore_errors=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = select_metrics(stats, spec["per_layer" if trace else "end_to_end"])
    result = {"correct": run.failed == 0 and run.attempted > 0,
              "attempted": max(run.attempted, 1), "failed": run.failed, "metrics": metrics}
    record.update(samples=stats, absent=run.absent, failures=run.failures[:20],
                  reference=run.reference(workload.subcommands[0]) is not None)
    if trace and "trace.wall_s" in stats:
        medians = {name: s["median"] for name, s in stats.items()}
        medians.update({m["name"]: 0.0 for m in spec["per_layer"] if m["name"] not in medians})
        record["confirms"] = {text: holds(medians) for text, holds in workload.confirms.items()}
    return result, record


def save_record(record: dict) -> Path:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    return path


def print_table(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:12s} {metric:40s} {entry['value']:14.6g} {entry['unit']}")
    print(f"{name:12s} {'failed/attempted':40s} {result['failed']:>7d}/{result['attempted']}")


def record_reference() -> int:
    """Rewrite the reference outputs of every workload at the reference seed."""
    WORK.mkdir(exist_ok=True)
    log_dir = Path(tempfile.mkdtemp(prefix="logs-", dir=WORK))
    spawner = Spawner(time.perf_counter() + 3600.0, log_dir)
    shutil.rmtree(check.REFERENCE_DIR, ignore_errors=True)
    try:
        for workload in WORKLOADS.values():
            run = WorkloadRun(workload, REFERENCE_SEED, False, spawner)
            run.compare_reference = False
            for sub in workload.subcommands:
                out = run.dir / sub
                run.verify(sub, out, spawner.run(run.cli_args(sub, out))[1])
                if run.failed:
                    print(f"{workload.name} {sub}: {run.failures}", file=sys.stderr)
                    return 1
                csv_ref, summary_ref = check.reference_paths(workload.name, REFERENCE_SEED, sub)
                csv_ref.parent.mkdir(parents=True, exist_ok=True)
                csv_ref.write_bytes(gzip.compress((out / f"{sub}.csv").read_bytes(), mtime=0))
                summary_ref.write_bytes(
                    gzip.compress((out / "summary.json").read_bytes(), mtime=0))
            shutil.rmtree(run.dir, ignore_errors=True)
    finally:
        shutil.rmtree(log_dir, ignore_errors=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all of them")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one round")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "chansim" / "cli.py").is_file():
        print(f"perfbench: no chansim sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    seconds = 0.0 if args.smoke else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, record = run_workload(WORKLOADS[name], args.seed, seconds, args.trace, args.smoke)
        print(json.dumps(record, default=str))
        print(f"record: {save_record(record)}")
        print_table(name, result)
        for text, holds in record.get("confirms", {}).items():
            print(f"{name:12s} {'confirmed' if holds else 'NOT confirmed'}: {text}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}" if len(names) > 1 else k: v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
