"""valforge benchmark: seeded workloads, end-to-end metrics, traced per-layer timings.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload synth --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5 --trace 0

Each workload is a cycle of parts.  Every part runs in a fresh interpreter
(``worker.py``), so module caches start cold the same way each time: the
interpreter imports valforge from ``src``, sets up, and runs the part's
operations one at a time.  Cycles repeat until the timed work reaches
``--seconds``.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same cycles untraced and then traced, and reports
the per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the benchmark directory
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402

WORKLOADS = ("synth", "verify", "zonal")
# BLAS, OpenMP and valforge's own pool all pinned to one thread
PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VALFORGE_THREADS": "1",
}
MIN_SETUPS = 7  # set-ups per run, so setup_s is a median
DEADLINE_S = 170.0  # a run ends within 180 s
WORK_ROOT = ".perfbench_work"

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "pass_ratio": "ratio",
    "err_digits": "digits",
    "peak_rss_mb": "MB",
}

VERIFY_BODIES = ["perturbed"] * 3 + ["ellipsoid", "ball", "translated"]
# full size: the measured workloads; smoke size: the same paths, small
PLANS = {
    "full": {
        "synth": {
            "parts": [
                {"kernels": [name], "test_bodies": 2}
                for name in ("separable-k1", "table-k1", "separable-k2")
            ]
        },
        "verify": {"fixture": {"k": 1}, "parts": [{"bodies": VERIFY_BODIES, "cross_check": [3, 1]}] * 3},
        "zonal": {
            "parts": [
                # criterion 6's eps set: one oracle-grid miss, then four hits
                {"ops": ["counterexample", "pairings=0.07,0.06,0.05,0.04,0.03"]},
                {"ops": ["pairings=0.025", "reductions=0,1,2"]},
            ]
        },
    },
    "smoke": {
        "synth": {"parts": [{"kernels": ["separable-k1"], "test_bodies": 1}]},
        "verify": {"fixture": {"k": 2}, "parts": [{"bodies": ["perturbed", "ellipsoid"], "cross_check": [1]}]},
        "zonal": {"parts": [{"ops": ["counterexample", "pairings=0.07", "reductions=1"]}]},
    },
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


class Runner:
    """Spawns worker interpreters for one workload and collects their reports."""

    def __init__(self, workload, seed, size, workdir, deadline):
        self.workload = workload
        self.seed = seed
        self.plan = PLANS[size][workload]
        self.workdir = workdir
        self.deadline = deadline
        self.spawned = 0
        src = str(Path.cwd() / "src")
        self.env = dict(os.environ, **PINS)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.env["PYTHONHASHSEED"] = "0"

    def spawn(self, **fields) -> dict:
        self.spawned += 1
        report_path = self.workdir / f"report-{self.spawned}.json"
        spec = {
            "workload": self.workload,
            "seed": self.seed,
            "workdir": str(self.workdir / f"rep-{self.spawned}"),
            "report": str(report_path),
            "trace": False,
            "setup_only": False,
            **fields,
        }
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("run exceeded its time limit")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as err:
            raise BenchError("worker exceeded the run's time limit") from err
        if proc.returncode != 0:
            raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
        report = json.loads(report_path.read_text())
        report["setup_s"] = report["ready"] - report["setup_start"]
        return report

    def fixture(self):
        if "fixture" not in self.plan:
            return 0.0, None
        report = self.spawn(fixture=self.plan["fixture"])
        return report["setup_s"], report["fixture_result"]

    def cycle(self, trace, fixture_result, setups=None) -> list:
        """Run every part once.  With ``setups`` given, interleave set-up-only
        interpreters between the parts until it holds MIN_SETUPS set-ups, so
        the set-up samples spread over the run rather than bunch at its end."""
        parts = self.plan["parts"]
        reps = []
        for i, part in enumerate(parts):
            reps.append(self.spawn(part=part, index=i, trace=trace, fixture_result=fixture_result))
            if setups is None:
                continue
            setups.append(reps[-1])
            # after part i, at least (i + 1)/len(parts) of the set-ups are in
            while len(setups) * len(parts) < MIN_SETUPS * (i + 1):
                index = len(setups) % len(parts)
                setups.append(
                    self.spawn(part=parts[index], index=index, setup_only=True, fixture_result=fixture_result)
                )
        return reps


def tail_latency(latencies):
    """Latency at the highest percentile with at least ten samples beyond it.

    Below 21 samples no percentile above the median has ten samples beyond
    it, and the maximum is reported instead.  Returns (value, label).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} of n={n}"
    return ordered[-1], f"max of n={n}"


def end_to_end(reps, setup_reps, cycles):
    ops = [op for r in reps for op in r["ops"]]
    timed = sum(r["timed_s"] for r in reps)
    latencies = [op["latency_s"] for op in ops]
    digits = [-math.log10(max(op["err"], 1e-16)) for op in ops if op["err"] is not None]
    failed = sum(not op["ok"] for op in ops)
    # the tail is taken per cycle, so its percentile does not move with the
    # number of cycles a run happens to fit into --seconds
    per_cycle = len(reps) // cycles
    tails = [
        tail_latency([op["latency_s"] for r in reps[i : i + per_cycle] for op in r["ops"]])
        for i in range(0, len(reps), per_cycle)
    ]
    tail = statistics.median(value for value, _ in tails)
    tail_label = f"{tails[0][1]} per cycle, median of {cycles} cycle(s)"
    setups = [r["setup_s"] for r in setup_reps]
    values = {
        "setup_s": statistics.median(setups),
        "run_s": timed / cycles,
        "ops_per_s": len(ops) / timed,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "pass_ratio": (len(ops) - failed) / len(ops),
        "err_digits": statistics.mean(digits) if digits else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "run_s": f"timed work per cycle, {cycles} cycle(s)",
        "ops_per_s": f"{len(ops)} ops in {timed:.3f} s",
        "op_p50_s": f"n={len(latencies)}",
        "op_tail_s": tail_label,
        "pass_ratio": f"{failed} of {len(ops)} failed",
        "err_digits": f"mean over {len(digits)} ops; worst {min(digits, default=0.0):.3f} digits",
        "peak_rss_mb": f"median of {len(reps)} processes",
    }
    return values, notes


def run_workload(workload, seed, seconds, trace, size, deadline):
    workdir = Path.cwd() / WORK_ROOT / f"{workload}-s{seed}-t{trace}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, seed, size, workdir, deadline)
        fixture_s, fixture_result = runner.fixture()
        reps, setup_reps, traced, cycles = [], [], [], 0
        while cycles == 0 or sum(r["timed_s"] for r in reps) < seconds:
            # the first cycle of an untraced run also collects the set-ups
            reps += runner.cycle(False, fixture_result, setup_reps if cycles == 0 and not trace else None)
            cycles += 1
        if trace:
            for _ in range(cycles):
                traced += runner.cycle(True, fixture_result)
        versions = reps[0]["versions"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (Path.cwd() / WORK_ROOT).rmdir()
        except OSError:
            pass  # another run still uses it, or it holds leftovers

    expected_src = (Path.cwd() / "src" / "valforge").resolve()
    if Path(versions["valforge_path"]).resolve() != expected_src:
        raise BenchError(f"imported valforge from {versions['valforge_path']}, not {expected_src}")

    all_reps = reps + traced
    problems = [
        f"{kind} {item['label']}: {item.get('detail')}"
        for r in all_reps
        for kind in ("ops", "steps")
        for item in r[kind]
        if not item["ok"]
    ]
    attempted = sum(len(r["ops"]) for r in all_reps)
    failed = sum(not op["ok"] for r in all_reps for op in r["ops"])

    if trace:
        timed_traced = sum(r["timed_s"] for r in traced)
        coverage = sum(r["covered_s"] for r in traced) / timed_traced
        overhead = timed_traced / sum(r["timed_s"] for r in reps)
        values, notes = tracing.layer_metrics([r["trace"] for r in traced], coverage, overhead)
        missing = tracing.missing_calls(values, workload)
        if missing:
            raise BenchError(f"trace self-check: {workload} recorded no call of {', '.join(missing)}")
        units = tracing.per_layer_units()
    else:
        values, notes = end_to_end(reps, setup_reps, cycles)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    info = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "cycles": cycles,
        "processes": runner.spawned,
        **({"fixture_s": fixture_s, "fixture_mv_count": fixture_result["mv_count"]} if fixture_result else {}),
    }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, info, notes, problems, versions


def environment(versions) -> dict:
    commit = None
    if (Path.cwd() / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
            )
            commit = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((Path.cwd() / "src" / "valforge").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "pins": PINS,
        "python": versions["python"],
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "valforge": versions["valforge"],
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def print_metrics(prefix, result, notes):
    for name, metric in result["metrics"].items():
        note = notes.get(name)
        line = f"{prefix}{name} {metric['value']!r} {metric['unit']}"
        print(line + (f"  ({note})" if note else ""))


def parse_args(argv):
    parser = argparse.ArgumentParser(description="valforge benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed work per run, at least")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(PLANS), default="full", help="smoke: small inputs")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (Path.cwd() / "src" / "valforge" / "__init__.py").is_file():
        print("perfbench: run from the root of a valforge checkout (src/valforge not found)", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.perf_counter() + DEADLINE_S * len(workloads)
    results = {}
    try:
        for workload in workloads:
            result, info, notes, problems, versions = run_workload(
                workload, args.seed, args.seconds, args.trace, args.size, deadline
            )
            print(f"# {json.dumps(info)}")
            print(f"# env {json.dumps(environment(versions))}")
            for problem in problems:
                print(f"perfbench: {workload} {problem}", file=sys.stderr)
            prefix = f"{workload}." if args.workload == "all" else ""
            print_metrics(prefix, result, notes)
            results[workload] = result
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
