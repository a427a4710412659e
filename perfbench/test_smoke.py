"""Smoke test of the benchmark: every workload at small size, traced and not.

Run from the root of a checkout, either directly or under pytest:

    python3 perfbench/test_smoke.py
    python3 -m pytest -q perfbench/test_smoke.py

Each run must pass its correctness gates and print, as its last line, every
metric BENCHMARK.json names with the unit it declares.  A copy of the
benchmark without the package beside it must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, *BENCHMARK["command"][1:]]
    cmd += ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_workload(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], metric["name"]
        assert isinstance(emitted["value"], (int, float)), metric["name"]
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.95
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_synth():
    for trace in (0, 1):
        check_workload("synth", trace)


def test_verify():
    for trace in (0, 1):
        check_workload("verify", trace)


def test_zonal():
    for trace in (0, 1):
        check_workload("zonal", trace)


def test_fails_without_package():
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "synth", 0)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run is using it


if __name__ == "__main__":
    tests = [test_synth, test_verify, test_zonal, test_fails_without_package]
    for test in tests:
        test()
        print(f"{test.__name__}: ok")
