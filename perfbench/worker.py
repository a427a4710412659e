"""One repetition of a workload in a fresh interpreter.

Usage: python3 perfbench/worker.py '<json spec>'

The spec names the workload, the seed, the part of the workload's cycle to
run, whether to stop after set-up, the work directory and whether to trace.
The worker imports valforge, sets up, runs the part's operations one at a
time (closed loop, one process), checks every result against its reference,
and writes a JSON report to ``spec["report"]``.  It calls valforge
only through ``valforge.cli.main(argv)`` and the names exported by
``valforge``, looked up at call time so that traced wrappers are seen.
"""

import contextlib
import csv
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

# The third-party libraries valforge imports are loaded before the set-up
# clock starts: they are the interpreter's cost, not valforge's.
import jsonschema  # noqa: F401
import numpy as np
import scipy
import scipy.integrate  # noqa: F401
import scipy.linalg  # noqa: F401
import scipy.spatial  # noqa: F401
import scipy.special  # noqa: F401

SETUP_START = time.perf_counter()

import valforge as vf  # noqa: E402
import valforge.cli  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer as tracing  # noqa: E402

N = 3
GRID_DEGREE = 20
SYNTH_TOL = 1e-2  # tolerance of the synthesize/verify round trip (cli default, criterion 4)
VERIFY_TOL = 1e-2
# polytope route vs quadrature, per icosphere level.  The gap is the polytope
# approximation's own error, not the program's.  Level 3 uses the acceptance
# tolerance (the seed commit's worst is 9.2e-5 over 40 triples).  Level 1
# uses 3e-2, about 2.6 times the seed commit's worst of 1.14e-2 over 400
# rotated level-1 triples.
POLYTOPE_TOL = {1: 3e-2, 3: 1e-3}
ORACLE_TOL = 1e-5
BY_PARTS_TOL = 1e-7
REDUCTION_TOL = 1e-4
FIT_TOL = 1e-8
SLOPE_TARGET, SLOPE_TOL = -0.5, 0.05
SWEEP = "1e-2:1e-5:7"

# the separable kernel of the command-line tests and the criterion-4 table
KERNEL_BODIES = {
    "L1": {"kind": "perturbed_ball", "radius": 1.0, "coeffs": {"2,0": 0.05, "3,1": 0.02}},
    "L2": {"kind": "perturbed_ball", "radius": 1.0, "coeffs": {"1,0": 0.1, "4,3": 0.03}},
}
TABLE_K1 = [
    {"coefficient": 1.0, "labels": ["0,0", "0,0"]},
    {"coefficient": 0.25, "labels": ["2,1", "1,0"]},
    {"coefficient": -0.15, "labels": ["3,2", "2,4"]},
    {"coefficient": 0.1, "labels": ["1,1", "3,0"]},
    {"coefficient": 0.05, "labels": ["4,5", "0,0"]},
]
KERNELS = {
    "separable-k1": (1, {"type": "separable", "bodies": ["L1", "L2"], "max_degree": 4}),
    "table-k1": (1, {"type": "harmonic-table", "max_degree": 4, "terms": TABLE_K1}),
    "separable-k2": (2, {"type": "separable", "bodies": ["L1"], "max_degree": 4}),
}
WORKLOAD_IDS = {"synth": 1, "verify": 2, "zonal": 4}


class GateFailure(Exception):
    """An operation returned, but its result breaches a tolerance."""

    def __init__(self, message, err=None):
        super().__init__(message)
        self.err = err


def rel_err(value, reference) -> float:
    return abs(value - reference) / max(abs(reference), 1e-12)


def check(condition: bool, message: str, err=None) -> None:
    if not condition:
        raise GateFailure(message, err)


# -- seeded inputs ------------------------------------------------------------


def random_spd(rng):
    eig = np.diag(rng.uniform(0.6, 1.6, N))
    q, _ = np.linalg.qr(rng.normal(size=(N, N)))
    return q @ eig @ q.T


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(N, N)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_perturbed_ball(rng, grid, amplitude=0.05, max_degree=4):
    """Random low-degree perturbation of the unit ball, shrunk until convex."""
    while True:
        coeffs = {}
        for l in range(1, max_degree + 1):
            for j in range(2 * l + 1):
                if rng.random() < 0.4:
                    coeffs[f"{l},{j}"] = float(amplitude * rng.normal() / (1 + l))
        data = {"kind": "perturbed_ball", "radius": 1.0, "coeffs": coeffs}
        try:
            return data, vf.body_from_dict(data, grid=grid)
        except vf.ConvexityViolation:
            amplitude *= 0.8


def verify_body(rng, grid, kind):
    if kind == "perturbed":
        return random_perturbed_ball(rng, grid)[0]
    if kind == "ellipsoid":
        return {"kind": "ellipsoid", "matrix": random_spd(rng).tolist()}
    if kind == "ball":
        return {"kind": "ball", "radius": float(rng.uniform(0.5, 2.0))}
    if kind == "translated":
        body = verify_body(rng, grid, "perturbed")
        body["center"] = rng.uniform(-1.0, 1.0, N).tolist()
        return body
    raise ValueError(f"unknown verify body kind {kind!r}")


# -- workloads ----------------------------------------------------------------
#
# A set-up returns (steps, ops): lists of (label, (timed, gate)).  ``timed``
# is the measured call; ``gate`` checks its result afterwards, returns the
# relative error against the reference (None when there is none) and raises
# on a breach.  Steps are timed and gated but are not operations: the verify
# workload's artifact reload is one.


def quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return valforge.cli.main(argv)


def setup_synth(spec, rng, ctx):
    vf.harmonic_dictionary(N, 8)  # the projection dictionary of degree 4 + margin 4
    ops = []
    for name in spec["part"]["kernels"]:
        k, kernel = KERNELS[name]
        out = ctx["workdir"] / name
        config = {
            "n": N,
            "k": k,
            "degree": GRID_DEGREE,
            "seed": int(rng.integers(2**31)),
            "tol": SYNTH_TOL,
            "out": str(out),
            "bodies": KERNEL_BODIES,
            "kernel": kernel,
            "test_bodies": {"count": spec["part"]["test_bodies"], "max_degree": 4, "amplitude": 0.05},
        }
        path = ctx["workdir"] / f"{name}.json"
        path.write_text(json.dumps(config))
        ops.append((name, synth_op(path, out, k, spec["part"]["test_bodies"])))
    return [], ops


def synth_op(config_path, out, k, count):
    def timed():
        return quiet_cli(["synthesize", "--config", str(config_path)])

    def gate(code):
        check(code == 0, f"synthesize exited with {code}")
        artifact = json.loads((out / "artifact.json").read_text())
        bound = vf.mixed_volume_count_bound(N, k)
        mv = artifact["mixed_volume_count"]
        check(mv == 2 * len(artifact["terms"]) and mv <= bound, f"{mv} mixed volumes (bound {bound})")
        with (out / "verification.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        check(len(rows) == count, f"{len(rows)} verification rows, expected {count}")
        worst = max(rel_err(float(r["combination value"]), float(r["kernel value"])) for r in rows)
        check(worst <= SYNTH_TOL, f"round-trip error {worst:.3e} > {SYNTH_TOL}", worst)
        return worst

    return timed, gate


def build_verify_fixture(spec, workdir):
    """Synthesize the k-homogeneous artifact the verify workload reloads."""
    grid = vf.build_grid(N, GRID_DEGREE)
    family = vf.build_family(N)
    frame = vf.dual_frame(family, grid)
    k = spec["fixture"]["k"]
    names = ["L1", "L2"][: N - k]
    bodies = [vf.body_from_dict(KERNEL_BODIES[b], grid=grid) for b in names]
    decomposition = vf.decompose_kernel(vf.separable_kernel(bodies), N - k, 4)
    valuation = vf.KernelValuation(n=N, k=k, decomposition=decomposition)
    comb = vf.synthesize(valuation, family, frame)
    bound = vf.mixed_volume_count_bound(N, k)
    if comb.mixed_volume_count > bound:
        raise GateFailure(f"fixture has {comb.mixed_volume_count} mixed volumes (bound {bound})")
    path = workdir / "verify-artifact.json"
    path.write_text(json.dumps(vf.combination_to_dict(comb, valuation)))
    return {"artifact": str(path), "mv_count": comb.mixed_volume_count}


def setup_verify(spec, rng, ctx):
    grid = ctx["grid"]
    vf.harmonic_dictionary(N, 8)
    artifact = json.loads(Path(spec["fixture_result"]["artifact"]).read_text())
    state = {}

    def reload():
        state["comb"], state["valuation"] = vf.combination_from_dict(artifact, grid)

    def reload_gate(_):
        check(state["valuation"] is not None, "artifact reload lost its kernel")
        count = state["comb"].mixed_volume_count
        check(count == artifact["mixed_volume_count"], f"reloaded {count} mixed volumes")
        return None

    ops = [(kind, verify_op(verify_body(rng, grid, kind), grid, state)) for kind in spec["part"]["bodies"]]
    steps = [("reload", (reload, reload_gate))]
    steps.append(("polytope cross-check", cross_check_step(rng, grid, spec["part"]["cross_check"])))
    return steps, ops


def verify_op(body, grid, state):
    def timed():
        K = vf.body_from_dict(dict(body), grid=grid)
        kernel_value = vf.evaluate_kernel_valuation(state["valuation"], K, grid)
        return kernel_value, vf.evaluate_combination(state["comb"], K, grid)

    def gate(values):
        kernel_value, comb_value = values
        err = rel_err(comb_value, kernel_value)
        check(err <= VERIFY_TOL, f"round-trip error {err:.3e} > {VERIFY_TOL}", err)
        return err

    return timed, gate


def cross_check_step(rng, grid, levels):
    """The second route to a mixed volume, one seeded ellipsoid triple per level.

    The polytope route (``ellipsoid_approx``, then ``polytope_mixed_volume``
    with engine "auto": the overlay at level 3, hulls at level 1) is timed;
    the reference is the quadrature of the smooth ellipsoids.
    """
    triples = []
    for level in levels:
        mats = [random_spd(rng) for _ in range(N)]
        rotations = [random_rotation(rng) for _ in range(N)]
        reference = vf.mixed_volume_quadrature([vf.make_ellipsoid(A) for A in mats], grid)
        triples.append((level, mats, rotations, reference))

    def timed():
        return [
            vf.polytope_mixed_volume([vf.ellipsoid_approx(A, level, rotation=R) for A, R in zip(mats, rotations)])
            for level, mats, rotations, _ in triples
        ]

    def gate(values):
        errs = [rel_err(value, triple[3]) for value, triple in zip(values, triples)]
        for err, (level, *_) in zip(errs, triples):
            tol = POLYTOPE_TOL[level]
            check(err <= tol, f"level-{level} polytope route vs quadrature {err:.3e} > {tol}", max(errs))
        return max(errs)

    return timed, gate


def setup_zonal(spec, rng, ctx):
    grid = ctx["grid"]
    bodies = [vf.make_ellipsoid(random_spd(rng))]
    bodies += [random_perturbed_ball(rng, grid)[1] for _ in range(2)]
    ops = []
    for item in spec["part"]["ops"]:
        kind, _, args = item.partition("=")
        if kind == "counterexample":
            ops.append((kind, counterexample_op(ctx["workdir"] / "counterexample")))
        elif kind == "pairings":
            ops.append((item, pairings_op([float(eps) for eps in args.split(",")])))
        elif kind == "reductions":
            ops.append((item, reductions_op([bodies[int(i)] for i in args.split(",")], grid)))
        else:
            raise ValueError(f"unknown zonal op {item!r}")
    return [], ops


def counterexample_op(out):
    def timed():
        return quiet_cli(["counterexample", "--n", str(N), "--eps-sweep", SWEEP, "--out", str(out)])

    def gate(code):
        check(code == 0, f"counterexample exited with {code}")
        with (out / "divergence.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        expected = int(SWEEP.split(":")[2])
        check(len(rows) == expected and all(r[3] == "pass" for r in rows), "divergence probes failed")
        points = np.loadtxt(out / "divergence_loglog.txt", ndmin=2)
        slope = float(np.polyfit(points[:, 0], points[:, 1], 1)[0])
        check(abs(slope - SLOPE_TARGET) <= SLOPE_TOL, f"log-log slope {slope:.4f}")
        return None

    return timed, gate


def pairings_op(eps_values):
    """The three routes to the zonal pairing, for each eps in turn.

    One op covers a run of eps values so that its latency is long enough to
    measure steadily; the oracle grid cache is hit or missed inside it.
    """

    def timed():
        values = []
        for eps in eps_values:
            phi = vf.make_zonal_bump(eps)
            values.append((vf.gw_zonal(phi, N), vf.gw_zonal_by_parts(phi, N), vf.gw_sphere_oracle(phi, N)))
        return values

    def gate(values):
        e_parts = max(rel_err(by_parts, direct) for direct, by_parts, _ in values)
        e_oracle = max(rel_err(oracle, direct) for direct, _, oracle in values)
        err = max(e_parts, e_oracle)
        check(e_parts <= BY_PARTS_TOL, f"by-parts pairing off by {e_parts:.3e}", err)
        check(e_oracle <= ORACLE_TOL, f"sphere oracle off by {e_oracle:.3e}", err)
        return err

    return timed, gate


def reductions_op(bodies, grid):
    def timed():
        return [vf.derivative_reduction(K, 2, N, grid) for K in bodies]

    def gate(results):
        rel = max(r.relative_error for r in results)
        fit = max(r.fit_residual for r in results)
        err = max(rel, fit)
        check(rel <= REDUCTION_TOL, f"derivative mismatch {rel:.3e}", err)
        check(fit <= FIT_TOL, f"fit residual {fit:.3e}", err)
        return err

    return timed, gate


SETUPS = {"synth": setup_synth, "verify": setup_verify, "zonal": setup_zonal}


# -- one repetition -----------------------------------------------------------


def run_part(spec) -> dict:
    workdir = Path(spec["workdir"])
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    report = {"steps": [], "ops": [], "timed_s": 0.0}
    try:
        if spec.get("fixture"):
            report["fixture_result"] = build_verify_fixture(spec, workdir)
            report["ready"] = time.perf_counter()
            return report
        grid = vf.build_grid(N, GRID_DEGREE)
        family = vf.build_family(N)
        vf.dual_frame(family, grid)
        rng = np.random.default_rng([spec["seed"], WORKLOAD_IDS[spec["workload"]], spec["index"]])
        steps, ops = SETUPS[spec["workload"]](spec, rng, {"grid": grid, "workdir": workdir})
        report["ready"] = time.perf_counter()
        if spec["setup_only"]:
            return report
        covered_before = tracer.top_level_s if tracer else 0.0
        for key, items in (("steps", steps), ("ops", ops)):
            for label, (timed, gate) in items:
                report[key].append(run_op(label, timed, gate, report))
        if tracer:
            report["covered_s"] = tracer.top_level_s - covered_before
    finally:
        if tracer:
            tracer.uninstall()
            report["trace"] = tracer.snapshot()
    return report


def run_op(label, timed, gate, report) -> dict:
    """Time one operation, then check its result outside the timed window."""
    entry = {"label": label, "ok": False, "err": None}
    start = time.perf_counter()
    try:
        value = timed()
    except Exception:  # a failing call is a failed op; the run goes on
        entry["latency_s"] = time.perf_counter() - start
        entry["detail"] = traceback.format_exc(limit=3)
    else:
        entry["latency_s"] = time.perf_counter() - start
        try:
            entry["err"] = gate(value)
            entry["ok"] = True
        except Exception as err:  # a breached gate or an unreadable output
            entry["err"] = getattr(err, "err", None)
            entry["detail"] = f"{type(err).__name__}: {err}"
    report["timed_s"] += entry["latency_s"]
    return entry


def main() -> int:
    spec = json.loads(sys.argv[1])
    report = run_part(spec)
    report["setup_start"] = SETUP_START
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "valforge": vf.__version__,
        "valforge_path": os.path.dirname(vf.__file__),
    }
    Path(spec["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
