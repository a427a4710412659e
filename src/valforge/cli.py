"""Batch experiment driver: spanning checks, mixed-volume tables, synthesis
artifacts with verification, and the divergence lab.

Conventions: JSON for artifacts and reports, CSV for tables, newline-delimited
"x y" text for plot data.  Exit codes: 0 success, 1 mathematical-check
failure, 2 input/config error.  All floating fields serialize through repr
(shortest exact decimal, 17 significant digits at most) and round-trip
bit-exactly.  Commands are deterministic given (config, seed).
"""

import argparse
import contextlib
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
from jsonschema import Draft202012Validator

from . import __version__
from .bodies import (
    ConvexityViolation,
    body_from_dict,
    make_perturbed_ball,
)
from .counterexample import divergence_sweep, make_zonal_bump
from .family import SpanningFailure, build_family, dual_frame, spanning_certificate
from .harmonics import harmonic_count
from .kernels import ReconstructionFailure, decompose_kernel, harmonic_table_kernel, separable_kernel
from .mixed import (
    mixed_volume_quadrature,
    polytope_mixed_volume,
    polytope_volume,
    steiner_coefficients,
)
from .sphere import build_grid
from .synthesis import (
    KernelValuation,
    combination_from_dict,
    combination_to_dict,
    evaluate_combination,
    evaluate_kernel_valuation,
    synthesize,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2

_BODY_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["ellipsoid", "ball", "polytope", "perturbed_ball"]},
        "matrix": {"type": "array"},
        "radius": {"type": "number"},
        "vertices": {"type": "array"},
        "coeffs": {"type": "object"},
        "center": {"type": "array"},
    },
}

_CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "n": {"type": "integer", "minimum": 2},
        "k": {"type": "integer", "minimum": 1},
        "degree": {"type": "integer", "minimum": 2},
        "seed": {"type": "integer"},
        "tol": {"type": "number", "exclusiveMinimum": 0},
        "out": {"type": "string"},
        "bodies": {"type": "object", "additionalProperties": _BODY_SCHEMA},
        "volumes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["bodies"],
                "properties": {"bodies": {"type": "array", "items": {"type": "string"}}},
            },
        },
        "steiner": {"type": "array", "items": {"type": "string"}},
        "kernel": {
            "type": "object",
            "required": ["type"],
            "properties": {
                "type": {"enum": ["separable", "harmonic-table"]},
                "bodies": {"type": "array", "items": {"type": "string"}},
                "max_degree": {"type": "integer", "minimum": 0},
                "parity": {"enum": ["even", "odd"]},
                "terms": {"type": "array"},
            },
        },
        "test_bodies": {
            "type": "object",
            "properties": {
                "count": {"type": "integer", "minimum": 1},
                "max_degree": {"type": "integer", "minimum": 1},
                "amplitude": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
}


class InputError(Exception):
    pass


@contextlib.contextmanager
def _input_errors(what: str):
    """Turn a description the block cannot build from into an InputError about ``what``.

    A perturbed ball that fails its convexity certificate stays a
    ConvexityViolation (a mathematical-check failure).
    """
    try:
        yield
    except ConvexityViolation:
        raise
    except KeyError as err:
        raise InputError(f"{what}: missing field {err}") from err
    except (AttributeError, TypeError, ValueError) as err:
        raise InputError(f"{what}: {err}") from err


def _load_config(args) -> dict:
    config = {}
    if args.config is not None:
        try:
            config = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as err:
            raise InputError(f"cannot read config {args.config}: {err}") from err
    errors = sorted(Draft202012Validator(_CONFIG_SCHEMA).iter_errors(config), key=str)
    if errors:
        raise InputError("invalid config: " + "; ".join(e.message for e in errors))
    for key in ("n", "k", "degree", "tol", "seed", "out"):
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            config[key] = value
    config.setdefault("n", 3)
    config.setdefault("degree", 20)
    config.setdefault("seed", 0)
    config.setdefault("out", ".")
    return config


def _out_dir(config) -> Path:
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )


def cmd_spanning_check(args) -> int:
    config = _load_config(args)
    n, degree = config["n"], config["degree"]
    family = build_family(n, all_balls=args.all_balls)
    grid = build_grid(n, degree)
    report = {"n": n, "degree": degree, "t": family.t, "c": family.c, "N": family.size}
    try:
        min_sigma, node = spanning_certificate(family, grid)
    except SpanningFailure as err:
        report["error"] = str(err)
        print(json.dumps(report, indent=2))
        return EXIT_MATH
    report["min_sigma"] = min_sigma
    report["argmin_node"] = [float(v) for v in node]
    text = json.dumps(report, indent=2)
    print(text)
    if args.config is not None or args.out is not None:
        _write_json(_out_dir(config) / "spanning_check.json", report)
    return EXIT_OK


def _bodies_from_config(config, grid):
    bodies = {}
    for name, data in config.get("bodies", {}).items():
        with _input_errors(f"body {name}"):
            bodies[name] = body_from_dict(data, grid=grid)
    return bodies


def cmd_mixed_volume(args) -> int:
    config = _load_config(args)
    n, degree = config["n"], config["degree"]
    grid = build_grid(n, degree)
    bodies = _bodies_from_config(config, grid)
    requests = config.get("volumes", [])
    steiner_ids = config.get("steiner", [])
    if not requests and not steiner_ids:
        raise InputError("mixed-volume needs a 'volumes' or 'steiner' list in the config")
    if steiner_ids:
        missing = [b for b in steiner_ids if b not in bodies]
        if missing:
            raise InputError(f"unknown steiner body ids {missing}")
        steiner_rows = []
        for name in steiner_ids:
            for j, coeff in enumerate(steiner_coefficients(bodies[name], grid)):
                steiner_rows.append((name, j, coeff))
        _write_csv(_out_dir(config) / "steiner.csv", ("body-id", "j", "coefficient"), steiner_rows)
        for row in steiner_rows:
            print(", ".join(str(v) for v in row))
    rows = []
    for req in requests:
        names = req["bodies"]
        missing = [b for b in names if b not in bodies]
        if missing:
            raise InputError(f"unknown body ids {missing}")
        chosen = [bodies[b] for b in names]
        if len(names) == 0:
            rows.append(("euler", "constant", 1.0, 1.0, 0.0))
            continue
        if len(names) == 1:
            chosen = chosen * n  # single body: n-fold diagonal, i.e. its volume
        if len(chosen) != n:
            raise InputError(f"a mixed volume in R^{n} needs {n} bodies (or 1 for the volume)")
        values = {}
        if all(b.smooth for b in chosen[1:]):
            values["quadrature"] = mixed_volume_quadrature(chosen, grid)
        if all(b.vertices is not None for b in chosen):
            values["polytope"] = (
                polytope_volume(chosen[0]) if len(set(names)) == 1 and len(names) == 1
                else polytope_mixed_volume(chosen)
            )
        if not values:
            raise InputError(f"no route applies to bodies {names}")
        spread = max(values.values()) - min(values.values())
        rows.append(
            (
                "+".join(names),
                "/".join(sorted(values)),
                values.get("quadrature", float("nan")),
                values.get("polytope", float("nan")),
                spread,
            )
        )
    if requests:
        header = ("bodies", "routes", "quadrature", "polytope", "spread")
        for row in rows:
            print(", ".join(str(v) for v in row))
        _write_csv(_out_dir(config) / "mixed_volumes.csv", header, rows)
    return EXIT_OK


def _kernel_from_config(config, grid, bodies):
    spec = config.get("kernel")
    if spec is None:
        raise InputError("synthesize needs a 'kernel' entry in the config")
    n = config["n"]
    k = config["k"]
    factors = n - k
    max_degree = spec.get("max_degree", 6)
    if spec["type"] == "separable":
        names = spec.get("bodies", [])
        if len(names) != factors:
            raise InputError(f"separable kernel needs {factors} body ids, got {len(names)}")
        missing = [b for b in names if b not in bodies]
        if missing:
            raise InputError(f"unknown kernel body ids {missing}")
        fn = separable_kernel([bodies[b] for b in names])
    else:
        entries = spec.get("terms", [])
        if not entries:
            raise InputError("harmonic-table kernel needs a nonempty 'terms' list")
        with _input_errors("kernel"):
            fn = harmonic_table_kernel(
                n, [(float(e["coefficient"]), [label.split(",") for label in e["labels"]]) for e in entries]
            )
        if fn.factors != factors:
            raise InputError(f"harmonic-table entries need {factors} labels")
    decomposition = decompose_kernel(fn, factors, max_degree, n=n, grid=None)
    return KernelValuation(n=n, k=k, decomposition=decomposition, parity=spec.get("parity"))


def _test_bodies(config, grid, rng):
    spec = config.get("test_bodies", {})
    count = spec.get("count", 10)
    max_degree = spec.get("max_degree", 4)
    amplitude = spec.get("amplitude", 0.05)
    bodies = []
    while len(bodies) < count:
        coeffs = {}
        for l in range(1, max_degree + 1):
            for j in range(harmonic_count(grid.n, l)):
                if rng.random() < 0.4:
                    coeffs[(l, j)] = amplitude * rng.normal() / (1 + l)
        try:
            bodies.append(make_perturbed_ball(1.0, coeffs, grid))
        except ConvexityViolation:
            amplitude *= 0.8
    return bodies


def _round_trip(valuation, comb, bodies, grid, out: Path):
    """Kernel value against combination value on each (id, body), written to
    ``verification.csv``; returns the rows and the worst relative error."""
    rows = []
    worst = 0.0
    for name, K in bodies:
        kernel_value = evaluate_kernel_valuation(valuation, K, grid)
        comb_value = evaluate_combination(comb, K, grid)
        rel = abs(kernel_value - comb_value) / max(abs(kernel_value), 1e-12)
        worst = max(worst, rel if math.isfinite(rel) else math.inf)
        rows.append((name, kernel_value, comb_value, rel))
    _write_csv(out / "verification.csv", ("body-id", "kernel value", "combination value", "relative error"), rows)
    return rows, worst


def cmd_synthesize(args) -> int:
    config = _load_config(args)
    if "k" not in config:
        raise InputError("synthesize needs k (flag --k or config)")
    n, k, degree = config["n"], config["k"], config["degree"]
    tol = config.get("tol", 1e-2)
    grid = build_grid(n, degree)
    bodies = _bodies_from_config(config, grid)
    valuation = _kernel_from_config(config, grid, bodies)
    family = build_family(n)
    frame = dual_frame(family, grid)
    comb = synthesize(valuation, family, frame)
    out = _out_dir(config)
    artifact = combination_to_dict(comb, valuation)
    _write_json(out / "artifact.json", artifact)
    print(
        f"synthesized {len(comb.terms)} terms ({comb.mixed_volume_count} mixed volumes) "
        f"for n={n}, k={k}; artifact written to {out / 'artifact.json'}"
    )
    rng = np.random.default_rng(config["seed"])
    tests = _test_bodies(config, grid, rng)
    _, worst = _round_trip(valuation, comb, [(f"test-{idx}", K) for idx, K in enumerate(tests)], grid, out)
    print(f"verified on {len(tests)} bodies: max relative error {worst:.3e} (tolerance {tol:.1e})")
    return EXIT_OK if worst <= tol else EXIT_MATH


def _verify_body(idx, data, grid):
    """(id, body) of one --bodies entry; a description that builds no smooth body is an InputError.

    A perturbed ball that fails its convexity certificate stays a
    ConvexityViolation (a mathematical-check failure).
    """
    if not isinstance(data, dict):
        raise InputError(f"body body-{idx}: expected a JSON object, got {data!r}")
    data = dict(data)
    name = data.pop("id", f"body-{idx}")
    with _input_errors(f"body {name}"):
        K = body_from_dict(data, grid=grid)
    if not K.smooth:
        raise InputError(f"body {name}: verify evaluates smooth bodies only, got a {K.kind}")
    return name, K


def cmd_verify(args) -> int:
    config = _load_config(args)
    try:
        artifact = json.loads(Path(args.artifact).read_text())
        body_list = json.loads(Path(args.bodies).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise InputError(f"cannot read inputs: {err}") from err
    with _input_errors("artifact"):
        grid = build_grid(int(artifact["n"]), config["degree"])
        comb, valuation = combination_from_dict(artifact, grid)
    if valuation is None:
        raise InputError("artifact stores no kernel; cannot verify the round trip")
    if isinstance(body_list, dict):
        body_list = [dict(data, **{"id": name}) for name, data in body_list.items()]
    bodies = [_verify_body(idx, data, grid) for idx, data in enumerate(body_list)]
    tol = config.get("tol", 1e-2)
    rows, worst = _round_trip(valuation, comb, bodies, grid, _out_dir(config))
    for row in rows:
        print(", ".join(str(v) for v in row))
    print(f"max relative error {worst:.3e} (tolerance {tol:.1e})")
    return EXIT_OK if worst <= tol else EXIT_MATH


def _parse_sweep(text: str):
    try:
        start, stop, count = text.split(":")
        values = np.geomspace(float(start), float(stop), int(count))
        for eps in values:
            make_zonal_bump(eps)  # rejects eps outside (0, 1/12)
    except ValueError as err:
        raise InputError(f"bad sweep spec {text!r} ({err}); expected start:stop:count") from err
    if values.size == 0:
        raise InputError(f"bad sweep spec {text!r}: the sweep is empty")
    return values


def cmd_counterexample(args) -> int:
    config = _load_config(args)
    n = config["n"]
    if n < 3:
        raise InputError(f"the divergence lab needs n >= 3, got n={n}")
    eps_values = _parse_sweep(args.eps_sweep)
    sweep = divergence_sweep(eps_values, n=n)
    out = _out_dir(config)
    rows = [
        (p.eps, p.value, p.lower_bound, "pass" if p.passed else "fail") for p in sweep["probes"]
    ]
    _write_csv(out / "divergence.csv", ("eps", "T", "eps^-1/2", "status"), rows)
    plot_lines = [
        f"{math.log(p.eps)!r} {math.log(p.value)!r}" for p in sweep["probes"]
    ]
    (out / "divergence_loglog.txt").write_text("\n".join(plot_lines) + "\n")
    for row in rows:
        print(", ".join(str(v) for v in row))
    slope = sweep["slope"]
    if slope is None:
        print("single sweep point: no slope fit")
        ok = sweep["all_passed"]
    else:
        print(f"log-log slope {slope:.6f} (target -0.5 +- 0.05)")
        ok = sweep["all_passed"] and abs(slope + 0.5) <= 0.05
    return EXIT_OK if ok else EXIT_MATH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valforge",
        description="mixed-volume representations of smooth valuations: build, verify, probe",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config path")
        p.add_argument("--n", type=int, help="ambient dimension")
        p.add_argument("--degree", type=int, help="sphere grid exactness degree")
        p.add_argument("--tol", type=float, help="acceptance tolerance")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("spanning-check", help="build the ellipsoid family and certify spanning")
    common(p)
    p.add_argument("--all-balls", action="store_true", help="negative control: degenerate family")
    p.set_defaults(fn=cmd_spanning_check)

    p = sub.add_parser("mixed-volume", help="evaluate mixed volumes by all applicable routes")
    common(p)
    p.set_defaults(fn=cmd_mixed_volume)

    p = sub.add_parser("synthesize", help="kernel valuation -> finite mixed-volume combination")
    common(p)
    p.add_argument("--k", type=int, help="homogeneity degree")
    p.set_defaults(fn=cmd_synthesize)

    p = sub.add_parser("verify", help="re-verify a stored artifact on a body list")
    common(p)
    p.add_argument("--artifact", required=True, help="artifact JSON from synthesize")
    p.add_argument("--bodies", required=True, help="JSON list/map of body descriptions")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("counterexample", help="divergence sweep of the zonal probe")
    common(p)
    p.add_argument("--eps-sweep", default="1e-2:1e-5:7", help="start:stop:count, log-spaced")
    p.set_defaults(fn=cmd_counterexample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except (SpanningFailure, ReconstructionFailure, ConvexityViolation) as err:
        print(f"mathematical check failed: {err}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
