"""Per-layer spans recorded from outside the package.

Every function named in ``LAYERS`` is replaced, for the length of a traced
run, by a timing wrapper.  The wrapper goes into every valforge namespace
that bound the same object (``restricted_hessian_stack`` alone is bound in six
modules), and methods are wrapped on their class.  Each call records a span;
a layer's self time is its span time minus the time of the spans it caused.

This module uses the standard library only, so the orchestrator can read the
layer table without importing numpy or valforge.
"""

import functools
import importlib
import sys
import time

ALL = ("synth", "verify", "zonal")

# (module, function or Class.method, workloads whose traced run must call it)
LAYERS = (
    ("sphere", "build_grid", ALL),
    ("sphere", "restricted_hessian_stack", ("synth", "verify", "zonal")),
    ("sphere", "mixed_discriminant_stack", ALL),
    ("harmonics", "harmonic_dictionary", ("synth", "verify")),
    ("harmonics", "project_to_dictionary", ("synth",)),
    ("harmonics", "HarmonicCombination.values", ("synth", "verify")),
    ("harmonics", "HarmonicCombination.hessians", ("synth", "verify", "zonal")),
    ("bodies", "make_perturbed_ball", ("synth", "verify", "zonal")),
    ("bodies", "body_from_dict", ("synth", "verify")),
    ("bodies", "ellipsoid_approx", ("verify",)),
    ("family", "build_family", ALL),
    ("family", "dual_frame", ALL),
    ("family", "SpanningFrame.coefficients_stack", ("synth",)),
    ("kernels", "decompose_kernel", ("synth",)),
    ("synthesis", "synthesize", ("synth",)),
    ("synthesis", "accumulate_g_alpha", ("synth",)),
    ("synthesis", "convexify", ("synth",)),
    ("synthesis", "combination_to_dict", ("synth",)),
    ("synthesis", "combination_from_dict", ("verify",)),
    ("synthesis", "evaluate_kernel_valuation", ("synth", "verify")),
    ("synthesis", "evaluate_combination", ("synth", "verify")),
    ("mixed", "mixed_area_density", ("synth", "verify", "zonal")),
    ("mixed", "mixed_volume_smooth", ("synth", "verify")),
    ("mixed", "mixed_volume_quadrature", ("verify",)),
    ("mixed", "polytope_mixed_volume", ("verify",)),
    ("mixed", "minkowski_volume", ("verify",)),
    ("counterexample", "gw_sphere_oracle", ("zonal",)),
    ("counterexample", "gw_zonal", ("zonal",)),
    ("counterexample", "gw_zonal_by_parts", ("zonal",)),
    ("counterexample", "divergence_sweep", ("zonal",)),
    ("counterexample", "divergence_probe", ("zonal",)),
    ("counterexample", "derivative_reduction", ("zonal",)),
    ("counterexample", "counterexample_valuation", ("zonal",)),
    ("cli", "main", ("synth", "zonal")),
)

# metrics computed from spans rather than read off one function: (name, unit)
DERIVED = (
    ("kernels.kept_terms", "count"),
    ("synthesis.alpha_terms", "count"),
    ("synthesis.mv_count", "count"),
    ("synthesis.radius_doublings", "count"),
    ("mixed.minkowski_volumes_per_mv", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)


def layer_name(module: str, attr: str) -> str:
    return f"{module}.{attr}"


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for module, attr, _ in LAYERS:
        name = layer_name(module, attr)
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.failed"] = "count"
    units.update(DERIVED)
    return units


class Tracer:
    """Installs the wrappers, accumulates span statistics and removes them."""

    def __init__(self):
        self.calls = {layer_name(m, a): 0 for m, a, _ in LAYERS}
        self.self_s = {name: 0.0 for name in self.calls}
        self.failed = {name: 0 for name in self.calls}
        self.top_level_s = 0.0  # summed time of spans opened outside any span
        self.counts = {
            "kept_terms": 0,
            "alpha_terms": 0,
            "alpha_term_bound": 0,
            "mv_count": 0,
            "radius_doublings": 0,
            "hull_ops": 0,
            "hull_volumes": 0,
        }
        self._stack = []  # open spans: [name, time spent in child spans]
        self._patches = []  # (owner, attribute, original)

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function; a missing name raises LookupError."""
        modules = [m for key, m in sys.modules.items() if key == "valforge" or key.startswith("valforge.")]
        for module_name, attr, _ in LAYERS:
            module = importlib.import_module(f"valforge.{module_name}")
            name = layer_name(module_name, attr)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or method not in vars(cls):
                    raise LookupError(f"traced layer {name} no longer exists")
                original = vars(cls)[method]
                self._patch(cls, method, original, self._wrap(name, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                raise LookupError(f"traced layer {name} no longer exists")
            wrapper = self._wrap(name, original)
            for owner in modules:
                for bound_name, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, bound_name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched binding and check that none is left wrapped."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        leftover = [f"{o.__name__}.{a}" for o, a, orig in self._patches if getattr(o, a) is not orig]
        self._patches = []
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name, fn):
        before, after = _OBSERVERS.get(name, (None, None))
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            state = before(self) if before else None
            stack.append([name, 0.0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                parent = stack[-2][0] if len(stack) > 1 else None
                if name == "bodies.make_perturbed_ball" and parent == "synthesis.convexify":
                    self.counts["radius_doublings"] += 1
                raise
            finally:
                elapsed = clock() - start
                _, child = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - child
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_level_s += elapsed
            if after:
                after(self, args, kwargs, result, state)
            return result

        return span

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "failed": dict(self.failed),
            "counts": dict(self.counts),
        }


def _after_decompose(tracer, args, kwargs, result, state):
    tracer.counts["kept_terms"] += len(result.terms)


def _after_synthesize(tracer, args, kwargs, result, state):
    from valforge import mixed_volume_count_bound

    tracer.counts["alpha_terms"] += len(result.terms)
    tracer.counts["mv_count"] += result.mixed_volume_count
    tracer.counts["alpha_term_bound"] += mixed_volume_count_bound(result.n, result.k) // 2


def _after_polytope(tracer, args, kwargs, result, volumes_before):
    hull_volumes = tracer.calls["mixed.minkowski_volume"] - volumes_before
    if hull_volumes:
        tracer.counts["hull_ops"] += 1
        tracer.counts["hull_volumes"] += hull_volumes


# layer -> (before(tracer) -> state or None, after(tracer, args, kwargs, result, state))
_OBSERVERS = {
    "kernels.decompose_kernel": (None, _after_decompose),
    "synthesis.synthesize": (None, _after_synthesize),
    "mixed.polytope_mixed_volume": (lambda tracer: tracer.calls["mixed.minkowski_volume"], _after_polytope),
}


def layer_metrics(snapshots, coverage: float, overhead: float):
    """Sum traced-process snapshots into the per-layer metric values.

    Returns (values, notes).  The α-term bound is fixed by the workload's
    (n, k), not measured, so it is printed beside ``synthesis.alpha_terms``
    rather than reported as a metric.
    """

    def total(field, key):
        return sum(snap[field][key] for snap in snapshots)

    values = {}
    for module, attr, _ in LAYERS:
        name = layer_name(module, attr)
        for field in ("calls", "self_s", "failed"):
            values[f"{name}.{field}"] = total(field, name)
    counts = {key: total("counts", key) for key in snapshots[0]["counts"]}
    hull_ops = counts["hull_ops"]
    values.update(
        {
            "kernels.kept_terms": counts["kept_terms"],
            "synthesis.alpha_terms": counts["alpha_terms"],
            "synthesis.mv_count": counts["mv_count"],
            "synthesis.radius_doublings": counts["radius_doublings"],
            "mixed.minkowski_volumes_per_mv": counts["hull_volumes"] / hull_ops if hull_ops else 0.0,
            "trace.coverage": coverage,
            "trace.overhead": overhead,
        }
    )
    notes = {}
    if counts["alpha_term_bound"]:
        notes["synthesis.alpha_terms"] = f"bound {counts['alpha_term_bound']} (mixed_volume_count_bound / 2, summed)"
    return values, notes


def missing_calls(values: dict, workload: str) -> list:
    """Layers the workload is meant to exercise that recorded no call."""
    return [
        layer_name(m, a)
        for m, a, expected in LAYERS
        if workload in expected and values[f"{layer_name(m, a)}.calls"] == 0
    ]
