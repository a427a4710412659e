"""Zonal divergence lab: a degree-k valuation outside the span of mixed volumes.

The valuation mu_k(K) = integral f(x_n) dS(K[k], B[n-k-1]) with
f(t) = sqrt(|t|) (1 - t^2)^{-(n-3)/2} psi(t) pairs, through its distributional
representation, a zonal test function phi with

    omega_{n-2} * integral_0^1 sqrt(t) [(1-t^2) phi'' - (n-1) t phi' + (n-1) phi] dt

(valid while supp phi sits inside (0, 1/3), where psi == 1 and the f and
surface-measure powers of (1 - t^2) cancel).  Bump test functions with plateau
[eps, 4*eps] make the leading term grow like eps^{-1/2}, so the pairing cannot
be bounded by sup-norms: the valuation is not a combination of mixed volumes.

The pairing is computed three ways: adaptive quadrature of the cancelled form
(gw_zonal), the same after integration by parts (gw_zonal_by_parts), and an
independent sphere quadrature of the uncancelled integrand (gw_sphere_oracle).
The oracle's integrand is zonal, so it reduces exactly to a 1-D integral in
u = x_n against the weight (1-u^2)^{(n-3)/2}; Fejer's first rule for that
weight is built by one DCT in O(N log N), with N = 500/eps polar nodes
(at most 60 000, so eps >= 1/120 unless N is given).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct
from scipy.integrate import quad

from .bodies import ConvexBody, make_ball, minkowski_support
from .mixed import mixed_area_density
from .sphere import SphereGrid, sphere_area

__all__ = [
    "CounterexampleDensity",
    "ZonalTestFunction",
    "counterexample_valuation",
    "cutoff_psi",
    "derivative_reduction",
    "divergence_probe",
    "divergence_sweep",
    "gw_sphere_oracle",
    "gw_zonal",
    "gw_zonal_by_parts",
    "make_zonal_bump",
]


def _sigma(u):
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def _smoothstep(u):
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, with all derivatives flat."""
    u = np.asarray(u, dtype=float)
    a = _sigma(u)
    b = _sigma(1.0 - u)
    return a / (a + b)


def _smoothstep_d1(u):
    u = np.asarray(u, dtype=float)
    inside = (u > 0) & (u < 1)
    out = np.zeros_like(u)
    ui = u[inside]
    a = np.exp(-1.0 / ui)
    b = np.exp(-1.0 / (1.0 - ui))
    da = a / ui**2
    db = -b / (1.0 - ui) ** 2
    out[inside] = (da * b - a * db) / (a + b) ** 2
    return out


def _smoothstep_d2(u):
    u = np.asarray(u, dtype=float)
    inside = (u > 0) & (u < 1)
    out = np.zeros_like(u)
    ui = u[inside]
    a = np.exp(-1.0 / ui)
    b = np.exp(-1.0 / (1.0 - ui))
    da = a / ui**2
    db = -b / (1.0 - ui) ** 2
    dda = a * (1.0 / ui**4 - 2.0 / ui**3)
    ddb = b * (1.0 / (1.0 - ui) ** 4 - 2.0 / (1.0 - ui) ** 3)
    num1 = (dda * b - a * ddb) * (a + b)
    num2 = 2.0 * (da * b - a * db) * (da + db)
    out[inside] = (num1 - num2) / (a + b) ** 3
    return out


def cutoff_psi(t):
    """Smooth symmetric cutoff: 1 for |t| <= 1/3, 0 for |t| >= 2/3."""
    t = np.abs(np.asarray(t, dtype=float))
    return 1.0 - _smoothstep((t - 1.0 / 3.0) * 3.0)


@dataclass(frozen=True)
class CounterexampleDensity:
    """The zonal density f(t) = sqrt(|t|) (1-t^2)^{-(n-3)/2} psi(t)."""

    n: int

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        psi = cutoff_psi(t)
        out = np.zeros_like(t)
        live = psi > 0.0
        power = -(self.n - 3) / 2.0
        out[live] = np.sqrt(np.abs(t[live])) * (1.0 - t[live] ** 2) ** power * psi[live]
        return out


@dataclass(frozen=True)
class ZonalTestFunction:
    """Smooth bump phi on (-1, 1): 0 <= phi <= 1, phi == 1 on [eps, 4 eps],
    supported in [eps/2, min(5 eps, 1/3)]."""

    eps: float
    support: tuple
    plateau: tuple

    def _pieces(self, t, deriv: int):
        a, b = self.support
        lo, hi = self.plateau
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        rise = (t > a) & (t < lo)
        fall = (t > hi) & (t < b)
        flat = (t >= lo) & (t <= hi)
        w_rise = lo - a
        w_fall = b - hi
        if deriv == 0:
            out[rise] = _smoothstep((t[rise] - a) / w_rise)
            out[flat] = 1.0
            out[fall] = 1.0 - _smoothstep((t[fall] - hi) / w_fall)
        elif deriv == 1:
            out[rise] = _smoothstep_d1((t[rise] - a) / w_rise) / w_rise
            out[fall] = -_smoothstep_d1((t[fall] - hi) / w_fall) / w_fall
        else:
            out[rise] = _smoothstep_d2((t[rise] - a) / w_rise) / w_rise**2
            out[fall] = -_smoothstep_d2((t[fall] - hi) / w_fall) / w_fall**2
        return out

    def phi(self, t):
        return self._pieces(t, 0)

    def dphi(self, t):
        return self._pieces(t, 1)

    def d2phi(self, t):
        return self._pieces(t, 2)


def make_zonal_bump(eps: float) -> ZonalTestFunction:
    """Test bump with plateau [eps, 4 eps] inside support [eps/2, 1/3]."""
    if not 0.0 < eps < 1.0 / 12.0:
        raise ValueError("need 0 < eps < 1/12 so the plateau fits inside [eps/2, 1/3]")
    b = min(5.0 * eps, 1.0 / 3.0)
    return ZonalTestFunction(eps=float(eps), support=(eps / 2.0, b), plateau=(eps, 4.0 * eps))


def counterexample_valuation(K: ConvexBody, k: int, n: int, grid: SphereGrid) -> float:
    """mu_k(K): quadrature of f(x_n) against the density of S(K[k], B[n-k-1])."""
    density_fn = CounterexampleDensity(n)
    balls = [make_ball(1.0, n=n)] * (n - 1 - k)
    return grid.integrate(density_fn(grid.nodes[:, -1]) * mixed_area_density(K, k, balls, grid))


def _piecewise_quad(fn, knots):
    total = 0.0
    for left, right in zip(knots[:-1], knots[1:]):
        if right <= left:
            continue
        val, _ = quad(fn, left, right, epsabs=1e-12, epsrel=1e-12, limit=200)
        total += val
    return total


def _check_support(phi: ZonalTestFunction):
    a, b = phi.support
    if a < phi.eps / 2.0 - 1e-15 or b > 1.0 / 3.0 + 1e-15 or a <= 0.0:
        raise ValueError(
            f"zonal pairing needs supp phi inside [eps/2, 1/3], got [{a}, {b}] "
            "(the cutoff cancellation is invalid outside)"
        )


def gw_zonal(phi: ZonalTestFunction, n: int) -> float:
    """Distributional pairing of the counterexample valuation with a zonal bump.

    Adaptive quadrature of the cancelled 1-D form
    omega_{n-2} * integral sqrt(t) [(1-t^2) phi'' - (n-1) t phi' + (n-1) phi] dt.
    """
    if n < 3:
        raise ValueError("the cancelled zonal form needs n >= 3")
    _check_support(phi)
    omega = sphere_area(n - 1)

    def integrand(t):
        return math.sqrt(t) * (
            (1.0 - t * t) * float(phi.d2phi(t))
            - (n - 1) * t * float(phi.dphi(t))
            + (n - 1) * float(phi.phi(t))
        )

    a, b = phi.support
    knots = [a, phi.plateau[0], phi.plateau[1], b]
    return omega * _piecewise_quad(integrand, knots)


def gw_zonal_by_parts(phi: ZonalTestFunction, n: int) -> float:
    """Same pairing after integrating by parts (boundary terms vanish):

    omega_{n-2} * integral [-phi/(4 t^{3/2}) - (15/4) sqrt(t) phi
    + (3/2)(n-1) sqrt(t) phi + (n-1) sqrt(t) phi] dt.
    """
    _check_support(phi)
    omega = sphere_area(n - 1)
    c = -15.0 / 4.0 + 1.5 * (n - 1) + (n - 1)

    def integrand(t):
        p = float(phi.phi(t))
        return -p / (4.0 * t**1.5) + c * math.sqrt(t) * p

    a, b = phi.support
    knots = [a, phi.plateau[0], phi.plateau[1], b]
    return omega * _piecewise_quad(integrand, knots)


def _polar_rule(n: int, count: int):
    """Fejer's first rule for integral_{-1}^{1} g(u) (1-u^2)^{(n-3)/2} du.

    Nodes are the Chebyshev points u_k = cos((2k+1) pi / (2 count)); the
    weights are one type-III DCT of the Chebyshev moments m_j of the weight
    (zero for odd j, m_{j+2} = m_j (j-n+2)/(j+n)), so the rule integrates
    polynomials of degree < count exactly in O(count log count).
    """
    j = np.arange(0, count - 2, 2)
    m = np.zeros(count)
    m[0] = math.sqrt(math.pi) * math.gamma((n - 1) / 2) / math.gamma(n / 2)
    m[2::2] = m[0] * np.cumprod((j - n + 2) / (j + n))
    u = np.cos((2 * np.arange(count) + 1) * np.pi / (2 * count))
    return u, dct(m, type=3) / count


# cap on the oracle's default 500/eps polar nodes: an eps that needs more is refused, not truncated
_MAX_POLAR_POINTS = 60_000


def gw_sphere_oracle(phi: ZonalTestFunction, n: int = 3, polar_points: int | None = None) -> float:
    """Sphere-quadrature evaluation of the pairing (independent oracle).

    Integrates F = f(x_n) [Delta_S phi~ + (n-1) phi~] over S^{n-1}, with
    Delta_S phi(x_n) = (1-t^2) phi''(t) - (n-1) t phi'(t) on zonal functions.
    F depends on u = x_n alone, so the angular factor of the surface measure
    |S^{n-2}| (1-u^2)^{(n-3)/2} du dS^{n-2} integrates exactly to |S^{n-2}|
    and only the polar variable needs a rule: Fejer's first rule for the
    weight (1-u^2)^{(n-3)/2}.  Its default 500/eps nodes put about 80 nodes
    across the narrowest bump transition.  That default is capped at 60 000
    nodes, so for eps below 1/120 it raises ValueError rather than return an
    unresolved value; an explicit ``polar_points`` is used as given.
    """
    if n < 3:
        raise ValueError("the zonal sphere oracle needs n >= 3")
    if polar_points is None:
        polar_points = int(500.0 / phi.eps)
        if polar_points > _MAX_POLAR_POINTS:
            raise ValueError(
                f"the default polar rule resolves eps >= {500.0 / _MAX_POLAR_POINTS:.6g} (1/120) only, "
                f"got eps={phi.eps:g}; pass polar_points explicitly"
            )
    u, w = _polar_rule(n, polar_points)
    f = CounterexampleDensity(n)(u)
    vals = f * (
        (1.0 - u * u) * phi.d2phi(u) - (n - 1) * u * phi.dphi(u) + (n - 1) * phi.phi(u)
    )
    return sphere_area(n - 1) * float(np.dot(w, vals))


@dataclass(frozen=True)
class DivergenceProbe:
    eps: float
    value: float
    lower_bound: float
    passed: bool


def divergence_probe(eps: float, n: int = 3) -> DivergenceProbe:
    """T(phi_eps) = integral phi_eps(t) / t^{3/2} dt against the bound eps^{-1/2}.

    The plateau alone contributes the closed-form lower bound, so a passing
    probe certifies the eps^{-1/2} blow-up of the pairing at sup-norm one.
    """
    if n < 3:
        raise ValueError("divergence probes are defined for n >= 3")
    phi = make_zonal_bump(eps)

    def integrand(t):
        return float(phi.phi(t)) / t**1.5

    a, b = phi.support
    knots = [a, phi.plateau[0], phi.plateau[1], b]
    value = _piecewise_quad(integrand, knots)
    bound = float(eps) ** -0.5
    return DivergenceProbe(eps=float(eps), value=value, lower_bound=bound, passed=bool(value >= bound))


def divergence_sweep(eps_values, n: int = 3) -> dict:
    """Probe a sweep of eps values and fit the log-log growth exponent.

    With fewer than two sweep points the slope is undefined and reported as
    None; the per-point lower bounds are still checked.
    """
    probes = [divergence_probe(eps, n=n) for eps in eps_values]
    slope = intercept = None
    if len(probes) >= 2:
        logs_eps = np.log([p.eps for p in probes])
        logs_t = np.log([p.value for p in probes])
        fit = np.polyfit(logs_eps, logs_t, 1)
        slope, intercept = float(fit[0]), float(fit[1])
    return {
        "probes": probes,
        "slope": slope,
        "intercept": intercept,
        "all_passed": bool(all(p.passed for p in probes)),
    }


@dataclass(frozen=True)
class DerivativeReduction:
    derivative: float
    expected: float
    fit_residual: float
    relative_error: float


# stencil spacing h of derivative_reduction, and the relative error it accepts
_STENCIL_STEP = 1e-2
_REDUCTION_RTOL = 1e-4


def derivative_reduction(K: ConvexBody, k: int, n: int, grid: SphereGrid) -> DerivativeReduction:
    """(k-1)-th derivative at 0 of t -> mu_k(K + t B), checked against k! mu_1(K).

    mu_k(K + t B) is exactly polynomial of degree k in t; the stencil
    {0, h, ..., k h} with h = 1e-2 interpolates it and one extra node reports
    the fit residual.  The derivative equals (k-1)! times the t^{k-1}
    coefficient, and expanding the mixed area measure multilinearly gives the
    identity d^{k-1}/dt^{k-1}|_0 mu_k(K + tB) = k! mu_1(K); a relative error
    above 1e-4 raises ValueError.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got k={k}")
    ball = make_ball(1.0, n=n)

    def mu_k_at(t):
        body = minkowski_support([K, ball], [1.0, t]) if t > 0 else K
        return counterexample_valuation(body, k, n, grid)

    ts = _STENCIL_STEP * np.arange(k + 2)
    vals = np.array([mu_k_at(t) for t in ts])
    coeffs = np.polynomial.polynomial.polyfit(ts[: k + 1], vals[: k + 1], k)
    check = np.polynomial.polynomial.polyval(ts[-1], coeffs)
    scale = max(1.0, float(np.max(np.abs(vals))))
    fit_residual = abs(check - vals[-1]) / scale
    derivative = math.factorial(k - 1) * float(coeffs[k - 1])
    mu_1 = counterexample_valuation(K, 1, n, grid)
    expected = math.factorial(k) * mu_1
    rel = abs(derivative - expected) / max(abs(expected), 1e-12)
    if rel > _REDUCTION_RTOL:
        raise ValueError(
            f"derivative reduction mismatch: derivative {derivative:.8e} vs "
            f"k! mu_1 = {expected:.8e} (relative error {rel:.3e})"
        )
    if fit_residual > 1e-8:
        warnings.warn(f"degree-{k} polynomial fit residual {fit_residual:.3e}", stacklevel=2)
    return DerivativeReduction(
        derivative=derivative, expected=expected, fit_residual=fit_residual, relative_error=rel
    )
