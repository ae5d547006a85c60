"""Double-exponential quadrature on finite and semi-infinite intervals.

Two substitutions map the integration variable onto the whole real
t-axis, where the trapezoid rule converges double-exponentially for
integrands analytic in the open interval, including endpoint
singularities of log or power type (exponent > -1):

    tanh-sinh, finite [lo, hi]:   x(t) = mid + halfspan * tanh((pi/2) sinh t)
    exp-sinh, (0, inf):           x(t) = exp((pi/2) sinh t)

Refinement halves the step h and evaluates only the new odd-index
nodes, so earlier levels are reused in full.  Convergence is declared
when two successive levels agree within tolerance.  Node placement
never lands exactly on an interval endpoint: nodes that would round
onto lo or hi are dropped (the mass they carry is below roundoff), and
the scan stops once the transformed weight underflows below 1e-300.

Results are deterministic: identical inputs produce bit-identical
values, estimates and evaluation counts.
"""

import math
from dataclasses import dataclass
from typing import Callable

from .specfun import _checked_real

__all__ = [
    "ToleranceSpec",
    "QuadratureResult",
    "QuadratureError",
    "DEFAULT_TOLERANCE",
    "integrate_finite",
    "integrate_semi_infinite",
]

_HALF_PI = math.pi / 2.0
_WEIGHT_FLOOR = 1e-300  # truncate once the transformed weight underflows this far
_EXP_ARG_CAP = 667.0    # keeps exp-sinh nodes and weights finite (x <= ~1.3e289)
_T_CAP = 8.0            # hard stop for the transform variable; underflow wins first
_REL_TOL_FLOOR = 1e-14
_EPS = 2.0 ** -52


class QuadratureError(RuntimeError):
    """Raised when the integrand returns NaN at a quadrature node."""


@dataclass(frozen=True)
class ToleranceSpec:
    """Requested accuracy for one quadrature call.

    rel_tol below 1e-14 is rejected: successive-level agreement that
    tight cannot be distinguished from double-precision roundoff.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-15
    max_level: int = 12

    def __post_init__(self):
        object.__setattr__(self, "rel_tol", _checked_real(self.rel_tol, "rel_tol", True))
        if self.rel_tol < _REL_TOL_FLOOR:
            raise ValueError(f"rel_tol {self.rel_tol!r} is below the honesty floor {_REL_TOL_FLOOR}")
        object.__setattr__(self, "abs_tol", _checked_real(self.abs_tol, "abs_tol", True))
        if int(self.max_level) != self.max_level or self.max_level < 1:
            raise ValueError(f"max_level must be an integer >= 1, got {self.max_level!r}")


DEFAULT_TOLERANCE = ToleranceSpec()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _call(f, x, count):
    fx = f(x)
    count[0] += 1
    if fx != fx:  # NaN
        raise QuadratureError(f"integrand returned NaN at x = {x!r}")
    return fx


def _refine(new_nodes: Callable[[float, bool], float], tol: ToleranceSpec,
            count) -> QuadratureResult:
    """Drive level doubling over a per-level node sum.

    new_nodes(h, first) must return the sum of weight * f over the nodes
    that are new at step h (all of them when first is true, odd indexed
    ones otherwise).  The level-L value is then h_L times the running
    total.
    """
    total = new_nodes(1.0, True)
    value = total
    diff = math.inf
    for level in range(1, tol.max_level + 1):
        h = 0.5 ** level
        total += new_nodes(h, False)
        prev = value
        value = h * total
        diff = abs(value - prev)
        if math.isfinite(value) and diff <= max(tol.abs_tol, tol.rel_tol * abs(value)):
            estimate = max(diff, abs(value) * _EPS)
            return QuadratureResult(value, estimate, count[0], True)
    estimate = diff if math.isfinite(diff) else math.inf
    return QuadratureResult(value, estimate, count[0], False)


def integrate_finite(f: Callable[[float], float], lo: float, hi: float,
                     tol: ToleranceSpec = DEFAULT_TOLERANCE) -> QuadratureResult:
    """Integrate f over the open interval (lo, hi) by tanh-sinh quadrature.

    lo < hi must both be finite.  f is never called at lo or hi exactly,
    although nodes may come within 1e-300 of them, so log or power
    endpoint singularities with exponent > -1 integrate cleanly.  A NaN
    from f aborts with QuadratureError; failure to converge within
    tol.max_level levels is reported via converged=False.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bounds must be finite, got [{lo!r}, {hi!r}]")
    if not lo < hi:
        raise ValueError(f"lower bound must be strictly below upper, got [{lo!r}, {hi!r}]")
    halfspan = 0.5 * (hi - lo)
    mid = lo + halfspan
    count = [0]

    def new_nodes(h: float, first: bool) -> float:
        partial = 0.0
        k = 0 if first else 1
        step = 1 if first else 2
        left_alive = True
        right_alive = True
        while True:
            t = k * h
            if t > _T_CAP:
                break
            u = _HALF_PI * math.sinh(t)
            e2 = math.exp(-2.0 * u)            # in (0, 1]
            sech_u = 2.0 * math.exp(-u) / (1.0 + e2)
            w = _HALF_PI * math.cosh(t) * sech_u * sech_u * halfspan
            if w < _WEIGHT_FLOOR:
                break
            if k == 0:
                partial += w * _call(f, mid, count)
            else:
                off = halfspan * (2.0 * e2 / (1.0 + e2))  # distance to either endpoint
                if right_alive:
                    x = hi - off
                    if x >= hi:
                        right_alive = False
                    else:
                        partial += w * _call(f, x, count)
                if left_alive:
                    x = lo + off
                    if x <= lo:
                        left_alive = False
                    else:
                        partial += w * _call(f, x, count)
                if not (left_alive or right_alive):
                    break
            k += step
        return partial

    return _refine(new_nodes, tol, count)


def integrate_semi_infinite(f: Callable[[float], float],
                            tol: ToleranceSpec = DEFAULT_TOLERANCE) -> QuadratureResult:
    """Integrate f over (0, inf) by exp-sinh quadrature.

    Suited to integrands with at worst a logarithmic singularity at 0
    and at least exponential or x**-2 decay at infinity.  Error
    semantics match integrate_finite.
    """
    count = [0]

    def new_nodes(h: float, first: bool) -> float:
        partial = 0.0
        k = 0 if first else 1
        step = 1 if first else 2
        up_alive = True
        down_alive = True
        while True:
            t = k * h
            if t > _T_CAP:
                break
            if k == 0:
                partial += _HALF_PI * _call(f, 1.0, count)  # x(0) = 1, weight pi/2
            else:
                arg = _HALF_PI * math.sinh(t)
                ch = math.cosh(t)
                if up_alive:
                    if arg > _EXP_ARG_CAP:
                        up_alive = False
                    else:
                        x = math.exp(arg)
                        partial += _HALF_PI * ch * x * _call(f, x, count)
                if down_alive:
                    x = math.exp(-arg)
                    w = _HALF_PI * ch * x
                    if w < _WEIGHT_FLOOR:
                        down_alive = False
                    else:
                        partial += w * _call(f, x, count)
                if not (up_alive or down_alive):
                    break
            k += step
        return partial

    return _refine(new_nodes, tol, count)
