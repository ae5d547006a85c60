"""Double-exponential quadrature on finite and semi-infinite intervals.

Two substitutions map the integration variable onto the whole real
t-axis, where the trapezoid rule converges double-exponentially for
integrands analytic in the open interval, including endpoint
singularities of log or power type (exponent > -1):

    tanh-sinh, finite [lo, hi]:   x(t) = mid + halfspan * tanh((pi/2) sinh t)
    exp-sinh, (0, inf):           x(t) = exp((pi/2) sinh t)

Refinement halves the step h and evaluates only the new odd-index
nodes, so earlier levels are reused in full.  Convergence is declared
when two successive levels agree within tolerance; a call that could
evaluate f at no node at all never claims it.  Node placement never
lands exactly on an interval endpoint: nodes that would round onto lo
or hi are dropped (the mass they carry is below roundoff), and the scan
stops once the transformed weight underflows below 1e-300.

The nodes and weights of a level do not depend on the integrand, so
each transform keeps a table per level, built on first use and summed
by every later call:

    exp-sinh:   the final (x, w) pairs, with every truncation applied;
    tanh-sinh:  (d, w0) for halfspan 1, where d is the distance from a
                node to its endpoint and w0 its weight.  A call scales
                both by its halfspan and keeps the per-node weight floor
                and endpoint checks, which depend on the interval.

Tables are arrays of doubles, 16 bytes per node.  Only levels up to
DEFAULT_TOLERANCE.max_level (12) are kept: all of them hold 25,279
tanh-sinh and 55,431 exp-sinh nodes, about 1.3 MB.  A call asking for a
deeper level builds that level's nodes, uses them and drops them.  Two
threads that build the same level at once store one table; both tables
are identical.

Results are deterministic: identical inputs produce bit-identical
values, estimates and evaluation counts, whether a table was cold or
warm.
"""

import math
import operator
from array import array
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
    max_level, the deepest refinement level, is stored as an int.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-15
    max_level: int = 12

    def __post_init__(self):
        object.__setattr__(self, "rel_tol", _checked_real(self.rel_tol, "rel_tol", True))
        if self.rel_tol < _REL_TOL_FLOOR:
            raise ValueError(f"rel_tol {self.rel_tol!r} is below the honesty floor {_REL_TOL_FLOOR}")
        object.__setattr__(self, "abs_tol", _checked_real(self.abs_tol, "abs_tol", True))
        try:
            level = operator.index(self.max_level)
        except TypeError:
            level = 0
        if level < 1:
            raise ValueError(f"max_level must be an integer >= 1, got {self.max_level!r}")
        object.__setattr__(self, "max_level", level)


DEFAULT_TOLERANCE = ToleranceSpec()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _nan_error(x) -> QuadratureError:
    return QuadratureError(f"integrand returned NaN at x = {x!r}")


def _refine(new_nodes: Callable[[int], tuple], tol: ToleranceSpec) -> QuadratureResult:
    """Drive level doubling over a per-level node sum.

    new_nodes(level) must return (sum of weight * f, number of f calls)
    over the nodes that are new at step h = 2**-level: all of them at
    level 0, odd indexed ones after.  The level-L value is then h_L
    times the running total.
    """
    total, count = new_nodes(0)
    value = total
    diff = math.inf
    for level in range(1, tol.max_level + 1):
        h = 0.5 ** level
        partial, n = new_nodes(level)
        total += partial
        count += n
        prev = value
        value = h * total
        diff = abs(value - prev)
        if count and math.isfinite(value) and diff <= max(tol.abs_tol, tol.rel_tol * abs(value)):
            estimate = max(diff, abs(value) * _EPS)
            return QuadratureResult(value, estimate, count, True)
    estimate = diff if count and math.isfinite(diff) else math.inf
    return QuadratureResult(value, estimate, count, False)


# level -> node table; see the module docstring.
_TANH_SINH: dict = {}
_EXP_SINH: dict = {}


def _table(cache: dict, build: Callable[[int], tuple], level: int) -> tuple:
    table = cache.get(level)
    if table is None:
        table = build(level)
        if level <= DEFAULT_TOLERANCE.max_level:
            table = cache.setdefault(level, table)
    return table


def _tanh_sinh_nodes(level: int) -> tuple:
    """(d, w0) arrays for the non-midpoint nodes new at `level`, for halfspan 1.

    The scan ends at the first zero weight, which is below the floor for
    any finite halfspan.  A call also stops where d has underflowed to
    0, because both of that node's abscissae round onto the endpoints.
    """
    h = 0.5 ** level
    step = 1 if level == 0 else 2
    ds = array("d")
    w0s = array("d")
    k = 1
    while True:
        t = k * h
        if t > _T_CAP:
            break
        u = _HALF_PI * math.sinh(t)
        e2 = math.exp(-2.0 * u)            # in (0, 1]
        sech_u = 2.0 * math.exp(-u) / (1.0 + e2)
        w0 = _HALF_PI * math.cosh(t) * sech_u * sech_u
        if w0 == 0.0:
            break
        ds.append(2.0 * e2 / (1.0 + e2))
        w0s.append(w0)
        k += step
    return ds, w0s


def _exp_sinh_nodes(level: int) -> tuple:
    """(x, w) arrays for the nodes new at `level`: k ascending, up node first."""
    h = 0.5 ** level
    if level == 0:
        xs = array("d", [1.0])             # x(0) = 1, weight pi/2
        ws = array("d", [_HALF_PI])
        step = 1
    else:
        xs = array("d")
        ws = array("d")
        step = 2
    k = 1
    up_alive = True
    down_alive = True
    while True:
        t = k * h
        if t > _T_CAP:
            break
        arg = _HALF_PI * math.sinh(t)
        ch = math.cosh(t)
        if up_alive:
            if arg > _EXP_ARG_CAP:
                up_alive = False
            else:
                x = math.exp(arg)
                xs.append(x)
                ws.append(_HALF_PI * ch * x)
        if down_alive:
            x = math.exp(-arg)
            w = _HALF_PI * ch * x
            if w < _WEIGHT_FLOOR:
                down_alive = False
            else:
                xs.append(x)
                ws.append(w)
        if not (up_alive or down_alive):
            break
        k += step
    return xs, ws


def integrate_finite(f: Callable[[float], float], lo: float, hi: float,
                     tol: ToleranceSpec = DEFAULT_TOLERANCE) -> QuadratureResult:
    """Integrate f over the open interval (lo, hi) by tanh-sinh quadrature.

    lo < hi must both be finite.  f is never called at lo or hi exactly,
    although nodes may come within 1e-300 of them, so log or power
    endpoint singularities with exponent > -1 integrate cleanly.  A NaN
    from f aborts with QuadratureError; failure to converge within
    tol.max_level levels, or a span too narrow for any node to fall
    strictly inside it, is reported via converged=False.
    """
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bounds must be finite, got [{lo!r}, {hi!r}]")
    if not lo < hi:
        raise ValueError(f"lower bound must be strictly below upper, got [{lo!r}, {hi!r}]")
    halfspan = 0.5 * (hi - lo)
    if not math.isfinite(halfspan):        # hi - lo overflowed
        halfspan = 0.5 * hi - 0.5 * lo
    mid = lo + halfspan

    def new_nodes(level: int) -> tuple:
        partial = 0.0
        n = 0
        if level == 0:
            w = _HALF_PI * halfspan
            if w < _WEIGHT_FLOOR:
                return partial, n
            if lo < mid < hi:              # a tiny span can round mid onto an endpoint
                fx = f(mid)
                n += 1
                if fx != fx:
                    raise _nan_error(mid)
                partial += w * fx
        left_alive = True
        right_alive = True
        for d, w0 in zip(*_table(_TANH_SINH, _tanh_sinh_nodes, level)):
            w = w0 * halfspan
            if w < _WEIGHT_FLOOR:
                break
            off = halfspan * d
            if right_alive:
                x = hi - off
                if x >= hi:
                    right_alive = False
                else:
                    fx = f(x)
                    n += 1
                    if fx != fx:
                        raise _nan_error(x)
                    partial += w * fx
            if left_alive:
                x = lo + off
                if x <= lo:
                    left_alive = False
                else:
                    fx = f(x)
                    n += 1
                    if fx != fx:
                        raise _nan_error(x)
                    partial += w * fx
            if not (left_alive or right_alive):
                break
        return partial, n

    return _refine(new_nodes, tol)


def integrate_semi_infinite(f: Callable[[float], float],
                            tol: ToleranceSpec = DEFAULT_TOLERANCE) -> QuadratureResult:
    """Integrate f over (0, inf) by exp-sinh quadrature.

    Suited to integrands with at worst a logarithmic singularity at 0
    and at least exponential or x**-2 decay at infinity.  Error
    semantics match integrate_finite.
    """

    def new_nodes(level: int) -> tuple:
        xs, ws = _table(_EXP_SINH, _exp_sinh_nodes, level)
        partial = 0.0
        for x, w in zip(xs, ws):
            fx = f(x)
            if fx != fx:
                raise _nan_error(x)
            partial += w * fx
        return partial, len(xs)

    return _refine(new_nodes, tol)
