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

Each transform has two sides, t > 0 and t < 0: right and left of the
midpoint for tanh-sinh, up (x > 1) and down (x < 1) for exp-sinh.
Level 0 (h = 1) evaluates every node of both sides and also sums
|w*f|.  Each side is then trimmed: every later level sums it only at t
below one level-0 step past its outermost node whose |w*f| exceeds
eps * (the level's sum of |w*f|), because past that node the terms are
below roundoff.  A side whose own level-0 terms are all 0, or any side
when that sum is not finite, is not trimmed, and a side whose outermost
level-0 node is itself significant has nothing to trim.  A call that
trims neither side evaluates every node of the tables.  A level sums
its center node (level 0 only), then the two sides in pairs outward,
right before left and up before down, then the rest of the longer side.
On the benchmark's quad inputs trimming halves the integrand calls.
One consequence: f is never called at later-level nodes beyond a
side's limit, so a NaN that only such nodes would meet goes unseen.
A NaN at any level-0 node still raises.

A converged result reports as error_estimate the largest of

    the difference between the last two levels;
    8 * eps * h * sum|w*f|, the roundoff floor of the sum over every
        node summed (in an oracle sweep a factor of 4 left converged
        results whose true error exceeded the estimate; 8 left none
        that a floor could cover);
    h * |w*f| at the outermost node of each side at the last level,
        which stands for the mass beyond where the sum stopped

(Takahasi & Mori 1974; Bailey, Jeyabalan & Li 2005).  converged=True
thus promises that two successive levels agreed within the tolerance
asked for, while error_estimate also counts the roundoff and truncation
that the level difference cannot see, so it may exceed the tolerance.
Two levels can still agree by coincidence at a loose tolerance, so the
estimate is a measured bound, not a proven one.  That a converged
result lies within its error_estimate is promised only for the
package's own integrands, which tests/test_oracle.py checks against a
multi-precision oracle at four tolerances.  For an arbitrary f no rule
built on level differences can promise it: exp(-((x - 0.3) / 1e-3)^2)
on (0, 1) is negligible at every node of the first levels, so they
agree on 0 and integrate_finite returns converged=True with value 0
and error_estimate 0 after 19 evaluations; the integral is 1.77e-3.

The nodes and weights of a level do not depend on the integrand, so
one scan over t builds both transforms' tables for a level on first
use, and every later call sums them:

    tanh-sinh:  (d, w0) for halfspan 1, where d is the distance from a
                node to its endpoint and w0 its weight.  A call scales
                both by its halfspan and keeps the per-node weight floor
                and endpoint checks, which depend on the interval;
    exp-sinh:   (x, w) for the up side and for the down side, with
                every truncation applied.

No table holds the t = 0 node: at level 0 each sweep sums it itself,
the tanh-sinh midpoint or the exp-sinh center x = 1 with weight pi/2.
Tables are arrays of doubles, 16 bytes per node, cached by
functools.cache.  ToleranceSpec caps max_level at 12, so at most 13
levels are ever kept: 25,279 tanh-sinh nodes and 55,431 exp-sinh ones
with the center, about 1.3 MB.  A process that only integrates on
(0, inf) builds the tanh-sinh tables too.  Two threads that ask for an
uncached level at once may each build it; the cache keeps one table,
and both tables are identical.

Results are deterministic: identical inputs produce bit-identical
values, estimates and evaluation counts, whether a table was cold or
warm.
"""

import functools
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
_REL_TOL_FLOOR = 1e-14
_EPS = 2.0 ** -52
_ROUNDOFF = 8.0         # c of the estimate's roundoff floor c * eps * h * sum|w*f|


class QuadratureError(RuntimeError):
    """Raised when the integrand returns NaN at a quadrature node."""


@dataclass(frozen=True)
class ToleranceSpec:
    """Requested accuracy for one quadrature call.

    rel_tol below 1e-14 is rejected: successive-level agreement that
    tight cannot be distinguished from double-precision roundoff.
    max_level, the deepest refinement level, must be an integer in
    [1, 12] and is stored as an int.
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
        if not 1 <= level <= 12:           # 12 also bounds the cached node tables
            raise ValueError(f"max_level must be an integer in [1, 12], got {self.max_level!r}")
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


def _limits(terms: tuple, abs_sum: float) -> list:
    """The trim limit of each side, in level-0 steps of t.

    terms[side] holds the level-0 w*f of that side, outward from t = 1;
    abs_sum is the level's whole sum of |w*f|, the center node included.
    A side is cut one step past its outermost node with |w*f| above
    eps * abs_sum.  Its limit stays inf when its own terms are all 0 or
    abs_sum is not finite, because the level then says nothing about
    where it ends, or when the cut would fall past its last level-0 node.
    """
    limits = [math.inf, math.inf]
    if math.isfinite(abs_sum):
        threshold = _EPS * abs_sum
        for side, side_terms in enumerate(terms):
            k = len(side_terms)
            if any(side_terms):
                while k and abs(side_terms[k - 1]) <= threshold:
                    k -= 1
                if k < len(side_terms):
                    limits[side] = k + 1
    return limits


def _refine(sweep: Callable[[int, list, tuple], tuple], tol: ToleranceSpec) -> QuadratureResult:
    """Drive level doubling over a two-sided node sum.

    sweep(level, limits, terms) sums over the nodes that are new at step
    h = 2**-level (all of them at level 0, the center node first; odd
    indexed ones after) and returns (sum of w*f, sum of |w*f|, number of
    f calls, and w*f at each side's outermost node).  After level 0 each
    side sums only its nodes with t below limits[side], in level-0 steps;
    terms, given at level 0 only, is a pair of lists that receive each
    side's w*f.  The level-L value is h_L times the running total.
    """
    terms = ([], [])
    total, abs_total, count, _, _ = sweep(0, None, terms)
    limits = _limits(terms, abs_total)
    value = total
    diff = math.inf
    for level in range(1, tol.max_level + 1):
        h = 0.5 ** level
        partial, abs_partial, n, end0, end1 = sweep(level, limits, None)
        total += partial
        abs_total += abs_partial
        count += n
        prev = value
        value = h * total
        diff = abs(value - prev)
        if count and math.isfinite(value) and diff <= max(tol.abs_tol, tol.rel_tol * abs(value)):
            estimate = max(diff, _ROUNDOFF * _EPS * h * abs_total, h * abs(end0), h * abs(end1))
            return QuadratureResult(value, estimate, count, True)
    estimate = diff if count and math.isfinite(diff) else math.inf
    return QuadratureResult(value, estimate, count, False)


@functools.cache
def _nodes(level: int) -> tuple:
    """Both transforms' nodes new at `level`, from one scan over t = k*h.

    Returns (d, w0) for tanh-sinh at halfspan 1, then (x, w) for the
    exp-sinh up side (x > 1) and (x, w) for its down side (x < 1), each
    with k ascending and without the t = 0 node, which the sweeps sum
    themselves.  Each array stops at its own rule: tanh-sinh at the
    first zero w0, which is below the floor for any finite halfspan; the
    up side once (pi/2) sinh t passes _EXP_ARG_CAP; the down side, which
    runs longest at every level, once w falls below _WEIGHT_FLOOR, and
    that ends the scan.  A tanh-sinh call also stops where d has
    underflowed to 0, because both of that node's abscissae round onto
    the endpoints.  The exp-sinh arrays are memoryviews, so a call
    slices out a side without a copy.
    """
    h = 0.5 ** level
    step = 1 if level == 0 else 2
    ds, w0s, up_x, up_w, down_x, down_w = (array("d") for _ in range(6))
    k = 1
    while True:
        t = k * h
        u = _HALF_PI * math.sinh(t)
        c = _HALF_PI * math.cosh(t)
        x = math.exp(-u)
        w = c * x
        if w < _WEIGHT_FLOOR:
            break
        down_x.append(x)
        down_w.append(w)
        if u <= _EXP_ARG_CAP:              # up: x = exp(u) stays finite
            up = math.exp(u)
            up_x.append(up)
            up_w.append(c * up)
        e2 = math.exp(-2.0 * u)            # in (0, 1]
        sech_u = 2.0 * x / (1.0 + e2)
        w0 = c * sech_u * sech_u
        if w0 != 0.0:
            ds.append(2.0 * e2 / (1.0 + e2))
            w0s.append(w0)
        k += step
    return (ds, w0s) + tuple(map(memoryview, (up_x, up_w, down_x, down_w)))


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
    if any(isinstance(v, float) and not math.isfinite(v) for v in (lo, hi)):
        raise ValueError(f"bounds must be finite, got [{lo!r}, {hi!r}]")
    lo = _checked_real(lo, "lo")
    hi = _checked_real(hi, "hi")
    if not lo < hi:
        raise ValueError(f"lower bound must be strictly below upper, got [{lo!r}, {hi!r}]")
    halfspan = 0.5 * (hi - lo)
    if not math.isfinite(halfspan):        # hi - lo overflowed
        halfspan = 0.5 * hi - 0.5 * lo
    mid = lo + halfspan

    def sweep(level: int, limits, terms) -> tuple:
        partial = negative = 0.0           # sum of w*f, and of its negative terms
        n = 0
        right = left = 0.0                 # w*f at each side's outermost node
        if level == 0:
            w = _HALF_PI * halfspan
            if w < _WEIGHT_FLOOR:
                return 0.0, 0.0, 0, 0.0, 0.0
            if lo < mid < hi:              # a tiny span can round mid onto an endpoint
                fx = f(mid)
                n += 1
                if fx != fx:
                    raise _nan_error(mid)
                partial += w * fx
                if partial < 0.0:
                    negative = partial
        ds, w0s = _nodes(level)[:2]
        # A trimmed side ends at the abscissa of its limit, a level-0 node.
        right_end = hi
        left_end = lo
        if level:
            ds0 = _nodes(0)[0]
            if limits[0] < math.inf:
                right_end = hi - halfspan * ds0[limits[0] - 1]
            if limits[1] < math.inf:
                left_end = lo + halfspan * ds0[limits[1] - 1]
        right_alive = True
        left_alive = True
        for d, w0 in zip(ds, w0s):
            w = w0 * halfspan
            if w < _WEIGHT_FLOOR:
                break
            off = halfspan * d
            if right_alive:
                x = hi - off
                if x >= right_end:
                    right_alive = False
                else:
                    fx = f(x)
                    n += 1
                    if fx != fx:
                        raise _nan_error(x)
                    right = w * fx
                    partial += right
                    if right < 0.0:
                        negative += right
                    if terms:
                        terms[0].append(right)
            if left_alive:
                x = lo + off
                if x <= left_end:
                    left_alive = False
                else:
                    fx = f(x)
                    n += 1
                    if fx != fx:
                        raise _nan_error(x)
                    left = w * fx
                    partial += left
                    if left < 0.0:
                        negative += left
                    if terms:
                        terms[1].append(left)
            if not (left_alive or right_alive):
                break
        return partial, partial - 2.0 * negative, n, right, left

    return _refine(sweep, tol)


def integrate_semi_infinite(f: Callable[[float], float],
                            tol: ToleranceSpec = DEFAULT_TOLERANCE) -> QuadratureResult:
    """Integrate f over (0, inf) by exp-sinh quadrature.

    Suited to integrands with at worst a logarithmic singularity at 0
    and at least exponential or x**-2 decay at infinity.  Error
    semantics match integrate_finite.
    """

    def sweep(level: int, limits, terms) -> tuple:
        _, _, up_x, up_w, down_x, down_w = _nodes(level)
        partial = negative = 0.0           # sum of w*f, and of its negative terms
        n = 0
        if level == 0:                     # the center x(0) = 1, weight pi/2, comes first
            fx = f(1.0)
            if fx != fx:
                raise _nan_error(1.0)
            partial += _HALF_PI * fx
            if partial < 0.0:
                negative = partial
            n = 1
        n_up = len(up_x)
        n_down = len(down_x)
        if level:
            per_step = 1 << (level - 1)    # nodes new at this level per level-0 step
            if limits[0] * per_step < n_up:
                n_up = limits[0] * per_step
            if limits[1] * per_step < n_down:
                n_down = limits[1] * per_step
        both = n_up if n_up < n_down else n_down
        up = down = 0.0                    # w*f at each side's outermost node
        for x, w, y, v in zip(up_x[:both], up_w[:both], down_x[:both], down_w[:both]):
            fx = f(x)
            if fx != fx:
                raise _nan_error(x)
            up = w * fx
            partial += up
            if up < 0.0:
                negative += up
            fx = f(y)
            if fx != fx:
                raise _nan_error(y)
            down = v * fx
            partial += down
            if down < 0.0:
                negative += down
            if terms:
                terms[0].append(up)
                terms[1].append(down)
        if n_up != n_down:                 # the side with more nodes goes on alone
            ends = [up, down]
            if n_up > both:
                side, xs, ws, stop = 0, up_x, up_w, n_up
            else:
                side, xs, ws, stop = 1, down_x, down_w, n_down
            for x, w in zip(xs[both:stop], ws[both:stop]):
                fx = f(x)
                if fx != fx:
                    raise _nan_error(x)
                term = w * fx
                partial += term
                if term < 0.0:
                    negative += term
                if terms:
                    terms[side].append(term)
            ends[side] = term
            up, down = ends
        return partial, partial - 2.0 * negative, n + n_up + n_down, up, down

    return _refine(sweep, tol)
