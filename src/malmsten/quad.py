"""Double-exponential quadrature on finite and semi-infinite intervals.

Two substitutions map the integration variable onto the whole real
t-axis, where the trapezoid rule converges double-exponentially for
integrands analytic in the open interval, including endpoint
singularities of log or power type (exponent > -1):

    tanh-sinh, finite [lo, hi]:   x(t) = mid + halfspan * tanh((pi/2) sinh t)
    (0, inf):                     x(t) = exp(phi(t)),  phi(t) = t - e^-t + e^(t-c)

The second is Takahasi and Mori's x = exp(t - e^-t), which turns an
integrand's e^-x decay into double-exponential decay in t (Mori &
Sugihara, J. Comput. Appl. Math. 127 (2001) 287-296), plus e^(t-c): it
takes over from x ~ e^c and makes an x^-2 tail, which exp(t - e^-t)
leaves single-exponential, double-exponential too.  c = 3.5 (_SHIFT):
from c = 3.52 the t-domain integrand at a = 2e-3 needs a level more, and
from c = 3.25 down the compact (1 - x)^3 on (0, 1) converges outside its
estimate at rel_tol 1e-6.

Refinement halves the step h and evaluates only the new odd-index
nodes, so earlier levels are reused in full.  Convergence is declared
when two successive levels agree within tolerance, which must happen
within 12 levels (h = 2**-12 at the last); a call that could evaluate f
at no node at all never claims it.  Node placement never lands exactly
on an interval endpoint: nodes that would round onto lo or hi are
dropped (the mass they carry is below roundoff), and the scan stops
once the transformed weight underflows below 1e-300.

Each transform has two sides, t > 0 and t < 0: right and left of the
midpoint for tanh-sinh, up and down from x = exp(e^-c - 1) = 0.379 for
(0, inf).  Every level is summed in one order: its center node (level 0
only), then the two sides in pairs outward, right before left and up
before down, then the rest of the longer side, by one loop over the
pairs and one over that rest.  Level 0 (h = 1) evaluates every node of
both sides, and its loops also keep each side's terms w*f.
Each side is then trimmed: walking its level-0 terms inward from the
outer end, the walk stops at the outermost node whose |w*f| exceeds
eps * (the level's sum of |w*f|), because past that node the terms are
below roundoff, and every later level L sums only the side's first
limit * 2**(L-1) nodes, those with t below one level-0 step past that
node.  A side whose own level-0 terms are all 0, or any side when that
sum is not finite, is not trimmed, and a side whose outermost level-0
node is itself significant has nothing to trim.  A call that trims
neither side evaluates every node of the tables.  On the benchmark's
quad inputs trimming halves the integrand calls.  A later level slices
a side only where its limit falls short of its table.
One consequence of trimming: f is never called at later-level nodes
beyond a side's limit, so a NaN that only such nodes would meet goes
unseen.  A NaN at any level-0 node still raises.

A NaN is caught by each term's sign test: a term that is not >= 0 is
either negative, and joins the sum of negative terms, or NaN, and
raises QuadratureError.  Every weight is a positive finite float, so
w*f is NaN exactly when f(x) is; an f that returns +inf at one node and
-inf at another makes the sum NaN without raising, and the call does
not converge.

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
result lies within its error_estimate is measured for the package's own
integrands, which tests/test_oracle.py checks against a multi-precision
oracle at four tolerances, and only where |integral| exceeds abs_tol,
but even there it is not promised.  delta_integrand at
a = -0.01025236128095408 on (0, inf) at rel_tol 1e-6 converges after 37
calls with error_estimate 1.44e-6, where its error is 1.65e-6.  Below
abs_tol levels 0 and 1 can agree at once on a value that is far off:
malmsten_c_integrand at a = 1, b = 1e17 on (0, inf) converges after 31
calls on -5.58e-19 with error_estimate 5.58e-19, where the integral is
-6.2e-16; at b = 1e16, where it is -5.8e-15, the estimate holds.  For
an arbitrary f no rule built on level differences can promise it:
exp(-((x - 0.3) / 1e-3)^2) on (0, 1) is negligible at every node of the
first levels, so they agree on 0 and integrate_finite returns
converged=True with value 0 and error_estimate 0 after 19 evaluations;
the integral is 1.77e-3.

The nodes and weights of a level do not depend on the integrand, so they
are tabulated once and every later call sums the tables.  Each transform
builds its own from t = k*h, ending each side at that side's rule, and
neither builds the other's.  The (0, inf) tables are cached by
functools.cache, one per level.  Their up side ends once phi(t) passes
_EXP_ARG_CAP, at t ~ 9.99 (x ~ 4e289), the down side once w falls below
the floor, at t ~ -6.54 (x ~ 2e-303); level 0 has 9 up nodes and 6
down.  The tables are lists of floats, which a loop reads without making
a float object per node.  Refinement stops at level 12, so at most 13
levels are kept: 67,688 (0, inf) nodes with the center.  By
tracemalloc (CPython 3.11, 64-bit) they take 4.4 MB, against 1.1 MB as
arrays; levels 0-7, all that the benchmark's pools reach, take 0.14 MB.

integrate_semi_infinite's optional weight is a factor that depends on
the node alone, such as a kernel like sech(x) (the weight argument of
QUADPACK and scipy.integrate.quad plays the same part).  The call then
integrates f(x) * weight(x) as the sum of (w * weight(x)) * f(x), where
w * weight(x) comes from a table built once per (weight, level) from
the unweighted one: it shares that table's abscissa lists, and its
sides end where the unweighted ones do.  weight is called once per node
of each table built, trimmed or not, and evaluations count the calls of
f alone.  The tables are keyed by the weight object itself, so only a
weight passed again reuses them; one made anew for each call builds
every level it reaches anew.  A functools.lru_cache keeps the 52 used
last, every level of four weights.  One weight's 13 levels add 2.2 MB
by tracemalloc to the unweighted tables, so the cache holds at most
about 8.8 MB; levels 0-7 add 0.07 MB, and the identity chain, run over
the benchmark's chain pools, builds 26 tables of its four weights, 0.13
MB.  The NaN test sees w * weight(x) * f(x): a NaN weight, or a weight
that has underflowed to 0 where f is infinite, raises as a NaN from f.

tanh-sinh's tables depend on the interval, so they are built per
(lo, hi, level): the right side at hi - halfspan*d and the left at
lo + halfspan*d, where d is a node's distance from its endpoint at
halfspan 1.  Each side ends where its abscissa first rounds onto its
endpoint, and both end where the weight first falls below the floor.
A functools.lru_cache keeps the 13 built last, one interval's levels.
Level 12 is the longest: on (0, 1e300), with 6,482 right nodes and
12,620 left, its table takes 1.07 MB by tracemalloc, so the cache holds
at most about 14 MB; on (0, 1) all 13 levels, 37,963 nodes with the
center, take 2.1 MB, and levels 0-7 0.07 MB.  Every integrate_finite
call in the package is on (0, 1).  A call on an interval the cache does
not hold first builds whole tables for every level it reaches, trimmed
or not, at a sinh, a cosh and two exp per node; on 900 calls over 300
one-off intervals (spans 0.01 to 10; 1, exp and sqrt at the default
tolerance) that took 2.7 times as long as the same calls on cached
tables, and each interval's first call alone 5 times as long.

Two threads that ask for an uncached table at once may each build it;
the cache keeps one, and both are identical.

Results are deterministic: identical inputs produce bit-identical
values, estimates and evaluation counts, whether a table was cold or
warm.
"""

import functools
import itertools
import math
from collections import namedtuple
from collections.abc import Callable

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
_EXP_ARG_CAP = 667.0    # keeps up-side nodes and weights finite (x < e^667 = 4.7e289)
_SHIFT = 3.5            # c in phi(t) = t - e^-t + e^(t-c); see the module docstring
_EXP_MINUS_C = math.exp(-_SHIFT)
_REL_TOL_FLOOR = 1e-14
_EPS = 2.0 ** -52
_ROUNDOFF = 8.0         # c of the estimate's roundoff floor c * eps * h * sum|w*f|
_MAX_LEVEL = 12         # deepest refinement level; also bounds the cached tables
_INTERVAL_TABLES = _MAX_LEVEL + 1  # tanh-sinh tables kept: every level of one interval
_WEIGHT_TABLES = 4 * (_MAX_LEVEL + 1)  # weighted (0, inf) tables kept: every level of four weights


class QuadratureError(RuntimeError):
    """Raised when the integrand returns NaN at a quadrature node."""


_ToleranceFields = namedtuple("_ToleranceFields", "rel_tol abs_tol", defaults=(1e-12, 1e-15))


class ToleranceSpec(_ToleranceFields):
    """Requested accuracy for one quadrature call, a named tuple
    (rel_tol, abs_tol).

    rel_tol below 1e-14 is rejected: successive-level agreement that
    tight cannot be distinguished from double-precision roundoff.  Every
    call refines within 12 levels; the depth is not configurable.
    _replace and _make validate like the constructor.
    """

    __slots__ = ()

    def __new__(cls, rel_tol: float = 1e-12, abs_tol: float = 1e-15):
        rel_tol = _checked_real(rel_tol, "rel_tol", True)
        if rel_tol < _REL_TOL_FLOOR:
            raise ValueError(f"rel_tol {rel_tol!r} is below the honesty floor {_REL_TOL_FLOOR}")
        return tuple.__new__(cls, (rel_tol, _checked_real(abs_tol, "abs_tol", True)))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


DEFAULT_TOLERANCE = ToleranceSpec()


class QuadratureResult(namedtuple("QuadratureResult",
                                  "value error_estimate evaluations converged")):
    """What one quadrature call returned, a named tuple (value,
    error_estimate, evaluations, converged).

    value is the last level's sum, and evaluations counts the calls to
    f.  converged is True when two successive levels agreed within the
    tolerance asked for.  error_estimate is then the largest of their
    difference, the roundoff floor of the sum and the mass beyond its
    outermost nodes (the module docstring gives each), so it may exceed
    that tolerance.  That the integral lies within error_estimate of
    value is measured for the package's own integrands where |integral|
    exceeds abs_tol, and the module docstring gives a case of each kind
    where it fails.  A result that did not converge
    reports the last difference between levels as error_estimate, or
    inf when f was called at no node or that difference is not finite.
    """

    __slots__ = ()


def _nan_error(x) -> QuadratureError:
    return QuadratureError(f"integrand returned NaN at x = {x!r}")


def _refine(f: Callable[[float], float], tables: Callable[[int], tuple],
            tol: ToleranceSpec) -> QuadratureResult:
    """Drive level doubling over a two-sided node sum.

    tables(level) returns (center, ((xs0, ws0), (xs1, ws1))) at step
    h = 2**-level: every node at level 0, with the center node (x, w) or
    None; the odd-indexed ones after, with no center.  A level sums w*f
    over its center, then the two sides in pairs outward, side 0 first,
    then the rest of the longer side.  A level's sum of |w*f| is its sum
    of w*f minus twice its negative terms.  The level-L value is h_L
    times the running total.

    Level 0 also keeps each side's terms w*f, outward from t = 1, and
    from them sets the side's trim limit, in level-0 steps of t: a walk
    inward from the outer end stops at the outermost node with |w*f|
    above eps * the level's sum of |w*f| (the center included), and the
    limit is one step past it.  Each later level sums side s only over
    its nodes with t below limit[s], that is its first
    limit[s] * 2**(level-1).  When a side's own terms are all 0 or the
    level's sum of |w*f| is not finite, the level says nothing about
    where the side ends, and its limit is one step past its last level-0
    node.  That keeps the whole side: the rule that cut the next level-0
    node, the weight floor, the up side's argument cap or an abscissa
    rounding onto its endpoint, cuts every node further out at every
    level too.
    """
    rel_tol, abs_tol = tol
    center, ((xs0, ws0), (xs1, ws1)) = tables(0)
    total = negative = 0.0                 # sum of w*f, and of its negative terms
    if center is not None:                 # its term is not kept
        x, w = center
        term = w * f(x)
        total += term
        if not term >= 0.0:
            if term != term:
                raise _nan_error(x)
            negative += term
    terms0, terms1 = [], []                # each side's level-0 w*f, outward
    keep0, keep1 = terms0.append, terms1.append
    for x, w, y, v in zip(xs0, ws0, xs1, ws1):
        term = w * f(x)
        total += term
        if not term >= 0.0:
            if term != term:
                raise _nan_error(x)
            negative += term
        keep0(term)
        term = v * f(y)
        total += term
        if not term >= 0.0:
            if term != term:
                raise _nan_error(y)
            negative += term
        keep1(term)
    n0, n1 = len(xs0), len(xs1)
    if n0 != n1:                           # the side with more nodes goes on alone
        both, xs, ws, keep = (n1, xs0, ws0, keep0) if n0 > n1 else (n0, xs1, ws1, keep1)
        for x, w in zip(xs[both:], ws[both:]):
            term = w * f(x)
            total += term
            if not term >= 0.0:
                if term != term:
                    raise _nan_error(x)
                negative += term
            keep(term)
    abs_total = total - 2.0 * negative
    count = n0 + n1 + (center is not None)
    limit0, limit1 = n0 + 1, n1 + 1        # untrimmed: one step past the last node
    if math.isfinite(abs_total):
        threshold = _EPS * abs_total
        if any(terms0):
            while limit0 > 1 and abs(terms0[limit0 - 2]) <= threshold:
                limit0 -= 1
        if any(terms1):
            while limit1 > 1 and abs(terms1[limit1 - 2]) <= threshold:
                limit1 -= 1
    value = total
    diff = math.inf
    h = 1.0
    for level in range(1, _MAX_LEVEL + 1):
        _, ((xs0, ws0), (xs1, ws1)) = tables(level)
        per_step = 1 << (level - 1)        # nodes new at this level per level-0 step
        stop = limit0 * per_step
        if stop < len(xs0):
            xs0, ws0 = xs0[:stop], ws0[:stop]
        stop = limit1 * per_step
        if stop < len(xs1):
            xs1, ws1 = xs1[:stop], ws1[:stop]
        partial = negative = 0.0
        end0 = end1 = 0.0                  # w*f at each side's outermost node
        for x, w, y, v in zip(xs0, ws0, xs1, ws1):
            end0 = w * f(x)
            partial += end0
            if not end0 >= 0.0:
                if end0 != end0:
                    raise _nan_error(x)
                negative += end0
            end1 = v * f(y)
            partial += end1
            if not end1 >= 0.0:
                if end1 != end1:
                    raise _nan_error(y)
                negative += end1
        n0, n1 = len(xs0), len(xs1)
        if n0 != n1:                       # the side with more nodes goes on alone
            both, xs, ws = (n1, xs0, ws0) if n0 > n1 else (n0, xs1, ws1)
            for x, w in zip(xs[both:], ws[both:]):
                term = w * f(x)
                partial += term
                if not term >= 0.0:
                    if term != term:
                        raise _nan_error(x)
                    negative += term
            if n0 > n1:
                end0 = term
            else:
                end1 = term
        total += partial
        abs_total += partial - 2.0 * negative
        count += n0 + n1
        h *= 0.5                           # exact: h = 2**-level
        prev = value
        value = h * total
        diff = abs(value - prev)
        if (diff <= abs_tol or diff <= rel_tol * abs(value)) and count and math.isfinite(value):
            estimate = max(diff, _ROUNDOFF * _EPS * h * abs_total, h * abs(end0), h * abs(end1))
            return QuadratureResult(value, estimate, count, True)
    estimate = diff if count and math.isfinite(diff) else math.inf
    return QuadratureResult(value, estimate, count, False)


def _steps(level: int):
    """t = k*h, k ascending, for the nodes new at `level` with t > 0:
    every k >= 1 at level 0 and the odd k after."""
    h = 0.5 ** level
    return (k * h for k in itertools.count(1, 1 if level == 0 else 2))


@functools.cache
def _semi_infinite_tables(level: int) -> tuple:
    """The semi-infinite transform's (center, sides) at `level`.

    The center x = exp(phi(0)) with its weight is kept at level 0.  Side
    0 is the up side (t > 0), which ends once phi(t) passes
    _EXP_ARG_CAP; side 1 the down side (t < 0), which ends once w falls
    below _WEIGHT_FLOOR.  The sides are lists, which callers never
    modify.
    """
    up_x, up_w = [], []
    for t in _steps(level):                # phi(t) = t - e^-t + e^(t-c)
        em, tail = math.exp(-t), math.exp(t) * _EXP_MINUS_C
        phi = t - em + tail
        if phi > _EXP_ARG_CAP:
            break
        x = math.exp(phi)
        up_x.append(x)
        up_w.append(x * (1.0 + em + tail))
    down_x, down_w = [], []
    for t in _steps(level):                # phi(-t) = -t - e^t + e^(-t-c)
        ep, tail = math.exp(t), math.exp(-t) * _EXP_MINUS_C
        x = math.exp(-t - ep + tail)
        w = x * (1.0 + ep + tail)
        if w < _WEIGHT_FLOOR:
            break
        down_x.append(x)
        down_w.append(w)
    x = math.exp(_EXP_MINUS_C - 1.0)      # t = 0: phi = e^-c - 1, phi' = 2 + e^-c
    center = (x, x * (2.0 + _EXP_MINUS_C)) if level == 0 else None
    return center, ((up_x, up_w), (down_x, down_w))


@functools.lru_cache(maxsize=_WEIGHT_TABLES)
def _weight_tables(weight: Callable[[float], float], level: int) -> tuple:
    """_semi_infinite_tables(level) with every weight w replaced by
    w * weight(x), over the same abscissa lists."""
    center, sides = _semi_infinite_tables(level)
    if center is not None:
        x, w = center
        center = (x, w * weight(x))
    return center, tuple((xs, [w * weight(x) for x, w in zip(xs, ws)]) for xs, ws in sides)


@functools.lru_cache(maxsize=_INTERVAL_TABLES)
def _tanh_sinh_tables(lo: float, hi: float, level: int) -> tuple:
    """tanh-sinh's (center, sides) on (lo, hi) at `level`.

    Side 0 holds the right nodes x = hi - halfspan*d, side 1 the left
    ones x = lo + halfspan*d, both with weight
    w = (pi/2) cosh(t) sech(u)^2 * halfspan, where u = (pi/2) sinh(t)
    and d = 2 e^(-2u) / (1 + e^(-2u)) is a node's distance from its
    endpoint at halfspan 1.  Each side ends where its abscissa first
    rounds onto its endpoint, and both end where the weight first falls
    below _WEIGHT_FLOOR.  The center (mid, (pi/2)*halfspan) is kept at
    level 0 when its weight is above the floor and mid lies strictly
    inside, which a tiny span can prevent.  The sides are lists, which
    callers never modify.
    """
    halfspan = 0.5 * (hi - lo)
    if not math.isfinite(halfspan):        # hi - lo overflowed
        halfspan = 0.5 * hi - 0.5 * lo
    center = None
    if level == 0:
        mid = lo + halfspan
        if _HALF_PI * halfspan >= _WEIGHT_FLOOR and lo < mid < hi:
            center = (mid, _HALF_PI * halfspan)
    ws, offs = [], []                      # weights, and distances halfspan*d
    for t in _steps(level):
        u = _HALF_PI * math.sinh(t)
        e2 = math.exp(-2.0 * u)            # in (0, 1]
        sech_u = 2.0 * math.exp(-u) / (1.0 + e2)
        w = _HALF_PI * math.cosh(t) * sech_u * sech_u * halfspan
        if w < _WEIGHT_FLOOR:
            break
        ws.append(w)
        offs.append(halfspan * (2.0 * e2 / (1.0 + e2)))
    right = list(itertools.takewhile(hi.__gt__, (hi - off for off in offs)))
    left = list(itertools.takewhile(lo.__lt__, (lo + off for off in offs)))
    return center, ((right, ws[:len(right)]), (left, ws[:len(left)]))


def integrate_finite(f: Callable[[float], float], lo: float, hi: float,
                     tol: ToleranceSpec = DEFAULT_TOLERANCE) -> QuadratureResult:
    """Integrate f over the open interval (lo, hi) by tanh-sinh quadrature.

    lo < hi must both be finite.  f is never called at lo or hi exactly,
    although nodes may come within 1e-300 of them, so log or power
    endpoint singularities with exponent > -1 integrate cleanly.  A NaN
    from f aborts with QuadratureError; failure to converge within 12
    levels, or a span too narrow for any node to fall strictly inside
    it, is reported via converged=False.

    The node tables of the last 13 (lo, hi, level) used are kept, which
    is every level of one interval.  A call on an interval they do not
    hold builds its tables first, which can make a call with a cheap
    integrand 5 times as slow.
    """
    # Finite ordered floats, the usual call, pass one test; anything else
    # is converted and checked bound by bound, each failure with its message.
    if not (type(lo) is float and type(hi) is float and -math.inf < lo < hi < math.inf):
        if any(isinstance(v, float) and not math.isfinite(v) for v in (lo, hi)):
            raise ValueError(f"bounds must be finite, got [{lo!r}, {hi!r}]")
        lo = _checked_real(lo, "lo")
        hi = _checked_real(hi, "hi")
        if not lo < hi:
            raise ValueError(f"lower bound must be strictly below upper, got [{lo!r}, {hi!r}]")
    return _refine(f, functools.partial(_tanh_sinh_tables, lo, hi), tol)


def integrate_semi_infinite(f: Callable[[float], float],
                            tol: ToleranceSpec = DEFAULT_TOLERANCE,
                            weight: Callable[[float], float] | None = None) -> QuadratureResult:
    """Integrate f over (0, inf) by DE quadrature in x = exp(t - e^-t + e^(t-c)).

    Suited to integrands with at worst a logarithmic singularity at 0
    and at least exponential or x**-2 decay at infinity.  Error
    semantics match integrate_finite.

    The transform is built for e^-x decay: exp(-x) takes 136 calls at
    rel_tol 1e-12, against 199 with exp-sinh.  x**-2 decay costs more:
    1/(1+x^2) takes 93 calls at rel_tol 1e-6 and 181 at 1e-10 to 1e-14,
    against 37 and 69 with exp-sinh, and x**-0.5/(1+x) 55 and 107,
    against 43 and 83.  Both stay within their estimates at every
    rel_tol the oracle tests try.

    That a converged result lies within its error_estimate is measured
    only where |integral| exceeds tol.abs_tol, and is not promised: the
    module docstring gives a delta_integrand case above it whose error
    is 1.15 times its estimate, and one below it whose error is 1,100
    times its estimate.

    With a weight, a function of x alone, the call integrates
    f(x) * weight(x): weight is folded into cached node tables, so it is
    called only while a table is built, and evaluations count the calls
    of f.  The tables are cached by the weight object, at most 52 of
    them and 8.8 MB, so pass the same function each time; the module
    docstring gives the details.
    """
    tables = _semi_infinite_tables if weight is None else functools.partial(_weight_tables, weight)
    return _refine(f, tables, tol)
