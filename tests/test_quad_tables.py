"""The table-driven DE engine against per-node loops that state its rules.

The reference engine below recomputes every node and weight on every
call, as the engine once did, and restates in its own terms what the
engine now does with them:

    trim      after level 0, each side of the transform is summed only
              at t below one level-0 step past its outermost node whose
              |w*f| exceeds eps times the level's sum of |w*f|, unless
              that side's own sum is 0 or the level's sum is not finite;
    estimate  a converged result reports the largest of the last level
              difference, 8 * eps * h * sum|w*f| over every node summed,
              and h * |w*f| at the outermost node of either side at the
              last level.  Each level's sum|w*f| is formed as its sum of
              w*f minus twice the sum of its negative terms.

The engine sums the same products in the same order, so results must
agree bit for bit: compared by repr, value, estimate, evaluation count
and verdict.  The one intended difference is a call that evaluates f
nowhere, which the engine reports as converged=False with an infinite
estimate.

The remaining tests pin the tables' size under the 12-level cap and
their safety when threads build a cold level at once.
"""

import dataclasses
import math
import random
import re
import sys
import threading

import pytest

from malmsten import proofchain, quad
from malmsten.quad import (
    DEFAULT_TOLERANCE,
    QuadratureError,
    QuadratureResult,
    ToleranceSpec,
    integrate_finite,
    integrate_semi_infinite,
)

_HALF_PI = math.pi / 2.0
_WEIGHT_FLOOR = 1e-300
_EXP_ARG_CAP = 667.0
_T_CAP = 8.0
_EPS = 2.0 ** -52
_UNTRIMMED = (math.inf, math.inf)


# -- reference engine: per-node loops, nothing cached -----------------------

def _call(f, x, count):
    fx = f(x)
    count[0] += 1
    if fx != fx:  # NaN
        raise QuadratureError(f"integrand returned NaN at x = {x!r}")
    return fx


def _trim_limits(sides, abs_total):
    """Per side, the t below which later levels sum it."""
    limits = []
    for terms in sides:
        if not (math.isfinite(abs_total) and sum(abs(t) for t in terms) > 0.0):
            limits.append(math.inf)
            continue
        significant = [k for k, t in enumerate(terms, 1) if abs(t) > _EPS * abs_total]
        limits.append(max(significant, default=0) + 1)
    return limits


def _refine(new_nodes, tol, count, trim):
    """new_nodes(h, first, limits) -> (sum w*f, sum |w*f|, w*f of each
    side's nodes outward), side 0 being the one the engine sums first."""
    total, abs_total, sides = new_nodes(1.0, True, _UNTRIMMED)
    limits = _trim_limits(sides, abs_total) if trim else _UNTRIMMED
    value = total
    diff = math.inf
    for level in range(1, tol.max_level + 1):
        h = 0.5 ** level
        partial, abs_partial, sides = new_nodes(h, False, limits)
        total += partial
        abs_total += abs_partial
        prev = value
        value = h * total
        diff = abs(value - prev)
        if math.isfinite(value) and diff <= max(tol.abs_tol, tol.rel_tol * abs(value)):
            edge = max((abs(terms[-1]) for terms in sides if terms), default=0.0)
            estimate = max(diff, 8.0 * _EPS * h * abs_total, h * edge)
            return QuadratureResult(value, estimate, count[0], True)
    estimate = diff if math.isfinite(diff) else math.inf
    return QuadratureResult(value, estimate, count[0], False)


def reference_finite(f, lo, hi, tol=DEFAULT_TOLERANCE, trim=True):
    halfspan = 0.5 * (hi - lo)
    mid = lo + halfspan
    count = [0]

    def new_nodes(h, first, limits):
        partial = 0.0
        negative = 0.0
        sides = ([], [])
        k = 0 if first else 1
        step = 1 if first else 2
        left_alive = True
        right_alive = True
        while True:
            t = k * h
            if t > _T_CAP:
                break
            u = _HALF_PI * math.sinh(t)
            e2 = math.exp(-2.0 * u)
            sech_u = 2.0 * math.exp(-u) / (1.0 + e2)
            w = _HALF_PI * math.cosh(t) * sech_u * sech_u * halfspan
            if w < _WEIGHT_FLOOR:
                break
            if k == 0:
                term = w * _call(f, mid, count)
                partial += term
                negative += min(term, 0.0)
            else:
                off = halfspan * (2.0 * e2 / (1.0 + e2))
                right_alive = right_alive and t < limits[0]
                left_alive = left_alive and t < limits[1]
                if right_alive:
                    x = hi - off
                    if x >= hi:
                        right_alive = False
                    else:
                        term = w * _call(f, x, count)
                        partial += term
                        negative += min(term, 0.0)
                        sides[0].append(term)
                if left_alive:
                    x = lo + off
                    if x <= lo:
                        left_alive = False
                    else:
                        term = w * _call(f, x, count)
                        partial += term
                        negative += min(term, 0.0)
                        sides[1].append(term)
                if not (left_alive or right_alive):
                    break
            k += step
        return partial, partial - 2.0 * negative, sides

    return _refine(new_nodes, tol, count, trim)


def reference_semi_infinite(f, tol=DEFAULT_TOLERANCE, trim=True):
    count = [0]

    def new_nodes(h, first, limits):
        partial = 0.0
        negative = 0.0
        sides = ([], [])
        k = 0 if first else 1
        step = 1 if first else 2
        up_alive = True
        down_alive = True
        while True:
            t = k * h
            if t > _T_CAP:
                break
            if k == 0:
                term = _HALF_PI * _call(f, 1.0, count)
                partial += term
                negative += min(term, 0.0)
            else:
                arg = _HALF_PI * math.sinh(t)
                ch = math.cosh(t)
                if up_alive:
                    if arg > _EXP_ARG_CAP:
                        up_alive = False
                    elif t < limits[0]:
                        x = math.exp(arg)
                        term = _HALF_PI * ch * x * _call(f, x, count)
                        partial += term
                        negative += min(term, 0.0)
                        sides[0].append(term)
                if down_alive:
                    x = math.exp(-arg)
                    w = _HALF_PI * ch * x
                    if w < _WEIGHT_FLOOR:
                        down_alive = False
                    elif t < limits[1]:
                        term = w * _call(f, x, count)
                        partial += term
                        negative += min(term, 0.0)
                        sides[1].append(term)
                if not (up_alive or down_alive):
                    break
            k += step
        return partial, partial - 2.0 * negative, sides

    return _refine(new_nodes, tol, count, trim)


def _expected(ref: QuadratureResult) -> QuadratureResult:
    if ref.evaluations == 0:
        return dataclasses.replace(ref, error_estimate=math.inf, converged=False)
    return ref


# -- seeded sweep -------------------------------------------------------------

def _finite_integrands(lo, hi):
    span = hi - lo
    return [
        lambda x: 1.0,
        lambda x: math.cos(7.0 * (x - lo) / span),
        lambda x: math.log((x - lo) / span),
        lambda x: ((hi - x) / span) ** -0.5,
        lambda x: 1.0 / (1.0 + ((x - lo) / span) ** 2),
        lambda x: math.cos(300.0 * (x - lo) / span),  # needs many levels
        lambda x: span / (x - lo),                     # not integrable
    ]


def _semi_integrands(c):
    return [
        lambda x: math.exp(-c * x),
        lambda x: math.log(x) * math.exp(-x / c),
        lambda x: 1.0 / (1.0 + (c * x) * (c * x)),
        lambda x: 2.0 / (math.exp(c * x) + math.exp(-c * x)) if c * x < 700.0 else 0.0,
        lambda x: math.cos(c * x) * math.exp(-x),
        lambda x: 1.0 / (1.0 + x),                     # not integrable
    ]


def _tolerance(rng):
    return ToleranceSpec(rel_tol=rng.choice([1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3]),
                         abs_tol=rng.choice([1e-300, 1e-15, 1e-12, 1e-9]),
                         max_level=rng.randint(1, 12))


def _interval(rng):
    """A finite (lo, hi) whose midpoint lies strictly inside, spans from subnormal up."""
    while True:
        kind = rng.random()
        if kind < 0.3:
            lo, hi = 0.0, 10.0 ** rng.uniform(-323.0, 307.0)
        elif kind < 0.8:
            lo = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-300.0, 300.0)
            hi = lo + abs(lo) * 10.0 ** rng.uniform(-14.0, 3.0)
        else:
            lo = -(10.0 ** rng.uniform(-10.0, 307.0))
            hi = 10.0 ** rng.uniform(-10.0, 307.0)
        halfspan = 0.5 * (hi - lo)
        if math.isfinite(halfspan) and lo < lo + halfspan < hi:
            return lo, hi


def test_finite_matches_reference():
    rng = random.Random(20240601)
    for _ in range(200):
        lo, hi = _interval(rng)
        tol = _tolerance(rng)
        for f in _finite_integrands(lo, hi):
            got = integrate_finite(f, lo, hi, tol)
            assert repr(got) == repr(_expected(reference_finite(f, lo, hi, tol))), (lo, hi, tol)


def test_semi_infinite_matches_reference():
    rng = random.Random(20240602)
    for _ in range(120):
        c = 10.0 ** rng.uniform(-2.0, 2.0)
        tol = _tolerance(rng)
        for f in _semi_integrands(c):
            got = integrate_semi_infinite(f, tol)
            assert repr(got) == repr(reference_semi_infinite(f, tol)), (c, tol)


def test_tiny_span_matches_reference_or_reports_no_evaluation():
    # Spans at and below the weight floor: the reference evaluates f
    # nowhere yet claims convergence, which the engine no longer does.
    for hi in (1e-290, 1e-299, 1e-300, 1e-305, 1e-310, 1e-320):
        for max_level in (1, 6, 12):
            tol = ToleranceSpec(max_level=max_level)
            ref = reference_finite(math.exp, 0.0, hi, tol)
            assert repr(integrate_finite(math.exp, 0.0, hi, tol)) == repr(_expected(ref))


@pytest.mark.parametrize("cut", [0.3, 0.9, 0.999, 1.5, 40.0])
def test_nan_message_matches_reference(cut):
    def f(x):
        return float("nan") if x > cut else math.exp(-x)

    for engine, reference, args in ((integrate_finite, reference_finite, (0.0, 1.0)),
                                    (integrate_semi_infinite, reference_semi_infinite, ())):
        if engine is integrate_finite and cut >= 1.0:
            continue
        with pytest.raises(QuadratureError) as expected:
            reference(f, *args)
        with pytest.raises(QuadratureError) as got:
            engine(f, *args)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("cut", [0.3, 1e-3, 1e-12])
def test_nan_below_cut_message_matches_reference(cut):
    # A NaN below the cut is met first on tanh-sinh's left side and on
    # exp-sinh's down side, which test_nan_message_matches_reference,
    # whose NaN lies above its cut, never reaches.
    def f(x):
        return float("nan") if x < cut else math.exp(-x)

    for engine, reference, args in ((integrate_finite, reference_finite, (0.0, 1.0)),
                                    (integrate_semi_infinite, reference_semi_infinite, ())):
        with pytest.raises(QuadratureError) as expected:
            reference(f, *args)
        with pytest.raises(QuadratureError) as got:
            engine(f, *args)
        assert str(got.value) == str(expected.value)


def test_level0_sides_are_the_same_length():
    # Level 0 never reaches the loop that sums one side's surplus nodes
    # alone, so the level-0 terms that fix the trim come from the paired
    # loop only.
    assert len(quad._nodes(0)[2]) == len(quad._nodes(0)[4])


def test_nan_met_where_one_side_goes_on_alone():
    # The up side is trimmed and the all-zero down side is not, so past
    # the up side's limit the down side goes on alone.  Its first node
    # below 1e-300 comes at level 5 (t = 6.78125), as its last node.
    def f(x):
        if x < 1e-300:
            return float("nan")
        return 0.0 if x < 1.0 else math.exp(-x)

    x = quad._nodes(5)[4][-1]
    assert x < 1e-300 <= min(quad._nodes(level)[4][-1] for level in range(5))
    with pytest.raises(QuadratureError, match=re.escape(f"at x = {x!r}") + "$") as got:
        integrate_semi_infinite(f)
    with pytest.raises(QuadratureError) as expected:
        reference_semi_infinite(f)
    assert str(got.value) == str(expected.value)


def _level0_exp_sinh_abscissae():
    nodes = {1.0}
    for k in range(1, 7):
        arg = _HALF_PI * math.sinh(float(k))
        nodes |= {math.exp(arg), math.exp(-arg)}
    return nodes


def test_zero_at_every_level0_node_is_not_trimmed():
    # Level 0 sees no mass at all, so it says nothing about where either
    # side ends: both are summed out to their natural ends.  (The missing
    # level-0 mass keeps the levels apart, so the call never converges.)
    level0 = _level0_exp_sinh_abscissae()

    def f(x):
        return 0.0 if x in level0 else math.exp(-x)

    got = integrate_semi_infinite(f)
    assert repr(got) == repr(reference_semi_infinite(f, trim=False))
    assert got.evaluations > integrate_semi_infinite(lambda x: math.exp(-x)).evaluations


def test_infinite_level0_sum_is_not_trimmed():
    def f(x):
        return math.inf if x == 1.0 else math.exp(-x)

    got = integrate_semi_infinite(f, ToleranceSpec(max_level=4))
    assert not got.converged
    assert repr(got) == repr(reference_semi_infinite(f, ToleranceSpec(max_level=4), trim=False))


def test_full_chain_matches_reference(monkeypatch):
    grid = [0.25, 0.5, 1.0, 2.0, 4.0, 0.005]
    got = proofchain.run_full_chain(grid)
    monkeypatch.setattr(proofchain, "integrate_finite", reference_finite)
    monkeypatch.setattr(proofchain, "integrate_semi_infinite", reference_semi_infinite)
    assert repr(got) == repr(proofchain.run_full_chain(grid))


# -- table size and thread safety ---------------------------------------------

def _node_counts():
    """(tanh-sinh, exp-sinh) nodes over the 13 cached levels; exp-sinh
    counts its center once, as well as every up and down node."""
    assert quad._nodes.cache_info().currsize == 13
    tables = [quad._nodes(level) for level in range(13)]
    return (sum(len(t[0]) for t in tables),
            1 + sum(len(t[2]) + len(t[4]) for t in tables))


def _clear_tables():
    quad._nodes.cache_clear()


@pytest.fixture
def cold_tables():
    _clear_tables()


def _divergent_sweep(max_level):
    tol = ToleranceSpec(max_level=max_level)
    finite = integrate_finite(lambda z: 1.0 / z, 0.0, 1.0, tol)
    semi = integrate_semi_infinite(lambda x: 1.0, tol)
    assert not (finite.converged or semi.converged)
    return finite, semi


def test_tables_hold_levels_up_to_twelve(cold_tables):
    _divergent_sweep(12)
    assert _node_counts() == (25_279, 55_431)


def test_levels_above_twelve_are_rejected():
    with pytest.raises(ValueError, match=r"max_level must be an integer in \[1, 12\], got 13"):
        ToleranceSpec(max_level=13)
    assert ToleranceSpec(max_level=12) == DEFAULT_TOLERANCE


def test_cold_tables_built_by_racing_threads(cold_tables):
    expected = _divergent_sweep(12)
    _clear_tables()
    results = []
    threads = [threading.Thread(target=lambda: results.append(_divergent_sweep(12)))
               for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == len(threads)
    assert all(repr(r) == repr(expected) for r in results)
    assert _node_counts() == (25_279, 55_431)
