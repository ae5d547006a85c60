"""The table-driven DE engine against per-node loops that state its rules.

The reference engine below recomputes every node and weight on every
call from the transforms' formulas (tanh-sinh, and x = exp(phi(t)) with
phi(t) = t - e^-t + e^(t-c) on (0, inf)), and restates in its own terms
what the engine does with them:

    trim      after level 0, each side of the transform is summed only
              at t below one level-0 step past its outermost node whose
              |w*f| exceeds eps times the level's sum of |w*f|, unless
              that side's own sum is 0 or the level's sum is not finite;
    estimate  a converged result reports the largest of the last level
              difference, 8 * eps * h * sum|w*f| over every node summed,
              and h * |w*f| at the outermost node of either side at the
              last level.  Each level's sum|w*f| is formed as its sum of
              w*f minus twice the sum of its negative terms.

The engine sums the same products in the same order from cached
tables (tanh-sinh's built per interval), so results must agree bit for
bit: compared by repr, value, estimate, evaluation count and verdict,
on seeded integrands, on the benchmark's own quad ops and on the
identity chain.  The one intended difference is a call that evaluates
f nowhere, which the engine reports as converged=False with an infinite
estimate.

The remaining tests pin the tables' size under the 12-level cap, the
bound on the per-interval tanh-sinh tables and their use by the chain,
that each transform fills only its own table cache, and the tables'
safety when threads build a cold level at once.
"""

import functools
import importlib.util
import math
import random
import re
import sys
import threading
import types
from pathlib import Path

import pytest

import malmsten
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
_SHIFT = 3.5  # c in the semi-infinite transform's phi(t) = t - e^-t + e^(t-c)
_T_CAP = 16.0
_EPS = 2.0 ** -52
_MAX_LEVEL = 12  # the deepest level the engine refines to
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


def _refine(new_nodes, tol, count, trim, depth):
    """new_nodes(h, first, limits) -> (sum w*f, sum |w*f|, w*f of each
    side's nodes outward), side 0 being the one the engine sums first;
    levels 1 to depth follow level 0."""
    total, abs_total, sides = new_nodes(1.0, True, _UNTRIMMED)
    limits = _trim_limits(sides, abs_total) if trim else _UNTRIMMED
    value = total
    diff = math.inf
    for level in range(1, depth + 1):
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


def reference_finite(f, lo, hi, tol=DEFAULT_TOLERANCE, trim=True, depth=_MAX_LEVEL):
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

    return _refine(new_nodes, tol, count, trim, depth)


def _phi(s):
    """The semi-infinite transform's x = exp(phi(s)) and dx/ds = x * dphi(s)."""
    tail = math.exp(s) * math.exp(-_SHIFT)  # e^(s-c)
    return s - math.exp(-s) + tail, 1.0 + math.exp(-s) + tail


def reference_semi_infinite(f, tol=DEFAULT_TOLERANCE, trim=True, depth=_MAX_LEVEL):
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
                arg, slope = _phi(0.0)
                x = math.exp(arg)
                term = x * slope * _call(f, x, count)
                partial += term
                negative += min(term, 0.0)
            else:
                if up_alive:
                    arg, slope = _phi(t)
                    if arg > _EXP_ARG_CAP:
                        up_alive = False
                    elif t < limits[0]:
                        x = math.exp(arg)
                        term = x * slope * _call(f, x, count)
                        partial += term
                        negative += min(term, 0.0)
                        sides[0].append(term)
                if down_alive:
                    arg, slope = _phi(-t)
                    x = math.exp(arg)
                    w = x * slope
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

    return _refine(new_nodes, tol, count, trim, depth)


def _expected(ref: QuadratureResult) -> QuadratureResult:
    if ref.evaluations == 0:
        return ref._replace(error_estimate=math.inf, converged=False)
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
    """A seeded ToleranceSpec and refinement depth, drawn in that order."""
    return (ToleranceSpec(rel_tol=rng.choice([1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3]),
                          abs_tol=rng.choice([1e-300, 1e-15, 1e-12, 1e-9])),
            rng.randint(1, _MAX_LEVEL))


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


def test_finite_matches_reference(monkeypatch):
    # Each draw's depth is the engine's refinement cap for that draw.
    rng = random.Random(20240601)
    for _ in range(200):
        lo, hi = _interval(rng)
        tol, depth = _tolerance(rng)
        monkeypatch.setattr(quad, "_MAX_LEVEL", depth)
        for f in _finite_integrands(lo, hi):
            got = integrate_finite(f, lo, hi, tol)
            ref = reference_finite(f, lo, hi, tol, depth=depth)
            assert repr(got) == repr(_expected(ref)), (lo, hi, tol, depth)


def test_semi_infinite_matches_reference(monkeypatch):
    rng = random.Random(20240602)
    for _ in range(120):
        c = 10.0 ** rng.uniform(-2.0, 2.0)
        tol, depth = _tolerance(rng)
        monkeypatch.setattr(quad, "_MAX_LEVEL", depth)
        for f in _semi_integrands(c):
            got = integrate_semi_infinite(f, tol)
            assert repr(got) == repr(reference_semi_infinite(f, tol, depth=depth)), (c, tol, depth)


def test_tiny_span_matches_reference_or_reports_no_evaluation(monkeypatch):
    # Spans at and below the weight floor: the reference evaluates f
    # nowhere yet claims convergence, which the engine no longer does.
    for hi in (1e-290, 1e-299, 1e-300, 1e-305, 1e-310, 1e-320):
        for depth in (1, 6, 12):
            monkeypatch.setattr(quad, "_MAX_LEVEL", depth)
            ref = reference_finite(math.exp, 0.0, hi, depth=depth)
            assert repr(integrate_finite(math.exp, 0.0, hi)) == repr(_expected(ref))


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
    # the semi-infinite down side, which test_nan_message_matches_reference,
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


def test_level0_up_side_goes_on_alone():
    # Both transforms reach the loop that sums one side's surplus nodes
    # alone at level 0, so their level-0 terms that fix the trim come
    # from both loops: the semi-infinite up side has 9 level-0 nodes and
    # its down side 6, and on (0, 1) tanh-sinh's right side has 3 and its
    # left side 6.  The reference sweeps above check the trim either way.
    assert [len(xs) for xs, _ in quad._semi_infinite_tables(0)[1]] == [9, 6]


def test_nan_met_where_one_side_goes_on_alone():
    # The up side is trimmed and the all-zero down side is not, so past
    # the up side's limit the down side goes on alone.  Its first node
    # below 1e-300 comes at level 5 (t = -6.53125), as its last node.
    def f(x):
        if x < 1e-300:
            return float("nan")
        return 0.0 if x < 1.0 else math.exp(-x)

    def down_side(level):
        return quad._semi_infinite_tables(level)[1][1][0]

    x = down_side(5)[-1]
    assert x < 1e-300 <= min(down_side(level)[-1] for level in range(5))
    with pytest.raises(QuadratureError, match=re.escape(f"at x = {x!r}") + "$") as got:
        integrate_semi_infinite(f)
    with pytest.raises(QuadratureError) as expected:
        reference_semi_infinite(f)
    assert str(got.value) == str(expected.value)


def _level1_first_nodes(engine):
    """The first node of each side at level 1, side 0 first."""
    if engine is integrate_finite:
        (right, _), (left, _) = quad._tanh_sinh_tables(0.0, 1.0, 1)[1]
    else:
        (right, _), (left, _) = quad._semi_infinite_tables(1)[1]
    return right[0], left[0]


@pytest.mark.parametrize("engine, reference, args", [
    (integrate_finite, reference_finite, (0.0, 1.0)),
    (integrate_semi_infinite, reference_semi_infinite, ()),
])
def test_infinite_terms_of_both_signs_raise_no_nan_error(engine, reference, args):
    # f is +inf at one level-1 node and -inf at the other, so the level's
    # sum is inf - inf = NaN although f never returns NaN: the call runs
    # on without converging.  A NaN from f at the second node still
    # raises, so the NaN test must also see terms that are not < 0.
    plus, minus = _level1_first_nodes(engine)

    def f(x):
        return math.inf if x == plus else -math.inf if x == minus else math.exp(-x)

    got = engine(f, *args)
    assert not got.converged and math.isnan(got.value)
    assert repr(got) == repr(reference(f, *args))

    def g(x):
        return math.nan if x == minus else f(x)

    with pytest.raises(QuadratureError, match=re.escape(f"at x = {minus!r}") + "$") as got:
        engine(g, *args)
    with pytest.raises(QuadratureError) as expected:
        reference(g, *args)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("engine, reference, args", [
    (integrate_finite, reference_finite, (0.0, 1.0)),
    (integrate_semi_infinite, reference_semi_infinite, ()),
])
def test_infinite_level_does_not_converge(engine, reference, args):
    # f is +inf at side 0's first level-1 node, so level 1's value is inf
    # and so is its difference from level 0.  rel_tol * |value| is inf as
    # well, so the difference passes the tolerance test, and only the
    # value's own finiteness keeps the call from converging.  Every later
    # level's difference is inf - inf = NaN.
    plus = _level1_first_nodes(engine)[0]

    def f(x):
        return math.inf if x == plus else math.exp(-x)

    got = engine(f, *args)
    assert not got.converged and got.value == got.error_estimate == math.inf
    assert repr(got) == repr(reference(f, *args))


@pytest.mark.parametrize("engine, reference, args, window", [
    (integrate_finite, reference_finite, (0.0, 1.0), (0.8, 0.9)),
    (integrate_semi_infinite, reference_semi_infinite, (), (0.9, 1.0)),
], ids=["finite", "semi_infinite"])
def test_nan_on_side0_of_a_later_level_matches_reference(engine, reference, args, window):
    # The window holds side 0's first level-1 node and no level-0 node
    # (those are 0.5 and 0.9757 on (0, 1)'s right, 0.379 and 2.04 on
    # (0, inf)'s up side), so the NaN is first met in level 1's pair
    # loop, on side 0.
    lo, hi = window
    first = _level1_first_nodes(engine)[0]
    assert lo < first < hi

    def f(x):
        return math.nan if lo < x < hi else math.exp(-x)

    with pytest.raises(QuadratureError, match=re.escape(f"at x = {first!r}") + "$") as got:
        engine(f, *args)
    with pytest.raises(QuadratureError) as expected:
        reference(f, *args)
    assert str(got.value) == str(expected.value)


def _level0_abscissae():
    nodes = {math.exp(_phi(0.0)[0])}
    for k in range(1, 10):
        nodes |= {math.exp(_phi(float(k))[0]), math.exp(_phi(-float(k))[0])}
    return nodes


def test_zero_at_every_level0_node_is_not_trimmed():
    # Level 0 sees no mass at all, so it says nothing about where either
    # side ends: both are summed out to their natural ends.  (The missing
    # level-0 mass keeps the levels apart, so the call never converges.)
    level0 = _level0_abscissae()

    def f(x):
        return 0.0 if x in level0 else math.exp(-x)

    got = integrate_semi_infinite(f)
    assert repr(got) == repr(reference_semi_infinite(f, trim=False))
    assert got.evaluations > integrate_semi_infinite(lambda x: math.exp(-x)).evaluations


def test_infinite_level0_sum_is_not_trimmed(monkeypatch):
    center = math.exp(_phi(0.0)[0])

    def f(x):
        return math.inf if x == center else math.exp(-x)

    monkeypatch.setattr(quad, "_MAX_LEVEL", 4)
    got = integrate_semi_infinite(f)
    assert not got.converged
    assert repr(got) == repr(reference_semi_infinite(f, trim=False, depth=4))


def _load_workloads():
    path = Path(__file__).parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_quad_traffic_matches_reference():
    # A seeded sample of the benchmark's own quad ops, each run once by
    # the engine and once by the reference engine in its place.
    workloads = _load_workloads()
    cases = random.Random(20240603).sample(workloads.make_inputs("quad", 1), 200)
    assert {kind for kind, _, _ in cases} == set(workloads.QUAD_KINDS)
    referenced = types.SimpleNamespace(**{
        **vars(malmsten),
        "integrate_finite": lambda *args: _expected(reference_finite(*args)),
        "integrate_semi_infinite": lambda *args: _expected(reference_semi_infinite(*args))})
    for case in cases:
        got = workloads._op_quad(malmsten, case)
        assert repr(got) == repr(workloads._op_quad(referenced, case)), case


def test_full_chain_matches_reference(monkeypatch):
    # The A05 grid, a point in the small-a band, and the chain workload's
    # other kinds of point: a negative a, a = 0 with its skipped steps,
    # and t = 20, whose sech-cosine step is the chain's longest.
    grid = [0.25, 0.5, 1.0, 2.0, 4.0, 0.005, -3.7, 0.0, 20.0]
    got = proofchain.run_full_chain(grid)
    monkeypatch.setattr(proofchain, "integrate_finite", reference_finite)
    monkeypatch.setattr(proofchain, "integrate_semi_infinite", reference_semi_infinite)
    assert repr(got) == repr(proofchain.run_full_chain(grid))


# -- table size and thread safety ---------------------------------------------

def _node_counts():
    """(tanh-sinh on (0, 1), semi-infinite) nodes over the 13 cached
    levels, each counting its center once and every node of both sides."""
    assert quad._tanh_sinh_tables.cache_info().currsize == 13
    assert quad._semi_infinite_tables.cache_info().currsize == 13
    counts = []
    for tables in (functools.partial(quad._tanh_sinh_tables, 0.0, 1.0),
                   quad._semi_infinite_tables):
        counts.append(1 + sum(len(xs) for level in range(13) for xs, _ in tables(level)[1]))
    return tuple(counts)


def _table_caches():
    """Every functools cache in quad, by name."""
    return {name: obj for name, obj in vars(quad).items() if hasattr(obj, "cache_info")}


def _clear_tables():
    for cache in _table_caches().values():
        cache.cache_clear()


@pytest.fixture
def cold_tables():
    _clear_tables()


def _divergent_sweep():
    """Two calls that never converge, so they build all 13 levels."""
    finite = integrate_finite(lambda z: 1.0 / z, 0.0, 1.0)
    semi = integrate_semi_infinite(lambda x: 1.0)
    assert not (finite.converged or semi.converged)
    return finite, semi


def test_tables_hold_levels_up_to_twelve(cold_tables):
    _divergent_sweep()
    assert _node_counts() == (37_963, 67_688)


def test_interval_tables_stay_bounded_and_serve_the_chain(cold_tables):
    # Eight intervals, each converging after a few levels, ask for more
    # (lo, hi, level) tables than the cache keeps.
    for lo in range(8):
        assert integrate_finite(math.exp, float(lo), lo + 1.0).converged
    info = quad._tanh_sinh_tables.cache_info()
    assert info.misses > 13 and info.currsize <= 13
    # Right and left node counts of the (0, 1) tables, levels 0 to 12.
    # The right side ends where 1 - d/2 rounds onto 1, the left at the
    # weight floor or where the halfspan-1 table ends.
    assert [tuple(len(xs) for xs, _ in quad._tanh_sinh_tables(0.0, 1.0, level)[1])
            for level in range(13)] == [
        (3, 6), (3, 6), (6, 12), (13, 24), (25, 49), (51, 98), (102, 195), (203, 390),
        (406, 780), (812, 1560), (1624, 3121), (3249, 6242), (6498, 12484)]
    _clear_tables()
    proofchain.run_full_chain([0.25, 0.5, 1.0, 2.0, 4.0])
    info = quad._tanh_sinh_tables.cache_info()
    assert info.hits > 0 and info.misses <= 13


@pytest.mark.parametrize("integrate, own_cache", [
    (lambda: integrate_semi_infinite(lambda x: math.exp(-x)), "_semi_infinite_tables"),
    (lambda: integrate_finite(lambda x: math.exp(-x), 0.0, 1.0), "_tanh_sinh_tables"),
], ids=["semi_infinite", "finite"])
def test_each_transform_fills_only_its_own_cache(integrate, own_cache):
    # A process that integrates on one kind of interval builds no node
    # of the other transform.
    caches = _table_caches()
    assert own_cache in caches
    _clear_tables()
    integrate()
    assert {name for name, cache in caches.items() if cache.cache_info().currsize} == {own_cache}


def test_cold_tables_built_by_racing_threads(cold_tables):
    expected = _divergent_sweep()
    _clear_tables()
    results = []
    threads = [threading.Thread(target=lambda: results.append(_divergent_sweep()))
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
    assert _node_counts() == (37_963, 67_688)
