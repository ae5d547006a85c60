"""The table-driven DE engine against the per-node loops it replaced.

The reference engine below is the earlier implementation, which
recomputed every node and weight on every call.  The tables sum the
same products in the same order, so results must agree bit for bit:
compared by repr, value, estimate, evaluation count and verdict.  The
one intended difference is a call that evaluates f nowhere, which now
reports converged=False with an infinite estimate.

The remaining tests pin the tables' retention limit and their safety
when threads build a cold level at once.
"""

import dataclasses
import math
import random
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


# -- reference engine: per-node loops, nothing cached -----------------------

def _call(f, x, count):
    fx = f(x)
    count[0] += 1
    if fx != fx:  # NaN
        raise QuadratureError(f"integrand returned NaN at x = {x!r}")
    return fx


def _refine(new_nodes, tol, count):
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


def reference_finite(f, lo, hi, tol=DEFAULT_TOLERANCE):
    halfspan = 0.5 * (hi - lo)
    mid = lo + halfspan
    count = [0]

    def new_nodes(h, first):
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
            e2 = math.exp(-2.0 * u)
            sech_u = 2.0 * math.exp(-u) / (1.0 + e2)
            w = _HALF_PI * math.cosh(t) * sech_u * sech_u * halfspan
            if w < _WEIGHT_FLOOR:
                break
            if k == 0:
                partial += w * _call(f, mid, count)
            else:
                off = halfspan * (2.0 * e2 / (1.0 + e2))
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


def reference_semi_infinite(f, tol=DEFAULT_TOLERANCE):
    count = [0]

    def new_nodes(h, first):
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
                partial += _HALF_PI * _call(f, 1.0, count)
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


def test_full_chain_matches_reference(monkeypatch):
    grid = [0.25, 0.5, 1.0, 2.0, 4.0, 0.005]
    got = proofchain.run_full_chain(grid)
    monkeypatch.setattr(proofchain, "integrate_finite", reference_finite)
    monkeypatch.setattr(proofchain, "integrate_semi_infinite", reference_semi_infinite)
    assert repr(got) == repr(proofchain.run_full_chain(grid))


# -- retention and thread safety ----------------------------------------------

def _node_count(cache):
    return sum(len(nodes) for nodes, _ in cache.values())


@pytest.fixture
def cold_tables(monkeypatch):
    monkeypatch.setattr(quad, "_TANH_SINH", {})
    monkeypatch.setattr(quad, "_EXP_SINH", {})


def _divergent_sweep(max_level):
    tol = ToleranceSpec(max_level=max_level)
    finite = integrate_finite(lambda z: 1.0 / z, 0.0, 1.0, tol)
    semi = integrate_semi_infinite(lambda x: 1.0, tol)
    assert not (finite.converged or semi.converged)
    return finite, semi


def test_tables_hold_levels_up_to_twelve(cold_tables):
    _divergent_sweep(12)
    assert sorted(quad._TANH_SINH) == sorted(quad._EXP_SINH) == list(range(13))
    assert _node_count(quad._TANH_SINH) == 25_279
    assert _node_count(quad._EXP_SINH) == 55_431


def test_deeper_levels_are_not_retained(cold_tables):
    deep = _divergent_sweep(14)
    assert max(quad._TANH_SINH) == max(quad._EXP_SINH) == DEFAULT_TOLERANCE.max_level
    assert _divergent_sweep(14) == deep
    assert max(quad._TANH_SINH) == max(quad._EXP_SINH) == DEFAULT_TOLERANCE.max_level


def test_cold_tables_built_by_racing_threads(cold_tables):
    expected = _divergent_sweep(12)
    quad._TANH_SINH.clear()
    quad._EXP_SINH.clear()
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
    assert _node_count(quad._TANH_SINH) == 25_279
    assert _node_count(quad._EXP_SINH) == 55_431
