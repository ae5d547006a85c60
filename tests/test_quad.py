"""Tests for the double-exponential quadrature engine.

Fixture integrals have exactly known values; the rest of the suite pins the
structural contract: honest error estimates, linearity, interval additivity,
determinism, endpoint avoidance, and the failure modes.
"""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malmsten import quad
from malmsten.quad import (
    DEFAULT_TOLERANCE,
    QuadratureError,
    ToleranceSpec,
    integrate_finite,
    integrate_semi_infinite,
)

EULER_GAMMA = 0.5772156649015328606


def _sech(x):
    e = math.exp(-abs(x))
    return 2.0 * e / (1.0 + e * e)


FINITE_FIXTURES = [
    ("constant", lambda z: 1.0, 0.0, 1.0, 1.0),
    ("log", math.log, 0.0, 1.0, -1.0),
    ("inv_sqrt", lambda z: z ** -0.5, 0.0, 1.0, 2.0),
    ("cos", math.cos, 0.0, math.pi / 2.0, 1.0),
    ("cubic", lambda z: z * z * z - 2.0 * z, -1.0, 2.0, 0.75),
    ("runge", lambda z: 1.0 / (1.0 + 25.0 * z * z), -1.0, 1.0, 0.4 * math.atan(5.0)),
]

SEMI_FIXTURES = [
    ("exp", lambda x: math.exp(-x), 1.0),
    ("sech", _sech, math.pi / 2.0),
    ("log_exp", lambda x: math.log(x) * math.exp(-x), -EULER_GAMMA),
    ("gauss", lambda x: math.exp(-x * x), 0.5 * math.sqrt(math.pi)),
    ("lorentz", lambda x: 1.0 / (1.0 + x * x), math.pi / 2.0),
]


@pytest.mark.parametrize("name,f,lo,hi,exact", FINITE_FIXTURES, ids=[c[0] for c in FINITE_FIXTURES])
def test_finite_fixtures(name, f, lo, hi, exact):
    res = integrate_finite(f, lo, hi)
    assert res.converged
    assert res.evaluations > 0
    assert math.isclose(res.value, exact, rel_tol=1e-11, abs_tol=1e-13)
    # Estimate honesty: the true error may not exceed ten estimates.
    assert abs(res.value - exact) <= 10.0 * res.error_estimate + 1e-15


@pytest.mark.parametrize("name,f,exact", SEMI_FIXTURES, ids=[c[0] for c in SEMI_FIXTURES])
def test_semi_infinite_fixtures(name, f, exact):
    res = integrate_semi_infinite(f)
    assert res.converged
    assert math.isclose(res.value, exact, rel_tol=1e-11, abs_tol=1e-13)
    assert abs(res.value - exact) <= 10.0 * res.error_estimate + 1e-15


def test_converged_estimate_respects_tolerance():
    tol = ToleranceSpec(rel_tol=1e-10, abs_tol=1e-12)
    res = integrate_finite(math.cos, 0.0, 1.0, tol=tol)
    assert res.converged
    assert res.error_estimate <= max(tol.abs_tol, tol.rel_tol * abs(res.value))


@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=50, deadline=None)
def test_linearity(alpha, beta):
    f = math.cos
    g = lambda z: z * z
    combo = lambda z: alpha * f(z) + beta * g(z)
    rf = integrate_finite(f, 0.0, 1.0)
    rg = integrate_finite(g, 0.0, 1.0)
    rc = integrate_finite(combo, 0.0, 1.0)
    assert rc.converged
    budget = 10.0 * (rc.error_estimate + abs(alpha) * rf.error_estimate + abs(beta) * rg.error_estimate)
    assert abs(rc.value - (alpha * rf.value + beta * rg.value)) <= budget + 1e-14


@pytest.mark.parametrize("c", [0.25, 0.5, 0.9])
def test_interval_additivity(c):
    f = math.exp
    whole = integrate_finite(f, 0.0, 1.0)
    left = integrate_finite(f, 0.0, c)
    right = integrate_finite(f, c, 1.0)
    budget = 10.0 * (whole.error_estimate + left.error_estimate + right.error_estimate)
    assert abs(whole.value - (left.value + right.value)) <= budget + 1e-14


def test_determinism():
    r1 = integrate_finite(math.log, 0.0, 1.0)
    r2 = integrate_finite(math.log, 0.0, 1.0)
    assert r1 == r2
    s1 = integrate_semi_infinite(lambda x: math.exp(-x))
    s2 = integrate_semi_infinite(lambda x: math.exp(-x))
    assert s1 == s2


def test_endpoints_never_evaluated_finite():
    seen = []

    def f(z):
        seen.append(z)
        return z ** -0.5 + (1.0 - z) ** -0.5

    res = integrate_finite(f, 0.0, 1.0)
    assert all(0.0 < z < 1.0 for z in seen)
    # Left-endpoint nodes go denormal, but right-endpoint nodes cannot get
    # closer to 1 than one ulp, which strands ~2e-8 of this integrand's
    # mass.  The value lands on that plateau and the engine must not claim
    # default-tolerance convergence it cannot reach.
    assert abs(res.value - 4.0) <= 1e-7
    assert not res.converged
    relaxed = integrate_finite(f, 0.0, 1.0, tol=ToleranceSpec(rel_tol=1e-7, abs_tol=1e-9))
    assert relaxed.converged
    assert abs(relaxed.value - 4.0) <= 1e-6


def test_origin_never_evaluated_semi_infinite():
    seen = []

    def f(x):
        seen.append(x)
        return math.log(x) * math.exp(-x)

    res = integrate_semi_infinite(f)
    assert res.converged
    assert all(x > 0.0 for x in seen)


def test_evaluation_count_matches_calls():
    calls = [0]

    def f(z):
        calls[0] += 1
        return math.cos(z)

    res = integrate_finite(f, 0.0, 1.0)
    assert res.evaluations == calls[0]


def test_nan_aborts():
    def f(z):
        return float("nan") if z > 0.5 else 1.0

    with pytest.raises(QuadratureError):
        integrate_finite(f, 0.0, 1.0)


def test_non_integrable_does_not_claim_convergence(monkeypatch):
    # 1/z diverges on (0, 1); with a short level budget the refinements
    # keep disagreeing and the result must say so.
    monkeypatch.setattr(quad, "_MAX_LEVEL", 5)
    res = integrate_finite(lambda z: 1.0 / z, 0.0, 1.0)
    assert not res.converged


def test_hard_oscillation_needs_more_levels(monkeypatch):
    f = lambda z: math.cos(200.0 * z)
    deep = integrate_finite(f, 0.0, 1.0)
    assert deep.converged
    assert math.isclose(deep.value, math.sin(200.0) / 200.0, rel_tol=1e-9, abs_tol=1e-12)
    monkeypatch.setattr(quad, "_MAX_LEVEL", 4)
    assert not integrate_finite(f, 0.0, 1.0).converged


def test_tolerance_spec_validation():
    with pytest.raises(ValueError):
        ToleranceSpec(rel_tol=1e-15)
    with pytest.raises(ValueError):
        ToleranceSpec(rel_tol=float("nan"))
    with pytest.raises(ValueError):
        ToleranceSpec(abs_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceSpec(abs_tol=-1e-10)
    for bad in (None, "x", 10**400):
        with pytest.raises(ValueError, match="rel_tol must be a positive finite real"):
            ToleranceSpec(rel_tol=bad)
        with pytest.raises(ValueError, match="abs_tol must be a positive finite real"):
            ToleranceSpec(abs_tol=bad)
    # The floor itself is allowed.
    assert ToleranceSpec(rel_tol=1e-14).rel_tol == 1e-14
    assert DEFAULT_TOLERANCE.rel_tol == 1e-12


def test_tolerance_spec_has_no_depth_field():
    # Every call refines within the engine's fixed 12 levels; a depth
    # asked for by name is an error, not ignored.
    assert ToleranceSpec._fields == ("rel_tol", "abs_tol")
    with pytest.raises(TypeError):
        ToleranceSpec(max_level=4)


def test_tolerance_spec_is_a_validating_named_tuple():
    assert ToleranceSpec._field_defaults == {"rel_tol": 1e-12, "abs_tol": 1e-15}
    assert ToleranceSpec() == DEFAULT_TOLERANCE == (1e-12, 1e-15)
    assert ToleranceSpec(1e-9, 1e-15)._replace(abs_tol=1) == ToleranceSpec(1e-9, 1.0)
    # _replace and _make go through the constructor's checks and messages.
    with pytest.raises(ValueError, match=r"^rel_tol 1e-20 is below the honesty floor 1e-14$"):
        ToleranceSpec()._replace(rel_tol=1e-20)
    with pytest.raises(ValueError, match=r"^abs_tol must be a positive finite real, got 0.0$"):
        ToleranceSpec._make([1e-9, 0.0])


def test_bounds_validation():
    with pytest.raises(ValueError):
        integrate_finite(math.cos, 1.0, 1.0)
    with pytest.raises(ValueError):
        integrate_finite(math.cos, 2.0, 1.0)
    with pytest.raises(ValueError, match=r"^bounds must be finite, got \[0.0, inf\]$"):
        integrate_finite(math.cos, 0.0, float("inf"))
    with pytest.raises(ValueError, match=r"^bounds must be finite, got \[nan, 1.0\]$"):
        integrate_finite(math.cos, float("nan"), 1.0)
    # Values float() rejects name the bound instead of escaping as
    # TypeError, float()'s own ValueError or OverflowError.
    for bad in (None, "a", 10**400):
        with pytest.raises(ValueError, match=r"^lo must be a finite real, got "):
            integrate_finite(math.cos, bad, 1.0)
        with pytest.raises(ValueError, match=r"^hi must be a finite real, got "):
            integrate_finite(math.cos, 0.0, bad)


def test_midpoint_rounding_onto_an_endpoint_is_skipped():
    # mid = lo + halfspan rounds onto lo; f must still never see lo.
    lo, hi = 1.0, 1.0 + 2.0 ** -52
    res = integrate_finite(lambda z: math.log(z - 1.0), lo, hi)
    assert res.evaluations == 0
    assert not res.converged
    assert res.error_estimate == math.inf


def test_no_evaluation_never_claims_convergence():
    # halfspan underflows to 0: no node carries weight above the floor.
    res = integrate_finite(lambda z: 1.0 / z, 0.0, 5e-324)
    assert res.evaluations == 0
    assert not res.converged
    assert res.error_estimate == math.inf


def test_overflowing_span_stays_inside_the_interval():
    seen = []

    def f(z):
        seen.append(z)
        return 1.0 / (1.0 + z * z)

    lo, hi = -1e308, 1e308
    res = integrate_finite(f, lo, hi)
    assert seen and res.evaluations == len(seen)
    assert all(math.isfinite(z) and lo < z < hi for z in seen)
    assert not res.converged
    assert math.isfinite(res.value) and math.isfinite(res.error_estimate)


# -- trimming: later levels sum each side only where level 0 found mass -------

def _up_node(t):
    """The semi-infinite abscissa x(t) = exp(t - e^-t + e^(t-c)) at a
    level-0 t > 0, as the tables build it."""
    return math.exp(t - math.exp(-t) + math.exp(t) * math.exp(-3.5))


ONE_SIDED = [
    ("exp", lambda x: math.exp(-x), 1.0),
    ("x_exp", lambda x: x * math.exp(-x), 1.0),
    ("compact", lambda x: (1.0 - x) ** 3 if x < 1.0 else 0.0, 0.25),
]

ONE_SIDED_FINITE = [
    ("exp_left", lambda z: math.exp(-40.0 * z), -math.expm1(-40.0) / 40.0),
    ("flat_right", lambda z: (1.0 - z) ** 6, 1.0 / 7.0),
    ("compact", lambda z: (0.5 - z) ** 3 if z < 0.5 else 0.0, 1.0 / 64.0),
]


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
@pytest.mark.parametrize("name,f,exact", ONE_SIDED, ids=[c[0] for c in ONE_SIDED])
def test_trimmed_semi_infinite_within_estimate(name, f, exact, rel_tol):
    res = integrate_semi_infinite(f, ToleranceSpec(rel_tol=rel_tol))
    assert res.converged
    assert abs(res.value - exact) <= res.error_estimate


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-10])
@pytest.mark.parametrize("name,f,exact", ONE_SIDED_FINITE, ids=[c[0] for c in ONE_SIDED_FINITE])
def test_trimmed_finite_within_estimate(name, f, exact, rel_tol):
    res = integrate_finite(f, 0.0, 1.0, ToleranceSpec(rel_tol=rel_tol))
    assert res.converged
    assert abs(res.value - exact) <= res.error_estimate


def test_deep_levels_still_trim():
    # exp(-x)/x diverges at 0, so every level up to 12 runs.  Its up side
    # is negligible from t = 3 (x ~ 35) on: past that, f only ever sees
    # the level-0 nodes.
    seen = []

    def f(x):
        seen.append(x)
        return math.exp(-x) / x

    res = integrate_semi_infinite(f)
    assert not res.converged
    assert sorted(x for x in seen if x > 40.0) == [_up_node(float(t)) for t in range(4, 10)]
    assert len(seen) > 20_000


def test_nan_at_a_level0_node_beyond_the_trim_limit_raises():
    bad = _up_node(4.0)

    def f(x):
        return float("nan") if x == bad else math.exp(-x)

    with pytest.raises(QuadratureError, match=re.escape(f"x = {bad!r}") + "$"):
        integrate_semi_infinite(f)


def test_nan_only_beyond_the_trim_limit_is_never_seen():
    # No level-0 node lies in (1e3, 1e4), and from level 1 on the up side
    # of exp(-x) is summed only below x ~ 279.
    def f(x):
        return float("nan") if 1e3 < x < 1e4 else math.exp(-x)

    res = integrate_semi_infinite(f)
    assert res.converged
    assert abs(res.value - 1.0) <= res.error_estimate
