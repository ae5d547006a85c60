"""Tests for the closed-form evaluators.

Frozen reference values come from a 30-digit multi-precision evaluation of
the same gamma-function expressions; algebraic identities (evenness, scaling
laws, special points) are checked independently of those constants.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from malmsten.closedform import (
    MalmstenParams,
    delta_closed,
    delta_derivative,
    malmsten_c,
    vardi_b_constant,
)
from malmsten.specfun import ln_gamma

# delta_closed reference pairs, frozen from a 30-digit run.
DELTA_ORACLE = [
    (0.0, -1.4763359659736188624),
    (0.1, -1.1943294522765305564),
    (0.25, -0.86128336953068096839),
    (0.5, -0.45158270528945486473),
    (1.0, 0.090041604853728243527),
    (2.0, 0.72088861136260052043),
    (5.0, 1.6143217089475217653),
    (10.0, 2.3038274330311241234),
]

VARDI_CONSTANT = -0.52088561260197689108


@pytest.mark.parametrize("a,expected", DELTA_ORACLE)
def test_delta_closed_oracle(a, expected):
    assert math.isclose(delta_closed(a), expected, rel_tol=1e-12, abs_tol=1e-13)


def test_delta_closed_half_is_ln_two_over_pi():
    assert abs(delta_closed(0.5) - math.log(2.0 / math.pi)) <= 1e-13


def test_delta_closed_even_bitwise():
    for a in (0.1, 0.5, 1.0, 3.75, 1e-8, 1e8, 0.0):
        assert delta_closed(a) == delta_closed(-a)
    assert delta_closed(-0.0) == delta_closed(0.0)


@given(st.floats(min_value=-1e6, max_value=1e6))
@settings(max_examples=200)
def test_delta_closed_even_property(a):
    assert delta_closed(a) == delta_closed(-a)


@given(st.floats(min_value=0.0, max_value=100.0), st.floats(min_value=1e-6, max_value=10.0))
@settings(max_examples=200)
def test_delta_closed_strictly_increasing_in_magnitude(a, gap):
    # Strictness needs the increment to clear the cancellation noise of the
    # log-gamma difference (~eps * s ln s), hence the bounded domain; growth
    # over the wide range is checked on a coarse grid below.
    assert delta_closed(a) < delta_closed(a + gap)


def test_delta_closed_increasing_wide_range():
    grid = [10.0 ** k for k in range(-3, 9)]
    values = [delta_closed(a) for a in grid]
    assert all(x < y for x, y in zip(values, values[1:]))


def test_delta_closed_finite_everywhere():
    # The gamma ratio overflows a double near |a| ~ 5e305 if evaluated
    # naively; the evaluator must stay finite for every finite argument.
    for a in (1e6, 1e10, 1e100, 1e300, 1.7e308):
        assert math.isfinite(delta_closed(a))


@pytest.mark.parametrize("a", [50.0, 100.0, 1000.0])
def test_delta_closed_asymptote(a):
    # delta(a) - ln a decays like 1/(8 a^2); half the leading constant of
    # slack keeps the bound strict without tracking the next order.
    assert abs(delta_closed(a) - math.log(a)) <= 1.0 / (2.0 * a * a)


def test_vardi_constant_two_forms_agree():
    form_a = math.pi * math.log(2.0 * math.pi ** 1.5 / math.exp(2.0 * ln_gamma(0.25)))
    form_b = math.pi * math.log(math.sqrt(2.0 * math.pi) * math.exp(ln_gamma(0.75) - ln_gamma(0.25)))
    v = vardi_b_constant()
    assert abs(form_a - form_b) <= 1e-13
    assert abs(v - form_a) <= 1e-13
    assert math.isclose(v, VARDI_CONSTANT, rel_tol=1e-12)


def test_vardi_constant_from_delta_at_zero():
    # pi * (delta(0)/2 + ln(pi)/2) collapses to the same constant.
    expected = math.pi * (0.5 * delta_closed(0.0) + 0.5 * math.log(math.pi))
    assert abs(vardi_b_constant() - expected) <= 1e-13


def test_malmsten_c_reduces_to_vardi():
    v = vardi_b_constant()
    assert abs(malmsten_c(MalmstenParams(1.0, 1.0)) - v) <= 1e-15
    for c in (0.3, 2.0, 7.0):
        assert math.isclose(malmsten_c(MalmstenParams(c, c)), v / c, rel_tol=1e-14, abs_tol=1e-15)


def test_malmsten_c_known_shift():
    expected = vardi_b_constant() + 0.5 * math.pi * math.log(4.0)
    assert abs(malmsten_c(MalmstenParams(4.0, 1.0)) - expected) <= 1e-13


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-2, max_value=1e2),
    st.floats(min_value=1e-2, max_value=1e2),
)
@example(a=760.1904353901714, lam=36.979223663414416, b=0.01)  # sides 3 ulps apart
@settings(max_examples=200)
def test_malmsten_c_scaling_law(a, lam, b):
    # The law is exact, so the sides differ by roundoff only; at b = 0.01
    # they reach thousands, where an absolute 1e-12 is a few ulps.
    lhs = malmsten_c(MalmstenParams(lam * a, b))
    rhs = malmsten_c(MalmstenParams(a, b)) + (math.pi / (2.0 * b)) * math.log(lam)
    assert math.isclose(lhs, rhs, rel_tol=1e-14, abs_tol=1e-12)


@pytest.mark.parametrize("b", [0.2, 1.0, 5.0])
@pytest.mark.parametrize("r", [0.5, 3.0])
def test_malmsten_c_b_scaling(r, b):
    # b * I(r*b, b) depends only on r.
    ref = malmsten_c(MalmstenParams(r, 1.0))
    assert math.isclose(b * malmsten_c(MalmstenParams(r * b, b)), ref, rel_tol=1e-13, abs_tol=1e-14)


def test_delta_derivative_half():
    assert math.isclose(delta_derivative(0.5), 2.0 * math.log(2.0), rel_tol=1e-13)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 8.0])
def test_delta_derivative_matches_central_difference(a):
    h = 1e-5
    fd = (delta_closed(a + h) - delta_closed(a - h)) / (2.0 * h)
    assert abs(delta_derivative(a) - fd) <= 1e-6


def test_delta_derivative_positive_and_decreasing():
    grid = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
    values = [delta_derivative(a) for a in grid]
    assert all(v > 0.0 for v in values)
    assert all(x > y for x, y in zip(values, values[1:]))


def test_delta_derivative_approaches_inverse():
    # d/da delta(a) -> 1/a for large a.
    for a in (50.0, 200.0):
        assert math.isclose(delta_derivative(a), 1.0 / a, rel_tol=1e-3)


def test_domain_rejection():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            delta_closed(bad)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            delta_derivative(bad)
    for a, b in ((0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0), (float("nan"), 1.0), (1.0, float("inf"))):
        with pytest.raises(ValueError):
            MalmstenParams(a, b)
    # Values float() rejects get the same message, not a TypeError.
    with pytest.raises(ValueError, match=r"^a must be a positive finite real, got None$"):
        MalmstenParams(None, 1.0)
    with pytest.raises(ValueError, match=r"^b must be a positive finite real, got 'x'$"):
        MalmstenParams(1.0, "x")
    with pytest.raises(ValueError, match=r"^a must be a finite real, got None$"):
        delta_closed(None)


def test_params_coerce_to_float():
    p = MalmstenParams(2, 3)
    assert isinstance(p.a, float) and p.a == 2.0
    assert isinstance(p.b, float) and p.b == 3.0
