"""Tests for the log-gamma / digamma kernel.

Reference values were frozen from a 30-digit multi-precision run and are
cross-checked here through identities (reflection, recurrence, duplication)
that do not depend on how the series is summed.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malmsten import specfun
from malmsten.specfun import digamma, gamma_ratio_log, ln_gamma, sech

EULER_GAMMA = 0.5772156649015328606
LN_PI = math.log(math.pi)

# (x, ln_gamma(x), digamma(x)), frozen from a 30-digit run.  The grid
# straddles the recurrence-shift threshold at x = 10 on purpose.
ORACLE = [
    (0.001, 6.9071788853838536825, -1000.5755719318103005),
    (0.01, 4.5994798780420217225, -100.56088545786867450),
    (0.1, 2.2527126517342059599, -10.423754940411076795),
    (0.25, 1.2880225246980774574, -4.2274535333762654081),
    (0.5, 0.57236494292470008707, -1.9635100260214234794),
    (0.75, 0.20328095143129537148, -1.0858608797864721696),
    (1.5, -0.12078223763524522235, 0.036489973978576520559),
    (3.2, 0.88540482715490894595, 0.99883889128659958324),
    (7.99, 8.5050116060884806764, 2.0143092220462237711),
    (8.0, 8.5251613610654143002, 2.0156414779556099965),
    (12.5, 18.734347511936445702, 2.4851956512749120482),
    (123.456, 469.60554712992946873, 4.8118293238289853873),
    (5000.0, 37582.626315685350332, 8.5170931880829041067),
    (1000000.0, 12815504.569147611660, 13.815510057964190771),
]


@pytest.mark.parametrize("x,lg,dg", ORACLE)
def test_oracle_grid(x, lg, dg):
    assert math.isclose(ln_gamma(x), lg, rel_tol=1e-13, abs_tol=1e-13)
    assert math.isclose(digamma(x), dg, rel_tol=1e-12, abs_tol=1e-12)


def test_ln_gamma_integer_zeros():
    # Gamma(1) = Gamma(2) = 1, and the shift path must not smear that.
    assert abs(ln_gamma(1.0)) <= 1e-14
    assert abs(ln_gamma(2.0)) <= 1e-14


def test_ln_gamma_half():
    assert math.isclose(ln_gamma(0.5), 0.5 * LN_PI, rel_tol=1e-14)


def test_ln_gamma_quarter_reflection():
    # Gamma(1/4) * Gamma(3/4) = pi * sqrt(2)
    lhs = ln_gamma(0.25) + ln_gamma(0.75)
    assert math.isclose(lhs, math.log(math.pi * math.sqrt(2.0)), rel_tol=1e-14)


def test_digamma_one_is_minus_euler_gamma():
    assert math.isclose(digamma(1.0), -EULER_GAMMA, rel_tol=1e-13)


def test_digamma_half():
    assert math.isclose(digamma(0.5), -EULER_GAMMA - 2.0 * math.log(2.0), rel_tol=1e-13)


@given(st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=200)
def test_ln_gamma_reflection(x):
    lhs = ln_gamma(x) + ln_gamma(1.0 - x)
    rhs = LN_PI - math.log(math.sin(math.pi * x))
    assert abs(lhs - rhs) <= 1e-12


@given(st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=200)
def test_ln_gamma_recurrence(x):
    # ln Gamma(x+1) = ln Gamma(x) + ln x.  Small absolute floor covers the
    # neighbourhood of the zeros at x+1 in {1, 2}.
    lhs = ln_gamma(x + 1.0)
    rhs = ln_gamma(x) + math.log(x)
    assert math.isclose(lhs, rhs, rel_tol=1e-13, abs_tol=1e-13)


@given(st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=200)
def test_digamma_recurrence(x):
    assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) <= 1e-13


def test_ln_gamma_duplication():
    # ln Gamma(2x) = ln Gamma(x) + ln Gamma(x + 1/2) + (2x-1) ln 2 - ln(pi)/2
    for x in (0.3, 0.75, 1.0, 4.2, 9.99, 40.0):
        lhs = ln_gamma(2.0 * x)
        rhs = ln_gamma(x) + ln_gamma(x + 0.5) + (2.0 * x - 1.0) * math.log(2.0) - 0.5 * LN_PI
        assert math.isclose(lhs, rhs, rel_tol=1e-13, abs_tol=1e-13)


@pytest.mark.parametrize("x", [0.5, 0.9, 1.5, 3.0, 7.7, 12.0, 25.0, 50.0])
def test_digamma_is_ln_gamma_derivative(x):
    h = 1e-5
    fd = (ln_gamma(x + h) - ln_gamma(x - h)) / (2.0 * h)
    assert abs(fd - digamma(x)) <= 1e-6


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-6, max_value=10.0),
)
@settings(max_examples=200)
def test_digamma_strictly_increasing(x, gap):
    assert digamma(x) < digamma(x + gap)


def test_gamma_ratio_log_cancellation():
    assert gamma_ratio_log(1.0, 1.0) == 0.0
    assert gamma_ratio_log(123.456, 123.456) == 0.0
    assert abs(gamma_ratio_log(2.0, 1.0)) <= 1e-15


def test_gamma_ratio_log_quarters():
    # Gamma(3/4)/Gamma(1/4) = pi sqrt(2) / Gamma(1/4)^2
    expected = math.log(math.pi * math.sqrt(2.0)) - 2.0 * ln_gamma(0.25)
    assert math.isclose(gamma_ratio_log(0.75, 0.25), expected, rel_tol=1e-13)


def test_gamma_ratio_log_large_arguments():
    # Gamma(1e6) overflows a double; the log of the ratio must not.
    v = gamma_ratio_log(1e6, 2.0)
    assert math.isfinite(v)
    assert math.isclose(v, 12815504.569147611660, rel_tol=1e-13)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_domain_rejection(bad):
    with pytest.raises(ValueError):
        ln_gamma(bad)
    with pytest.raises(ValueError):
        digamma(bad)
    with pytest.raises(ValueError):
        gamma_ratio_log(bad, 1.0)
    with pytest.raises(ValueError):
        gamma_ratio_log(1.0, bad)


@pytest.mark.parametrize("bad", [None, "abc", 1j, 10**400], ids=["None", "str", "complex", "huge_int"])
def test_non_numeric_input_is_a_value_error(bad):
    # What float() itself rejects gets the package's message, not float()'s.
    for fn in (ln_gamma, digamma):
        with pytest.raises(ValueError, match=r"^argument must be a positive finite real, got "):
            fn(bad)


def test_sech_basics():
    assert sech(0.0) == 1.0
    assert math.isclose(sech(1.0), 1.0 / math.cosh(1.0), rel_tol=1e-15)
    assert sech(-3.0) == sech(3.0)
    # cosh(1000) overflows; sech(1000) must quietly underflow instead.
    assert sech(1000.0) == 0.0


def _bernoulli_numbers(n):
    """B_0..B_n (B_1 = -1/2) from sum_{k<=m} C(m+1, k) B_k = 0."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


_BERNOULLI = _bernoulli_numbers(30)


def _bernoulli_poly(n, x):
    return sum(math.comb(n, k) * _BERNOULLI[k] * x ** (n - k) for k in range(n + 1))


def _quarter_diff(k):
    return _bernoulli_poly(k, Fraction(3, 4)) - _bernoulli_poly(k, Fraction(1, 4))


def _eighth_quartet(k):
    return sum(sign * _bernoulli_poly(k, Fraction(n, 8))
               for sign, n in ((1, 1), (-1, 5), (-1, 3), (1, 7)))


# (coefficients, kernel, first k, k -> coefficient of z^-power(k) in the
# DLMF 5.11.8 expansion, power, z - argument) for the three kernels.  Q is
# expanded in w = x - 1/8: psi(x + h) = psi(w + 1/8 + h).
KERNEL_SERIES = {
    "lgamma_ratio": (specfun._LGAMMA_RATIO_COEFFS, specfun._lgamma_ratio, 3,
                     lambda k: (-1) ** k * _quarter_diff(k) / (k * (k - 1)),
                     lambda k: k - 1, 0),
    "digamma_diff": (specfun._DIGAMMA_DIFF_COEFFS, specfun._digamma_diff, 3,
                     lambda k: (-1) ** (k + 1) * _quarter_diff(k) / k,
                     lambda k: k, 0),
    "digamma_quartet": (specfun._DIGAMMA_QUARTET_COEFFS, specfun._digamma_quartet, 2,
                        lambda k: (-1) ** (k + 1) * _eighth_quartet(k) / k,
                        lambda k: k, -Fraction(1, 8)),
}


@pytest.mark.parametrize("name", KERNEL_SERIES)
def test_kernel_coefficients_are_their_rationals(name):
    coeffs, kernel, first, exact, power, shift = KERNEL_SERIES[name]
    ks = range(first, first + 2 * len(coeffs) + 1, 2)
    rationals = [exact(k) for k in ks]
    # Each literal is the float nearest its rational, and the terms in
    # between vanish because the shifts are symmetric about 1/2.
    assert list(coeffs) == [float(r) for r in rationals[:-1]]
    assert exact(first - 1) == 0 and all(exact(k + 1) == 0 for k in ks)
    # The first omitted term, at the lift threshold, is below 2^-56 of the
    # kernel's value there.
    z = Fraction(specfun._LIFT_THRESHOLD) + shift
    assert abs(rationals[-1]) / z ** power(ks[-1]) < 2.0 ** -56 * abs(kernel(specfun._LIFT_THRESHOLD))


def test_kernels_match_the_public_functions():
    # Where the public functions lose few digits to cancellation, the
    # kernels agree with their differences.
    for x in (0.01, 0.3, 1.0, 2.5, 9.99, 10.0, 37.5):
        assert math.isclose(specfun._lgamma_ratio(x), gamma_ratio_log(x + 0.75, x + 0.25),
                            rel_tol=1e-13, abs_tol=1e-14)
        assert math.isclose(specfun._digamma_diff(x), digamma(x + 0.75) - digamma(x + 0.25),
                            rel_tol=1e-13)
        assert math.isclose(specfun._digamma_quartet(x),
                            digamma(x) - digamma(x + 0.5) - digamma(x + 0.25) + digamma(x + 0.75),
                            rel_tol=1e-13, abs_tol=1e-14)
