"""Quadrature results against a multi-precision oracle.

A fixed, seeded set of the integrals the identity chain relies on is
integrated at four tolerances.  Every result that claims convergence must
be within its own error_estimate of the exact value and within the
tolerance it was asked for.  The exact values are the closed forms
evaluated in mpmath with 50 working digits, taken from the benchmark's
oracle (bench/oracle.py); only the mathematics is shared with the
library.  The set includes the regions where estimates used to fall
short: the z-domain form just above a = 0.02, at both ends of the a
range check_z_domain accepts, and malmsten_c with a small b, whose
integrand spreads far out before it decays.  The z-domain cases at the
ends of that range must also converge at every tolerance.  So must
the chain's integrands in the scale its checks integrate them in (delta
in y = pi x, the c integral at b = 1 for a from 1e-300 to 1e300, and
the sech-cosine transform for t up to 35), and two integrands that
decay only algebraically, 1/(1+x^2) and x^(-1/2)/(1+x).  One delta
case outside the set converges outside its estimate, and one c case
converges far outside it below abs_tol; both are kept as strict
expected failures until the stopping rule mends them.

The closed forms delta_closed and delta_derivative, and the digamma
combination behind the p_integral step, are checked the same way over
the whole range of |a| they accept, with working digits that grow with
the cancellation in their references, and so are both sides of the
alternating-series step over the mu it accepts and the t-domain form of
delta(a) - ln a, in the scale its step integrates it in.  The digamma
combination is also swept densely over (0, 2.5], where its kernel is a
fitted polynomial, and the p_integral step is checked at a whose nodes
straddle the kernel's edges.  ln_gamma is swept over the x it accepts,
densely next to its zeros at x = 1 and 2, and digamma likewise next to
its zero at x = 1.4616....  The constant ln(2 pi^{3/2} / Gamma(1/4)^2)
behind malmsten_c must be the double nearest its value.
"""

import importlib.util
import math
import random
import sys
from pathlib import Path

import pytest

from malmsten import closedform, proofchain
from malmsten.closedform import (MalmstenParams, delta_closed, delta_derivative, malmsten_c,
                                 vardi_b_constant)
from malmsten.quad import ToleranceSpec, integrate_finite, integrate_semi_infinite
from malmsten.specfun import _digamma_quartet, digamma, ln_gamma

mpmath = pytest.importorskip("mpmath")

REL_TOLS = (1e-6, 1e-9, 1e-12, 1e-14)
_DPS = 50


def _load_oracle():
    """The benchmark's oracle module, whose closed forms these tests share."""
    path = Path(__file__).parent.parent / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_ORACLE = _load_oracle()
_delta = _ORACLE._delta            # delta(a) in mpmath
_malmsten_c = _ORACLE._malmsten_c  # C(a, b) in mpmath


def _log_uniform(rng, n, lo, hi):
    """One log-uniform draw from each of n equal strata of [lo, hi]."""
    width = (math.log10(hi) - math.log10(lo)) / n
    return [10.0 ** (math.log10(lo) + width * (k + rng.random())) for k in range(n)]


def _log_spaced(n, lo, hi):
    """n points from lo to hi, both included, equally spaced in log."""
    step = (math.log10(hi) - math.log10(lo)) / (n - 1)
    return [10.0 ** (math.log10(lo) + step * k) for k in range(n)]


# z-domain a at both ends of the range check_z_domain accepts: just above
# SMALL_A_CUTOFF, where the z**(2a-1) mass crowds z = 0, and large, where
# it sits within 1/(2a) of z = 1.
Z_DOMAIN_EDGE_A = _log_spaced(24, 1.001e-3, 0.012) + _log_spaced(24, 1e3, 1e12)


def _z_domain_case(a):
    f = proofchain._z_domain_integrand(a)
    return (f"z_domain a={a!r}",
            lambda tol, f=f: integrate_finite(f, 0.0, 1.0, tol),
            _delta(a) - mpmath.log(a))


def _cases():
    """(label, integrate() -> QuadratureResult given a ToleranceSpec, exact value)."""
    rng = random.Random(1)
    cases = []
    for k, a in enumerate(_log_uniform(rng, 40, 1e-3, 1e2)):
        a = a if k % 2 else -a
        cases.append((f"delta a={a!r}",
                      lambda tol, f=proofchain.delta_integrand(a): integrate_semi_infinite(f, tol),
                      _delta(a)))
    cases.append(("vardi", lambda tol: integrate_semi_infinite(proofchain.vardi_b_integrand(), tol),
                  _malmsten_c(1, 1)))
    pairs = []
    for n, b_range in ((64, (1e-2, 1e2)), (12, (0.01, 0.04))):
        bs = _log_uniform(rng, n, *b_range)
        rng.shuffle(bs)
        pairs += zip(_log_uniform(rng, n, 1e-3, 1e3), bs)
    for a, b in pairs:
        f = proofchain.malmsten_c_integrand(MalmstenParams(a, b))
        cases.append((f"c a={a!r} b={b!r}",
                      lambda tol, f=f: integrate_semi_infinite(f, tol),
                      _malmsten_c(a, b)))
    zs = _log_uniform(rng, 40, 0.02, 20.0) + _log_uniform(rng, 12, 0.0202, 0.022)
    cases += [_z_domain_case(a) for a in zs + Z_DOMAIN_EDGE_A]
    # Integrands that decay like x^-2 and x^-3/2, which the semi-infinite
    # transform must still integrate: its e^(t-c) term makes their tails
    # decay double-exponentially in t.
    cases += [
        ("1/(1+x^2)", lambda tol: integrate_semi_infinite(lambda x: 1.0 / (1.0 + x * x), tol),
         mpmath.pi / 2),
        ("x^-1/2/(1+x)",
         lambda tol: integrate_semi_infinite(lambda x: x ** -0.5 / (1.0 + x), tol), mpmath.pi),
    ]
    return cases + _scaled_chain_cases(rng)


def _scaled_chain_cases(rng):
    """The chain's integrands in the scale its checks integrate them in:
    delta_quadrature in y = pi x and c_quadrature at b = 1, and the
    sech-cosine transform over the t the step keeps at its default tol."""
    cases = []
    for k, a in enumerate([0.0] + _log_uniform(rng, 24, 1e-3, 1e12)):
        a = a if k % 2 else -a
        f = proofchain._delta_scaled_integrand(a)
        cases.append((f"delta scaled a={a!r}",
                      lambda tol, f=f: integrate_semi_infinite(f, tol), mpmath.pi * _delta(a)))
    for a in _log_uniform(rng, 32, 1e-300, 1e300):
        f = proofchain._c_integrand(a)
        cases.append((f"c b=1 a={a!r}",
                      lambda tol, f=f: integrate_semi_infinite(f, tol), _malmsten_c(a, 1)))
    for t in [0.0] + _log_uniform(rng, 24, 1e-2, 35.0):
        f = proofchain._sech_cosine_integrand(t)
        cases.append((f"sech_cosine t={t!r}",
                      lambda tol, f=f: integrate_semi_infinite(f, tol),
                      mpmath.sech(mpmath.mpf(t) / 2) / 2))
    return cases


def test_converged_results_are_within_estimate_and_tolerance():
    bad = []
    converged = 0
    with mpmath.workdps(_DPS):
        for label, integrate, exact in _cases():
            for rel_tol in REL_TOLS:
                tol = ToleranceSpec(rel_tol=rel_tol)
                res = integrate(tol)
                if not res.converged:
                    continue
                converged += 1
                err = float(abs(mpmath.mpf(res.value) - exact))
                bound = max(tol.abs_tol, rel_tol * float(abs(exact)))
                if not err <= min(res.error_estimate, bound):
                    bad.append((label, rel_tol, res.value, err, res.error_estimate, bound))
    assert converged > 600
    assert not bad, bad


# A delta case the seeded set above does not meet, from the benchmark's
# quad pool: its last two levels agree within rel_tol, yet its value is
# 1.15 times its estimate away from the integral.  It passes once the
# stopping rule is honest here (ROADMAP item 3).
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: converges 1.65e-6 off with error_estimate 1.44e-6")
def test_delta_integrand_converges_within_its_estimate():
    a = -0.01025236128095408
    res = integrate_semi_infinite(proofchain.delta_integrand(a), ToleranceSpec(rel_tol=1e-6))
    with mpmath.workdps(_DPS):
        err = float(abs(mpmath.mpf(res.value) - _delta(a)))
    assert err <= res.error_estimate, (res, err)


# A c case whose whole integral lies below abs_tol = 1e-15: levels 0 and
# 1 agree at once on a value 1,111 times the estimate away from the
# integral.  Unlike the delta case above, no rel_tol mends it; it passes
# once the stopping rule is honest below abs_tol (ROADMAP item 3).
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: converges after 31 calls on -5.58e-19 with "
                          "error_estimate 5.58e-19; the integral is -6.2008e-16")
def test_c_integrand_below_abs_tol_converges_within_its_estimate():
    res = integrate_semi_infinite(proofchain.malmsten_c_integrand(MalmstenParams(1.0, 1e17)))
    with mpmath.workdps(_DPS):
        err = float(abs(mpmath.mpf(res.value) - _malmsten_c(1, 1e17)))
    assert err <= res.error_estimate, (res, err)


def test_z_domain_converges_on_its_whole_range():
    failed = [(a, rel_tol) for a in Z_DOMAIN_EDGE_A for rel_tol in REL_TOLS
              if not integrate_finite(proofchain._z_domain_integrand(a), 0.0, 1.0,
                                      ToleranceSpec(rel_tol=rel_tol)).converged]
    assert not failed, failed


def _digits(x):
    """Working digits that keep 40 after the cancellation between the
    ln Gamma or psi terms of a reference, which grows like log10 |x|."""
    return 40 + max(0, int(math.log10(abs(x))))


# |a| over the whole range the closed forms accept.
CLOSED_FORM_A = _log_spaced(121, 1e-300, 1e300) + [1.7e308]


def test_delta_closed_on_its_whole_domain():
    bad = []
    for a in CLOSED_FORM_A:
        with mpmath.workdps(_digits(a)):
            ref = _delta(a)
            err = float(abs(mpmath.mpf(delta_closed(a)) - ref))
        if not err <= 4e-15 * max(float(abs(ref)), 1.0):
            bad.append((a, err, float(ref)))
    assert not bad, bad


def test_delta_derivative_on_its_whole_domain():
    bad = []
    for a in CLOSED_FORM_A:
        with mpmath.workdps(_digits(a)):
            s = mpmath.mpf(a) / 2
            ref = mpmath.digamma(s + 0.75) - mpmath.digamma(s + 0.25)
            err = float(abs(mpmath.mpf(delta_derivative(a)) - ref))
        if not err <= 2e-15 * float(ref):
            bad.append((a, err, float(ref)))
    assert not bad, bad


# mu over the whole range check_alt_series_digamma accepts, every half
# decade, so 100 and 1e15 are among them.
ALT_SERIES_MU = [sys.float_info.min] + _log_spaced(1229, 1e-307, 1e307) + [1.7e308]


def test_alt_series_digamma_on_its_whole_domain():
    # The series side is within max(tol/10, 8 eps) relative at every mu,
    # its term count fixed by tol; the closed side within 4 eps.
    eps = sys.float_info.epsilon
    bad = []
    for mu in ALT_SERIES_MU:
        with mpmath.workdps(_digits(mu)):
            m = mpmath.mpf(mu)
            ref = (mpmath.digamma((m + 1) / 2) - mpmath.digamma(m / 2)) / 2
            for tol in (1e-4, 1e-8, 1e-14):
                rep = proofchain.check_alt_series_digamma(mu, tol)
                lhs_err = float(abs(mpmath.mpf(rep.lhs) / ref - 1))
                rhs_err = float(abs(mpmath.mpf(rep.rhs) / ref - 1))
                if not (rep.passed and lhs_err <= max(tol / 10, 8 * eps)
                        and rhs_err <= 4 * eps):
                    bad.append((mu, tol, lhs_err, rhs_err, rep.passed))
    assert not bad, bad


# ln(x)/cosh(x) integrated to 20 digits, frozen as in the acceptance tests.
VARDI_CONSTANT = -0.52088561260197689108


def test_malmsten_constant_is_correctly_rounded():
    # K = ln(2 pi^{3/2} / Gamma(1/4)^2) is written once, as the double
    # nearest its exact value, so the a = b = 1 integral is pi K to within
    # one rounding.
    assert abs(vardi_b_constant() - VARDI_CONSTANT) <= math.ulp(VARDI_CONSTANT)
    with mpmath.workdps(_DPS):
        k = mpmath.log(2 * mpmath.pi ** 1.5 / mpmath.gamma(0.25) ** 2)
        assert closedform._K == float(k)


@pytest.mark.parametrize("a, b", [(1e-308, 1e-308), (2e-308, 1e-308), (3e-309, 3e-309),
                                  (5e-309, 1e-308)])
def test_malmsten_c_below_pi_over_dbl_max(a, b):
    # pi/b overflows below b = 1.7476e-308, yet the integral stays finite
    # down to about 2.9e-309 at a = b: -5.2e307 at a = b = 1e-308.  The
    # error bound is the docstring's: 3 eps of the largest logarithm,
    # here |ln b|/2, times pi/b.
    with mpmath.workdps(_DPS):
        ref = _malmsten_c(a, b)
        err = abs(mpmath.mpf(malmsten_c(MalmstenParams(a, b))) - ref)
        bound = 3 * sys.float_info.epsilon * abs(mpmath.log(b)) / 2 * mpmath.pi / b
    assert err <= bound, (float(err), float(bound))


def _quartet(x):
    x = mpmath.mpf(x)
    return (mpmath.digamma(x) - mpmath.digamma(x + 0.5)
            - mpmath.digamma(x + 0.25) + mpmath.digamma(x + 0.75))


def test_digamma_quartet_kernel():
    bad = []
    for x in _log_spaced(91, 1e-6, 1e12):
        with mpmath.workdps(_digits(x * x)):
            ref = _quartet(x)
            err = float(abs((mpmath.mpf(_digamma_quartet(x)) - ref) / ref))
        if not err <= 2e-15:
            bad.append((x, err))
    assert not bad, bad


# Below x = 2 the kernel is a fitted polynomial, after one lift step below
# x = 1: 2,500 points in (0, 2.5] and the floats on both sides of each edge.
QUARTET_BRANCH_XS = ([k / 1000 for k in range(1, 2501)]
                     + [x for c in (1.0, 2.0)
                        for x in (math.nextafter(c, 0.0), c, math.nextafter(c, 3.0))])


def test_digamma_quartet_kernel_on_its_polynomial_branch():
    bad = []
    with mpmath.workdps(_DPS):
        for x in QUARTET_BRANCH_XS:
            ref = _quartet(x)
            err = float(abs((mpmath.mpf(_digamma_quartet(x)) - ref) / ref))
            if not err <= 1e-15:
                bad.append((x, err))
    assert not bad, bad


def test_ln_gamma_on_its_whole_domain():
    # Past about 2.55e305 ln Gamma(x) overflows; the bound is absolute next
    # to the zeros at x = 1 and 2, where no relative bound can hold.
    rng = random.Random(2)
    xs = _log_uniform(rng, 400, 1e-300, 2.5e305)
    xs += [c + rng.uniform(-0.05, 0.05) for c in (1.0, 2.0) for _ in range(1000)]
    # Values from the benchmark's closed pools that a Stirling-series
    # ln_gamma got 2e-15 to 5e-15 wrong, failing its closed-form rule.
    xs += [2.008501017103773, 0.999586967842783, 1.0012211387983827]
    bad = []
    with mpmath.workdps(_DPS):
        for x in xs:
            ref = mpmath.loggamma(x)
            err = float(abs(mpmath.mpf(ln_gamma(x)) - ref))
            if not err <= 2e-15 * max(float(abs(ref)), 1.0):
                bad.append((x, err, float(ref)))
    assert not bad, bad
    assert ln_gamma(1e308) == math.inf


def test_digamma_on_its_whole_domain():
    # Below about 5.56e-309 psi(x) ~ -1/x overflows; the bound is absolute
    # next to the zero at x = 1.4616..., where no relative bound can hold.
    rng = random.Random(3)
    xs = _log_uniform(rng, 2000, 5.6e-309, 1.7e308) + [sys.float_info.max]
    xs += [1.4616321449683622 + rng.uniform(-0.05, 0.05) for _ in range(1000)]
    xs += [rng.uniform(0.0, 12.0) for _ in range(1000)]
    bad = []
    with mpmath.workdps(_DPS):
        for x in xs:
            ref = mpmath.digamma(x)
            err = float(abs(mpmath.mpf(digamma(x)) - ref))
            if not err <= 1.5e-15 * max(float(abs(ref)), 1.0):
                bad.append((x, err, float(ref)))
    assert not bad, bad
    assert digamma(5.5e-309) == -math.inf


# At tol 1e-14 the step's quadrature runs at quad.DEFAULT_TOLERANCE, so
# these bounds measure the Q kernel, not a tolerance derived from a looser
# tol.  At a = 1e6 that quadrature stops after 31 evaluations, once two
# levels agree within its abs_tol of 1e-15; with the integrand evaluated
# exactly it returns the same value, 3.7e-14 relative off.
def _p_integral_rel_err(report, a):
    """report.lhs's error relative to the p integral at a, whose
    antiderivative is a bracket of ln Gamma values."""
    with mpmath.workdps(_digits(a)):
        lo, hi = mpmath.mpf(a) / 2, mpmath.mpf(a) / 2 + 0.25

        def bracket(p):
            x, y = lo + p / 4, hi + p / 4
            return (mpmath.loggamma(x) - mpmath.loggamma(x + 0.5)
                    + mpmath.loggamma(y + 0.5) - mpmath.loggamma(y))

        ref = bracket(0) - bracket(1)
        return float(abs((mpmath.mpf(report.lhs) - ref) / ref))


@pytest.mark.parametrize("a, rel", [(1.0, 1e-14), (100.0, 1e-14), (1e4, 1e-14), (1e6, 1e-13)])
def test_p_integral_quadrature_side(a, rel):
    assert _p_integral_rel_err(proofchain.check_p_integral(a, tol=1e-14), a) <= rel


# The step's nodes x = a/2 + p/4 straddle the Q kernel's edge at x = 1
# (one lift step below it) at a = 1.9, and its edge at x = 2 (the
# polynomial below it, the lift to 10 and the series above) at a = 3.9.
# Each converges within the bound above after as many evaluations as when
# the kernel lifted every x below 10.
@pytest.mark.parametrize("a, evaluations", [(1.9, 117), (3.9, 60)])
def test_p_integral_across_the_quartet_kernel_edges(a, evaluations):
    report = proofchain.check_p_integral(a, tol=1e-14)
    assert report.passed and not report.note
    assert _p_integral_rel_err(report, a) <= 1e-14
    assert report.evaluations == evaluations


@pytest.mark.parametrize("a", [2e-3, 1.0, 1e3, 1e6, 1e12])
def test_t_domain_in_its_natural_scale(a):
    # In y = |a| t the mass sits near y = 1 for every a, so the cost must
    # not grow with a as it does in t, where the mass sits near 1/|a|.
    res = integrate_semi_infinite(proofchain._t_domain_integrand(a),
                                  ToleranceSpec(rel_tol=1e-12, abs_tol=1e-300))
    with mpmath.workdps(_digits(a * a)):
        ref = _delta(a) - mpmath.log(a)
        err = float(abs((mpmath.mpf(res.value) - ref) / ref))
    assert res.converged
    assert err <= 1e-14
    assert res.evaluations <= 250
