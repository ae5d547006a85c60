"""Quadrature results against a multi-precision oracle.

A fixed, seeded set of the integrals the identity chain relies on is
integrated at four tolerances.  Every result that claims convergence must
be within its own error_estimate of the exact value and within the
tolerance it was asked for.  The exact values are the closed forms
evaluated in mpmath with 50 working digits; only the mathematics is
shared with the library.  The set includes the regions where estimates
used to fall short: the z-domain form just above a = 0.02, at both ends
of the a range check_z_domain accepts, and malmsten_c with a small b,
whose integrand spreads far out before it decays.  The z-domain cases at
the ends of that range must also converge at every tolerance.

The closed forms delta_closed and delta_derivative, and the digamma
combination behind the p_integral step, are checked the same way over
the whole range of |a| they accept, with working digits that grow with
the cancellation in their references.  ln_gamma is swept over the x it
accepts, densely next to its zeros at x = 1 and 2, and digamma likewise
next to its zero at x = 1.4616....
"""

import math
import random
import sys

import pytest

from malmsten import proofchain
from malmsten.closedform import MalmstenParams, delta_closed, delta_derivative
from malmsten.quad import ToleranceSpec, integrate_finite, integrate_semi_infinite
from malmsten.specfun import _digamma_quartet, digamma, ln_gamma

mpmath = pytest.importorskip("mpmath")

REL_TOLS = (1e-6, 1e-9, 1e-12, 1e-14)
_DPS = 50


def _delta(a):
    s = abs(mpmath.mpf(a)) / 2
    return 2 * (mpmath.log(mpmath.sqrt(2)) + mpmath.loggamma(s + 0.75)
                - mpmath.loggamma(s + 0.25))


def _malmsten_c(a, b):
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    return (mpmath.pi / b) * (mpmath.log(2) + mpmath.log(a) / 2 - mpmath.log(b) / 2
                              + 1.5 * mpmath.log(mpmath.pi) - 2 * mpmath.loggamma(0.25))


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
@pytest.mark.parametrize("a, rel", [(1.0, 1e-14), (100.0, 1e-14), (1e4, 1e-14), (1e6, 1e-13)])
def test_p_integral_quadrature_side(a, rel):
    with mpmath.workdps(_digits(a)):
        lo, hi = mpmath.mpf(a) / 2, mpmath.mpf(a) / 2 + 0.25

        def bracket(p):
            x, y = lo + p / 4, hi + p / 4
            return (mpmath.loggamma(x) - mpmath.loggamma(x + 0.5)
                    + mpmath.loggamma(y + 0.5) - mpmath.loggamma(y))

        ref = bracket(0) - bracket(1)
        err = float(abs((mpmath.mpf(proofchain.check_p_integral(a, tol=1e-14).lhs) - ref) / ref))
    assert err <= rel
