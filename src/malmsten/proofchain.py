"""Numerical verification of the identity chain behind the closed forms.

Each check_* function states one identity with a closed-form side and
an independently computed side (double-exponential quadrature or a
directly summed series), and returns an IdentityReport with both
values, their absolute and relative discrepancies, and a pass flag.
run_full_chain applies every applicable check over a grid of a values,
in derivation order, and aggregates the reports.

A failed quadrature never raises out of a check: the report comes back
with passed=False and a diagnostic note.  Grid entries that violate a
check's precondition are skipped and recorded as such.

A check that integrates states its integrand, interval and closed side;
_quadrature_check runs it, and _quadrature_tolerance, which it calls,
is the one home of the tolerance rule: rel_tol and abs_tol are both
1e-2 * tol, never below quad.DEFAULT_TOLERANCE's (1e-12 and 1e-15), so
at tol <= 1e-13 every quadrature runs exactly as with the defaults.
The engine stops once two levels agree within max(abs_tol,
rel_tol * |value|), the same either-or shape as a check's
abs_err <= tol or rel_err <= tol, so the 1e-2 margin leaves the
quadrature a hundredth of the residual the check allows.  A looser
quadrature can only make a step fail, never pass a wrong identity: the
other side is computed independently, so a quadrature error hides a
discrepancy only by happening to cancel it, and while its level
difference is honest it moves the residual by at most about that
hundredth of tol.  A quadrature that does not converge at the looser
tolerance fails its step.

Every quadrature integrates exactly the lhs its check reports, so the
one rule applies to that lhs.  Each (0, inf) quadrature integrates a
per-call factor f over a weight that depends on the node alone (sech(x),
sech(pi x), e^{-y} or the arctan kernel), which the engine folds into
cached node tables; the factories below give each pair.  Two checks
integrate in y = s x, where the integrand decays like e^{-y} as the
semi-infinite transform expects: delta_quadrature (s = pi), whose f
carries the 1/pi of dx = dy/pi, and t_domain (s = |a|, t for x), where
dt/t = dy/y.

run_full_chain looks each check up by its module-level name at call
time, never through a reference captured at import, and
_quadrature_check does the same for the two engines, so replacing
proofchain.check_<step> or proofchain.integrate_* (a test's rigged
check or fake engine, a benchmark's timing wrapper) changes what runs.
"""

import functools
import math
import sys
from collections import namedtuple
from collections.abc import Callable, Sequence

from .closedform import MalmstenParams, delta_closed, malmsten_c, vardi_b_constant
from .quad import DEFAULT_TOLERANCE, ToleranceSpec, integrate_finite, integrate_semi_infinite
# digamma and gamma_ratio_log are not called here; bench/tracing.py patches
# them on this module.
from .specfun import (_checked_real, _digamma_diff, _digamma_quartet, digamma, gamma_ratio_log,
                      sech)

__all__ = [
    "DEFAULT_TOL",
    "SMALL_A_CUTOFF",
    "IdentityReport",
    "SkippedStep",
    "ChainReport",
    "delta_integrand",
    "vardi_b_integrand",
    "malmsten_c_integrand",
    "check_delta_quadrature",
    "check_arctan_kernel",
    "check_sech_cosine_transform",
    "check_t_domain",
    "check_z_domain",
    "check_alt_series_digamma",
    "check_p_integral",
    "check_b_reduction",
    "check_c_quadrature",
    "run_full_chain",
]

DEFAULT_TOL = 1e-8
# t_domain and z_domain reject |a| at or below this.  At DEFAULT_TOLERANCE
# t_domain converges honestly at a = 1e-12, and z_domain at 1e-6 but not
# 1e-9 (29,382 calls); at DEFAULT_TOL's quadrature tolerance z_domain
# converges at 1e-9 (921 calls, 8.9e-11 relative off) and fails from
# 1e-12.  The cutoff keeps a wide margin.
SMALL_A_CUTOFF = 1e-3

_TOL_FLOOR = 1e-14
_CVZ_RATE = 3.0 + math.sqrt(8.0)  # alt_series_digamma's error falls by this per term
_QUAD_MARGIN = 1e-2  # a check's quadratures stop at this fraction of its tol


class IdentityReport(namedtuple("IdentityReport",
                                "name params lhs rhs abs_err rel_err tol passed evaluations note",
                                defaults=(0, ""))):
    """Outcome of one identity check.

    lhs is the side the check computes, a quadrature or a directly
    summed series, and rhs is its closed form.  abs_err is exactly
    abs(lhs - rhs); rel_err is abs_err scaled by the larger magnitude of
    the two sides (zero when both sides vanish).  passed requires
    abs_err <= tol or rel_err <= tol, and additionally that every
    quadrature involved converged; a non-converged check is never
    reported as passing, whatever the residual happens to be.
    evaluations counts the integrand calls of its quadratures, or the
    series terms it summed.  note is empty unless a quadrature did not
    converge; b_reduction's always lists its sub-identities' residuals.
    """

    __slots__ = ()


class SkippedStep(namedtuple("SkippedStep", "name params reason")):
    """A check that run_full_chain did not run at one grid point.

    name is the step's name as in IdentityReport, params the argument it
    would have run at (a, t or mu), and reason the message of the
    ValueError that ruled it out.
    """

    __slots__ = ()


class ChainReport(namedtuple("ChainReport", "steps skipped overall_pass total_evaluations")):
    """Outcome of run_full_chain.

    steps holds an IdentityReport per check run, and skipped a
    SkippedStep per check not run, both in run order.  overall_pass is
    True when every step passed.  total_evaluations is the sum of the
    steps' evaluations: integrand calls of the quadrature steps and
    series terms of alt_series_digamma.
    """

    __slots__ = ()


def _build_report(name: str, params: dict, lhs: float, rhs: float, tol: float,
                  evaluations: int = 0, converged: bool = True) -> IdentityReport:
    abs_err = abs(lhs - rhs)
    denom = max(abs(lhs), abs(rhs))
    rel_err = abs_err / denom if denom > 0.0 else 0.0
    passed = converged and (abs_err <= tol or rel_err <= tol)
    note = "" if converged else "quadrature did not converge"
    return IdentityReport(name, params, lhs, rhs, abs_err, rel_err, tol,
                          passed, evaluations, note)


@functools.lru_cache(maxsize=8)
def _quadrature_tolerance(tol: float) -> ToleranceSpec:
    """The quadrature tolerance of a check at tol, built once per tol:
    a chain asks for it at every one of its quadratures."""
    return ToleranceSpec(rel_tol=max(_QUAD_MARGIN * tol, DEFAULT_TOLERANCE.rel_tol),
                         abs_tol=max(_QUAD_MARGIN * tol, DEFAULT_TOLERANCE.abs_tol))


def _quadrature_check(name: str, params: dict, integrand: Callable[[float], float],
                      closed: float, tol, interval: tuple | None = None,
                      weight: Callable[[float], float] | None = None) -> IdentityReport:
    """Report the integral of integrand over interval as the lhs against
    closed as the rhs; when interval is None, that of integrand * weight
    over (0, inf)."""
    tol = _checked_real(tol, "tol", floor=_TOL_FLOOR)
    qtol = _quadrature_tolerance(tol)
    if interval is None:
        res = integrate_semi_infinite(integrand, qtol, weight)
    else:
        res = integrate_finite(integrand, *interval, qtol)
    return _build_report(name, params, res.value, closed, tol, res.evaluations, res.converged)


def _delta_excess(a: float) -> float:
    """delta(a) - ln|a|, the closed side of the four routes that reach it."""
    return delta_closed(a) - math.log(abs(a))


# ---------------------------------------------------------------------------
# Integrand factories.  Shared with the command line driver, and written so
# no probe point the engine can reach produces an overflow or NaN.
#
# The public delta_integrand and malmsten_c_integrand write sech out as
# specfun.sech's own formula, e = exp(-|y|), 2 e / (1 + e^2), which gives
# the same bits and saves a function call per node; tests/test_proofchain.py
# pins both bitwise against sech.  Only delta_integrand keeps the abs,
# because a caller may pass x < 0; malmsten_c_integrand's ln x rejects
# x <= 0 first.
#
# The chain's own (0, inf) quadratures integrate f(x) * weight(x), where the
# weight depends on the node alone: sech(x), sech(pi x), e^{-y} or the
# arctan kernel.  The engine folds the weight into cached node tables, so
# the private factories below build f alone.  Each weight is one
# module-level function, which keys those tables.  None of them is a name
# bench/tracing.py wraps, so traced and untraced runs share the tables.

def delta_integrand(a: float) -> Callable[[float], float]:
    """ln(x^2 + a^2) / cosh(pi x), with ln(x^2+a^2) formed as
    2 ln hypot(x, a) so neither underflow nor overflow can corrupt it."""
    aa = abs(_checked_real(a, "a"))

    def f(x: float) -> float:
        e = math.exp(-abs(math.pi * x))
        return 2.0 * math.log(math.hypot(x, aa)) * (2.0 * e / (1.0 + e * e))

    return f


def malmsten_c_integrand(params: MalmstenParams) -> Callable[[float], float]:
    """ln(a x) / cosh(b x), with ln(a x) split as ln a + ln x.  ln x comes
    first, so x <= 0 raises math's ValueError as ln x alone does."""
    ln_a = math.log(params.a)
    b = params.b

    def f(x: float) -> float:
        ln_x = math.log(x)
        e = math.exp(-b * x)
        return (ln_a + ln_x) * (2.0 * e / (1.0 + e * e))

    return f


_LOG_SECH = malmsten_c_integrand(MalmstenParams(1.0, 1.0))


def vardi_b_integrand() -> Callable[[float], float]:
    """ln(x) / cosh(x): malmsten_c_integrand at a = b = 1, built once at
    import, so every call returns the same function."""
    return _LOG_SECH


_sech = sech  # specfun.sech, kept when proofchain.sech is replaced


def _sech_pi(x: float) -> float:
    """The weight sech(pi x)."""
    return _sech(math.pi * x)


def _exp_neg(y: float) -> float:
    """The weight e^{-y}."""
    return math.exp(-y)


def _arctan_weight(x: float) -> float:
    """The weight (4/pi) x arctan(e^{-pi x})."""
    return 4.0 / math.pi * x * math.atan(math.exp(-math.pi * x))


def _one(x: float) -> float:
    """f = 1: over the weight sech(x), the normalization int_0^inf sech."""
    return 1.0


def _log_integrand(a: float) -> Callable[[float], float]:
    """f = ln a + ln x over the weight sech(x): ln(a x) / cosh(x)."""
    ln_a = math.log(a)

    def f(x: float) -> float:
        return ln_a + math.log(x)

    return f


def _arctan_kernel_integrand(a: float) -> Callable[[float], float]:
    """f = 1 / (x^2 + a^2) over the weight (4/pi) x arctan(e^{-pi x})."""
    aa2 = a * a

    def f(x: float) -> float:
        return 1.0 / (x * x + aa2)

    return f


def _delta_scaled_integrand(a: float) -> Callable[[float], float]:
    """f = (2/pi) ln hypot(y/pi, a) over the weight sech(y): together
    ln((y/pi)^2 + a^2) / (pi cosh(y)), delta_integrand(a) at x = y/pi
    times dx/dy = 1/pi, so the weighted integral over (0, inf) is
    delta(a)."""
    aa = abs(a)
    two_over_pi = 2.0 / math.pi

    def f(y: float) -> float:
        return two_over_pi * math.log(math.hypot(y / math.pi, aa))

    return f


def _sech_cosine_integrand(t: float) -> Callable[[float], float]:
    """f = cos(t x) over the weight sech(pi x)."""

    def f(x: float) -> float:
        return math.cos(t * x)

    return f


def _t_domain_integrand(a: float) -> Callable[[float], float]:
    """f = (1 - sech(t/2)) / y with t = y/|a|, over the weight e^{-y}:
    together the t-domain integrand e^{-|a| t} (1 - sech(t/2)) / t in the
    variable y = |a| t."""
    neg_half_inv_a = -0.5 / abs(float(a))

    def f(y: float) -> float:
        # 1 - sech(t/2) = (1-z)^2/(1+z^2) with z = exp(-t/2) and z - 1 from
        # expm1, so nothing cancels near y = 0, where the completed
        # integrand behaves like y/(8 a^2); m/y stays near -1/(2|a|), so
        # m * (m/y) underflows only where the integrand does.
        m = math.expm1(neg_half_inv_a * y)
        z = 1.0 + m
        return m * (m / y) / (1.0 + z * z)

    return f


def _z_domain_integrand(a: float) -> Callable[[float], float]:
    inv_2a = 0.5 / float(a)

    def f(u: float) -> float:
        # u = z^{2a}, so the integrand in u is -(1-z)^2/((1+z^2) ln u)
        # with z = exp(s) and 1 - z = -expm1(s), s = ln(u)/(2a).  ln u
        # via log1p(u - 1) stays accurate next to u = 1, where the
        # completed integrand vanishes like s^2/|ln u|; below 1/2 plain
        # log avoids log1p's domain edge once u - 1 rounds to -1.  z is
        # 1 - (1 - z), which loses z's low digits only where z << 1 and
        # 1 + z^2, the one place z enters, rounds to 1 anyway.
        lnu = math.log1p(u - 1.0) if u > 0.5 else math.log(u)
        s = lnu * inv_2a
        omz = -math.expm1(s)
        z = 1.0 - omz
        return -omz * omz / ((1.0 + z * z) * lnu)

    return f


# ---------------------------------------------------------------------------
# Individual identity checks.

def check_delta_quadrature(a: float, tol: float = DEFAULT_TOL) -> IdentityReport:
    """Quadrature of ln(x^2 + a^2)/cosh(pi x) against delta_closed(a).

    Valid for every finite a including 0, where the integrand carries a
    logarithmic singularity at the origin.  The quadrature runs in
    y = pi x: int_0^inf ln((y/pi)^2 + a^2) / (pi cosh(y)) dy.  On the
    benchmark's chain pools of seeds 1 and 2 that takes 35% fewer
    evaluations than in x at tol 1e-8, 9% more at 1e-9 and 11% more
    from tol 1e-10 on.
    """
    a = _checked_real(a, "a")
    return _quadrature_check("delta_quadrature", {"a": a}, _delta_scaled_integrand(a),
                             delta_closed(a), tol, weight=_sech)


def check_arctan_kernel(a: float, tol: float = DEFAULT_TOL) -> IdentityReport:
    """(4/pi) int_0^inf x arctan(e^{-pi x}) / (x^2 + a^2) dx, the
    integrated-by-parts form, against delta(a) - ln|a|.

    Requires a != 0 (the ln|a| split is singular there) and a*a at least
    the smallest normal float, below which the kernel's denominator
    x^2 + a^2 loses precision and finally underflows to 0.
    """
    a = _checked_real(a, "a")
    if a == 0.0:
        raise ValueError("a must be nonzero")
    if a * a < sys.float_info.min:
        raise ValueError(f"a*a must not underflow the normal float range, got a = {a!r}")
    return _quadrature_check("arctan_kernel", {"a": a}, _arctan_kernel_integrand(a),
                             _delta_excess(a), tol, weight=_arctan_weight)


def check_sech_cosine_transform(t: float, tol: float = DEFAULT_TOL) -> IdentityReport:
    """int_0^inf cos(t x)/cosh(pi x) dx against (1/2) sech(t/2) for t >= 0.

    At t = 0 both sides reduce to 1/2.  Requires t <= 2 ln(tol/eps),
    35.2 at tol 1e-8 and 7.6 at 1e-14: beyond it (1/2) sech(t/2) falls
    below eps/tol, so the quadrature's roundoff exceeds tol relative and
    the step could only pass on its absolute branch.  The quadrature
    runs in x; in y = pi x it takes 9% to 22% more evaluations.
    """
    t = _checked_real(t, "t")
    if t < 0.0:
        raise ValueError(f"t must be >= 0, got {t!r}")
    tol = _checked_real(tol, "tol", floor=_TOL_FLOOR)
    t_max = 2.0 * math.log(tol / sys.float_info.epsilon)
    if t > t_max:
        raise ValueError(f"t must not exceed 2 ln(tol/eps) = {t_max:.4g} at tol {tol!r}, "
                         f"got {t!r}")
    return _quadrature_check("sech_cosine_transform", {"t": t}, _sech_cosine_integrand(t),
                             0.5 * sech(0.5 * t), tol, weight=_sech_pi)


def check_t_domain(a: float, tol: float = DEFAULT_TOL) -> IdentityReport:
    """int_0^inf e^{-|a| t} (1 - sech(t/2)) / t dt, whose integrand is
    completed by its limit 0 at t = 0, against delta(a) - ln|a|.

    The quadrature runs in y = |a| t, where the integral is
    int_0^inf e^{-y} (1 - sech(y/(2|a|))) / y dy.  In t the mass sits
    near t = 1/|a|, far below the semi-infinite nodes' center at 0.38,
    and the quadrature spends levels finding it: 450 to 3,838
    evaluations for |a| from 1e3 to 1e12 at a relative tolerance of
    1e-12.  In y the e^{-y} factor puts it near y = 1 for every a, and
    the same quadrature takes 121.

    Requires |a| > SMALL_A_CUTOFF.  For this step the cutoff bounds
    cost, not accuracy: at DEFAULT_TOLERANCE the quadrature takes 233
    calls at |a| = 1e-3, and is within 2.2e-16 relative at 1e-6 and 1e-9
    (457 and 905 calls) and within 5e-16 at 1e-12 (1,801 calls).  The
    cutoff is shared with check_z_domain, whose quadrature at a = 1e-9
    does not converge (29,382 calls).
    """
    a = _checked_real(a, "a")
    if abs(a) <= SMALL_A_CUTOFF:
        raise ValueError(f"|a| must exceed {SMALL_A_CUTOFF}, got {a!r}")
    return _quadrature_check("t_domain", {"a": a}, _t_domain_integrand(a),
                             _delta_excess(a), tol, weight=_exp_neg)


def check_z_domain(a: float, tol: float = DEFAULT_TOL) -> IdentityReport:
    """- int_0^1 z^{2a-1} (1-z)^2 / ((1+z^2) ln z) dz, the substitution
    z = e^{-t} of the t-domain form, against delta(a) - ln|a|.

    The quadrature runs in u = z^{2a} = e^{-2at}, where the integral is
    - int_0^1 (1-z)^2 / ((1+z^2) ln u) du, completed by its limit 0 at
    both ends.  In z the mass crowds z = 0 for small a, nearer than any
    node, and z = 1 for large a, where the first levels miss it and
    agree by accident; in u it spreads over (0, 1).  So this step
    differs from t_domain only in its transform (tanh-sinh on (0, 1)
    instead of the semi-infinite one) and its scale, and does not
    evaluate the literal z = e^{-t} form.

    Requires a > SMALL_A_CUTOFF.
    """
    a = _checked_real(a, "a")
    if a <= SMALL_A_CUTOFF:
        raise ValueError(f"a must exceed {SMALL_A_CUTOFF}, got {a!r}")
    return _quadrature_check("z_domain", {"a": a}, _z_domain_integrand(a),
                             _delta_excess(a), tol, (0.0, 1.0))


def check_alt_series_digamma(mu: float, tol: float = DEFAULT_TOL) -> IdentityReport:
    """sum_{k>=0} (-1)^k/(k+mu) against (1/2)(digamma((mu+1)/2) -
    digamma(mu/2)).

    The series side is Algorithm 1 of Cohen, Rodriguez Villegas and
    Zagier (Experiment. Math. 9 (2000) 3-12).  1/(k+mu) is a moment
    sequence of a positive weight, so its weighted sum of n terms is
    within 2/(3+sqrt 8)^n relative, and n = max(1, ceil(ln(20/tol) /
    ln(3+sqrt 8))) puts that under tol/10 at every mu: 7, 13, 15, 18
    and 20 terms at tol 1e-4, 1e-8, 1e-10, 1e-12 and 1e-14.  The
    weights carry the algorithm's final 1/d from the start, so none
    exceeds 1; each term is its weight times mu/(k+mu), which is 1 at
    large mu, where the terms nearly cancel, and the total is divided by
    mu once.  So nothing overflows, and against mpmath from mu = DBL_MIN
    to 1.7e308 the rounding stays within 8 eps of the truncated sum
    (20 eps with each weight divided by k + mu).

    The closed side is 1/mu - (1/2) R'(mu/2 + 1/4), with R'(s) =
    digamma(s + 3/4) - digamma(s + 1/4) the kernel behind
    delta_derivative, after one step of digamma(x+1) = digamma(x) + 1/x.
    R' is one expansion, not a difference of digamma values, and the sum
    is at least 1/(2 mu), so its half is at most half of 1/mu: the
    subtraction at most triples the relative error of its operands.

    Requires mu at least the smallest normal float, a margin above
    1/DBL_MAX = 5.6e-309, below which 1/mu overflows.
    """
    mu = _checked_real(mu, "mu")
    if mu < sys.float_info.min:
        raise ValueError(f"mu must be a positive normal float, got {mu!r}")
    tol = _checked_real(tol, "tol", floor=_TOL_FLOOR)
    n = max(1, math.ceil(math.log(20.0 / tol, _CVZ_RATE)))
    d = _CVZ_RATE ** n
    b = -2.0 / (d + 1.0 / d)
    c = -1.0
    total = 0.0
    for k in range(n):
        c = b - c
        total += c * (mu / (k + mu))
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    rhs = 1.0 / mu - 0.5 * _digamma_diff(0.5 * mu + 0.25)
    return _build_report("alt_series_digamma", {"mu": mu}, total / mu, rhs, tol, n)


def check_p_integral(a: float, tol: float = DEFAULT_TOL) -> IdentityReport:
    """The unit-interval digamma integral

        -(1/4) int_0^1 ( psi((2a+p)/4) - psi((2a+p)/4 + 1/2)
                         - psi((2a+p+1)/4) + psi((2a+p+1)/4 + 1/2) ) dp

    against delta(a) - ln a.  With s = a/2 it telescopes to lnG(s) +
    2 lnG(s+3/4) - 2 lnG(s+1/4) - lnG(s+1), which is 2 lnG(s+3/4) -
    2 lnG(s+1/4) - ln s = delta(a) - ln a.  Requires a > 0.
    """
    a = _checked_real(a, "a")
    if a <= 0.0:
        raise ValueError(f"a must be positive, got {a!r}")
    return _quadrature_check("p_integral", {"a": a},
                             lambda p: -0.25 * _digamma_quartet(0.5 * a + 0.25 * p),
                             _delta_excess(a), tol, (0.0, 1.0))


def check_b_reduction(tol: float = DEFAULT_TOL) -> IdentityReport:
    """The three reductions that pin down int_0^inf ln(x)/cosh(x) dx:

        (i)   its quadrature against vardi_b_constant(),
        (ii)  the normalization int_0^inf dx/cosh(x) against pi/2,
        (iii) the assembled constant pi (delta_closed(0)/2) +
              (pi/2) ln(pi) against vardi_b_constant().

    Both quadratures run over the weight sech(x), with f = ln x and
    f = 1.  So (ii) sums the sech weight table alone: it checks that the
    table delta_quadrature, c_quadrature and (i) share integrates sech
    to pi/2, while f = 1 is still called at every node it sums.

    All three are evaluated; the report carries the sub-identity with
    the worst error-to-tolerance margin, and passes only if every
    sub-identity is within tol and every quadrature converged.  The
    note field lists all three residuals.
    """
    tol = _checked_real(tol, "tol", floor=_TOL_FLOOR)
    target = vardi_b_constant()
    assembled = math.pi * (0.5 * delta_closed(0.0)) + 0.5 * math.pi * math.log(math.pi)
    subs = [
        _quadrature_check("log_sech_quadrature", {}, math.log, target, tol, weight=_sech),
        _quadrature_check("sech_normalization", {}, _one, 0.5 * math.pi, tol, weight=_sech),
        _build_report("constant_assembly", {}, assembled, target, tol),
    ]
    worst = max(subs, key=lambda r: min(r.abs_err, r.rel_err))
    note = "worst sub-identity: " + worst.name + "; " + "; ".join(
        f"{r.name} abs_err={r.abs_err:.3e}" for r in subs)
    if any(r.note for r in subs):  # only a quadrature that did not converge has one
        note += "; quadrature did not converge"
    return worst._replace(name="b_reduction", passed=all(r.passed for r in subs),
                          evaluations=sum(r.evaluations for r in subs), note=note)


def check_c_quadrature(a: float, tol: float = DEFAULT_TOL) -> IdentityReport:
    """Quadrature of ln(a x)/cosh(x) against malmsten_c(MalmstenParams(a, 1)).

    The family int_0^inf ln(a x)/cosh(b x) dx reduces to b = 1 by
    y = b x, so the check runs there: its ln a term is what
    b_reduction's ln(x) sech(x) quadrature does not already check.  It
    integrates f = ln a + ln x over the weight sech(x), so its lhs is
    ln a * S + L up to rounding, with S and L the sums of the sech
    weights and of their ln x terms over the nodes it sums: the values
    of b_reduction's two quadratures wherever they sum the same nodes.
    Requires a positive finite a.  For b != 1, compare
    integrate_semi_infinite(malmsten_c_integrand(params)) with
    malmsten_c(params).
    """
    params = MalmstenParams(a, 1.0)
    return _quadrature_check("c_quadrature", {"a": params.a}, _log_integrand(params.a),
                             malmsten_c(params), tol, weight=_sech)


# ---------------------------------------------------------------------------
# Full chain orchestration.

# The per-grid-point steps in derivation order: (step name, name of the
# check's argument, that argument as a function of the grid value a).
_GRID_STEPS = (
    ("delta_quadrature", "a", lambda a: a),
    ("arctan_kernel", "a", lambda a: a),
    ("sech_cosine_transform", "t", abs),
    ("t_domain", "a", lambda a: a),
    ("z_domain", "a", lambda a: a),
    ("alt_series_digamma", "mu", abs),
    ("p_integral", "a", lambda a: a),
    ("c_quadrature", "a", abs),
)


def run_full_chain(a_grid: Sequence[float], tol: float = DEFAULT_TOL) -> ChainReport:
    """Run every applicable check over a_grid, in derivation order.

    Per grid point a the order is: delta_quadrature, arctan_kernel,
    sech_cosine_transform (at t = |a|), t_domain, z_domain,
    alt_series_digamma (at mu = |a|), p_integral, c_quadrature (at
    |a|).  After the grid loop comes the a-independent b_reduction.
    Grid entries violating a step's precondition are skipped for that
    step and recorded.

    The grid must be non-empty with finite entries.  Report order is
    deterministic in (grid position, step) for identical inputs.
    """
    grid = [_checked_real(v, "grid entry") for v in a_grid]
    if not grid:
        raise ValueError("a_grid must contain at least one value")
    tol = _checked_real(tol, "tol", floor=_TOL_FLOOR)

    steps = []
    skipped = []
    for a in grid:
        for name, arg_name, arg_of in _GRID_STEPS:
            arg = arg_of(a)
            try:
                steps.append(globals()["check_" + name](arg, tol))
            except ValueError as exc:
                skipped.append(SkippedStep(name, {arg_name: arg}, str(exc)))

    steps.append(check_b_reduction(tol))

    overall = all(s.passed for s in steps)
    total_evals = sum(s.evaluations for s in steps)
    return ChainReport(tuple(steps), tuple(skipped), overall, total_evals)
