"""Tests for the identity-chain verifiers.

Every check pits a closed form against an independently computed quadrature
or series, so the assertions here are about the reports: errors really are
small, the pass flag matches the recorded numbers, preconditions skip
cleanly, and the intermediate routes all agree with each other.
"""

import math
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import malmsten.closedform as closedform
import malmsten.proofchain as pc
from malmsten.closedform import MalmstenParams, delta_closed, malmsten_c, vardi_b_constant
from malmsten.proofchain import (
    DEFAULT_TOL,
    ChainReport,
    IdentityReport,
    SkippedStep,
    check_alt_series_digamma,
    check_arctan_kernel,
    check_b_reduction,
    check_c_quadrature,
    check_delta_quadrature,
    check_p_integral,
    check_sech_cosine_transform,
    check_t_domain,
    check_z_domain,
    delta_integrand,
    run_full_chain,
)
from malmsten.quad import DEFAULT_TOLERANCE, ToleranceSpec
from malmsten.specfun import sech

A05_GRID = [0.25, 0.5, 1.0, 2.0, 4.0]
# The A05 grid plus a negative point, zero, a point just above the
# domain steps' cutoff and a large one.
WIDE_GRID = A05_GRID + [-3.0, 0.0, 0.005, 60.0]
# The four routes to delta(a) - ln a.
ROUTES = [check_arctan_kernel, check_t_domain, check_z_domain, check_p_integral]

# Frozen from a 30-digit run: (mu, (digamma((mu+1)/2) - digamma(mu/2)) / 2).
ALT_SERIES_ORACLE = [
    (1.5, 0.42920367320510338077),
    (3.25, 0.17655249508480029415),
    (10.0, 0.052487740074975325503),
]


def _assert_report_consistent(rep: IdentityReport):
    assert rep.abs_err == abs(rep.lhs - rep.rhs)
    scale = max(abs(rep.lhs), abs(rep.rhs))
    if scale > 0.0:
        assert rep.rel_err == rep.abs_err / scale
    else:
        assert rep.rel_err == 0.0
    if not rep.note:
        assert rep.passed == (rep.abs_err <= rep.tol or rep.rel_err <= rep.tol)


# x from 1e-300 to 1e3, twenty points per decade.
PIN_XS = [10.0 ** (k / 20.0) for k in range(-6000, 61)]


# (integrand as the package builds it, the same integrand written with
# specfun.sech and the unhoisted constants) for each integrand whose sech
# is written out inline.
INLINED_INTEGRANDS = (
    [(f"delta a={a}", delta_integrand(a),
      lambda x, a=a: 2.0 * math.log(math.hypot(x, abs(a))) * sech(math.pi * x))
     for a in (0.0, -1e-200, 0.5, 3.0, 1e150)]
    + [("vardi", pc.vardi_b_integrand(), lambda x: math.log(x) * sech(x))]
    + [(f"c a={a} b={b}", pc.malmsten_c_integrand(MalmstenParams(a, b)),
        lambda x, a=a, b=b: (math.log(a) + math.log(x)) * sech(b * x))
       for a, b in ((1.0, 1.0), (0.01, 1e-10), (1e5, 0.3), (2.0, 1e6))]
    + [(f"arctan a={a}", pc._arctan_kernel_integrand(a),
        lambda x, a=a: 4.0 / math.pi * x * math.atan(math.exp(-math.pi * x)) / (x * x + a * a))
       for a in (1e-150, -0.25, 1.0, 7e3)]
    + [(f"sech_cosine t={t}", pc._sech_cosine_integrand(t),
        lambda x, t=t: math.cos(t * x) * sech(math.pi * x))
       for t in (0.0, 1.0, 37.5, 1e6)]
    + [(f"delta scaled a={a}", pc._delta_scaled_integrand(a),
        lambda y, a=a: 2.0 / math.pi * math.log(math.hypot(y / math.pi, abs(a))) * sech(y))
       for a in (0.0, -1e-200, 0.5, 1e150)]
    + [(f"c b=1 a={a}", pc.malmsten_c_integrand(MalmstenParams(a, 1.0)),
        lambda x, a=a: (math.log(a) + math.log(x)) * sech(x))
       for a in (1e-300, 0.01, 1.0, 1e300)]
)


@pytest.mark.parametrize("label, inlined, reference", INLINED_INTEGRANDS,
                         ids=[case[0] for case in INLINED_INTEGRANDS])
def test_inlined_sech_keeps_the_bits(label, inlined, reference):
    bad = [x for x in PIN_XS if inlined(x).hex() != reference(x).hex()]
    assert not bad, bad[:5]


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0, -2.0, 10.0])
def test_delta_quadrature(a):
    rep = check_delta_quadrature(a)
    assert rep.name == "delta_quadrature"
    assert rep.passed
    assert rep.abs_err <= 1e-10
    assert rep.evaluations > 0
    _assert_report_consistent(rep)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_arctan_kernel(a):
    rep = check_arctan_kernel(a)
    assert rep.passed
    assert math.isclose(rep.rhs, delta_closed(a) - math.log(a), rel_tol=1e-13, abs_tol=1e-15)
    _assert_report_consistent(rep)


def test_arctan_kernel_rejects_zero():
    with pytest.raises(ValueError):
        check_arctan_kernel(0.0)


def test_sech_cosine_transform_at_zero():
    rep = check_sech_cosine_transform(0.0)
    assert rep.passed
    assert math.isclose(rep.rhs, 0.5, rel_tol=1e-15)


@pytest.mark.parametrize("t", [0.1, 1.0, 4.0, 10.0])
def test_sech_cosine_transform(t):
    rep = check_sech_cosine_transform(t)
    assert rep.passed
    assert rep.abs_err <= 1e-10
    _assert_report_consistent(rep)


def test_sech_cosine_rejects_negative():
    with pytest.raises(ValueError):
        check_sech_cosine_transform(-0.5)


@pytest.mark.parametrize("tol", [1e-4, 1e-8, 1e-14])
def test_sech_cosine_checks_only_the_t_it_resolves(tol):
    # (1/2) sech(t/2) ~ e^{-t/2} falls to eps/tol at T = 2 ln(tol/eps), and
    # the quadrature's roundoff, about eps times the integrand's mass,
    # is then tol relative: 35.2 at tol 1e-8 and 7.6 at 1e-14, so the
    # A05 grid still runs at every tol.  Past T the step skips instead
    # of passing on its absolute branch; at t >= 4.45e170 it used to raise
    # from cos(t x) and skip with "math domain error".
    t_max = 2.0 * math.log(tol / sys.float_info.epsilon)
    edge = check_sech_cosine_transform(t_max, tol)
    assert edge.passed and edge.rel_err <= tol
    for t in (math.nextafter(t_max, math.inf), 1e6, 4.45e170, 1e300):
        reason = f"t must not exceed 2 ln(tol/eps) = {t_max:.4g} at tol {tol!r}, got {t!r}"
        with pytest.raises(ValueError, match=re.escape(reason) + "$"):
            check_sech_cosine_transform(t, tol)
        report = run_full_chain([-t], tol)
        assert SkippedStep("sech_cosine_transform", {"t": t}, reason) in report.skipped


def test_t_domain_half():
    rep = check_t_domain(0.5)
    assert rep.passed
    assert math.isclose(rep.rhs, math.log(4.0 / math.pi), rel_tol=1e-13)


def test_z_domain_half():
    rep = check_z_domain(0.5)
    assert rep.passed
    _assert_report_consistent(rep)


@pytest.mark.parametrize("check", [check_t_domain, check_z_domain])
@pytest.mark.parametrize("a", [1e4, 1e6])
def test_domain_steps_at_tight_tolerance(check, a):
    # Both sides are delta(a) - ln a, 1.25e-13 at a = 1e6: the closed form
    # must keep the digits that the log-gamma difference used to cancel.
    rep = check(a, tol=1e-12)
    assert rep.passed
    _assert_report_consistent(rep)


@pytest.mark.parametrize("a", [0.002, 0.005, 0.0115])
def test_z_domain_just_above_cutoff(a):
    # The z^{2a-1} mass lies closer to z = 0 than any tanh-sinh node in z;
    # the step integrates in u = z^{2a}, where it is spread over (0, 1).
    rep = check_z_domain(a)
    assert rep.passed
    assert rep.evaluations < 1000
    _assert_report_consistent(rep)


def test_small_magnitude_preconditions():
    for check in (check_t_domain, check_z_domain):
        with pytest.raises(ValueError):
            check(5e-4)
    with pytest.raises(ValueError):
        check_z_domain(-1.0)


@pytest.mark.parametrize("mu,expected", ALT_SERIES_ORACLE)
def test_alt_series_digamma_oracle(mu, expected):
    rep = check_alt_series_digamma(mu, tol=1e-10)
    assert rep.passed
    assert abs(rep.lhs - expected) <= 1e-10
    assert math.isclose(rep.rhs, expected, rel_tol=1e-12)
    _assert_report_consistent(rep)


def test_alt_series_known_constants():
    # mu = 1: 1 - 1/2 + 1/3 - ... = ln 2.  mu = 0.5: Leibniz gives pi/4... at
    # half the step, so the sum over k of (-1)^k/(k + 1/2) equals pi/2.
    rep1 = check_alt_series_digamma(1.0, tol=1e-10)
    assert abs(rep1.lhs - math.log(2.0)) <= 1e-10
    rep2 = check_alt_series_digamma(0.5, tol=1e-10)
    assert abs(rep2.lhs - 0.5 * math.pi) <= 1e-10


def test_alt_series_term_count_is_set_by_tol():
    # n = max(1, ceil(ln(20/tol) / ln(3 + sqrt 8))) terms, whatever mu is.
    sweep = [sys.float_info.min] + [10.0 ** k for k in range(-300, 301, 20)] + [1.7e308]
    for tol, n in [(1e-4, 7), (1e-8, 13), (1e-10, 15), (1e-12, 18), (1e-14, 20), (100.0, 1)]:
        for mu in sweep:
            assert check_alt_series_digamma(mu, tol=tol).evaluations == n, (mu, tol)


def test_alt_series_rejects_bad_mu():
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            check_alt_series_digamma(bad)


@pytest.mark.parametrize("mu", [1e-310, 5e-324])
def test_alt_series_rejects_subnormal_mu(mu):
    # The check rejects mu below the smallest normal float, a margin above
    # 5.6e-309, where the closed side's 1/mu overflows, so the check and
    # the chain's step at a = mu skip with a reason that names mu.
    reason = f"mu must be a positive normal float, got {mu!r}"
    with pytest.raises(ValueError, match=reason):
        check_alt_series_digamma(mu)
    report = run_full_chain([mu])
    assert SkippedStep("alt_series_digamma", {"mu": mu}, reason) in report.skipped
    assert "alt_series_digamma" not in {s.name for s in report.steps}


@pytest.mark.parametrize("a", [1e-309, 5e-324])
def test_c_quadrature_at_tiny_a(a):
    # At b = 1 malmsten_c is finite for every positive a, so the check
    # and the chain's step at |a| run and pass down to the smallest
    # subnormal.
    rep = check_c_quadrature(a)
    assert rep.passed
    report = run_full_chain([-a])
    [step] = [s for s in report.steps if s.name == "c_quadrature"]
    assert step == rep
    assert "c_quadrature" not in {s.name for s in report.skipped}


def test_alt_series_at_smallest_normal_mu():
    rep = check_alt_series_digamma(sys.float_info.min)
    assert rep.passed
    assert math.isclose(rep.lhs, 4.494e307, rel_tol=1e-4)
    assert rep.rel_err <= rep.tol / 10


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 3.0])
def test_p_integral(a):
    rep = check_p_integral(a)
    assert rep.passed
    assert math.isclose(rep.rhs, delta_closed(a) - math.log(a), rel_tol=1e-12, abs_tol=1e-14)
    _assert_report_consistent(rep)


def test_b_reduction():
    rep = check_b_reduction()
    assert rep.name == "b_reduction"
    assert rep.passed
    for key in ("log_sech_quadrature", "sech_normalization", "constant_assembly"):
        assert key in rep.note


def test_b_reduction_reports_the_failing_sub_identity(monkeypatch):
    import malmsten.proofchain as pc
    from malmsten.specfun import sech

    real = pc.integrate_semi_infinite
    skewed_values = []

    def skewed(f, *args):
        res = real(f, *args)
        if f is sech:  # break the normalization int_0^inf sech = pi/2
            res = res._replace(value=res.value + 1e-3)
            skewed_values.append(res.value)
        return res

    monkeypatch.setattr(pc, "integrate_semi_infinite", skewed)
    rep = pc.check_b_reduction()
    assert not rep.passed
    assert [rep.lhs] == skewed_values
    assert rep.rhs == 0.5 * math.pi
    assert rep.note.startswith("worst sub-identity: sech_normalization;")
    _assert_report_consistent(rep)


def test_b_reduction_reports_non_convergence(monkeypatch):
    from malmsten.specfun import sech

    real = pc.integrate_semi_infinite
    evaluations = []

    def stalled(f, *args):
        res = real(f, *args)
        evaluations.append(res.evaluations)
        if f is sech:  # the normalization's quadrature gives up
            res = res._replace(converged=False)
        return res

    monkeypatch.setattr(pc, "integrate_semi_infinite", stalled)
    rep = pc.check_b_reduction()
    assert not rep.passed
    assert rep.note.endswith("; quadrature did not converge")
    assert len(evaluations) == 2
    assert rep.evaluations == sum(evaluations)


def test_c_quadrature():
    rep = check_c_quadrature(1.0)
    assert rep.passed
    assert rep.params == {"a": 1.0}
    assert math.isclose(rep.lhs, vardi_b_constant(), rel_tol=1e-13)
    rep2 = check_c_quadrature(0.1)
    assert rep2.passed
    assert rep2.rhs == malmsten_c(MalmstenParams(0.1, 1.0))
    _assert_report_consistent(rep2)
    with pytest.raises(ValueError, match=r"^a must be a positive finite real, got -1.0$"):
        check_c_quadrature(-1.0)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_intermediate_routes_agree(a):
    # Four routes to delta(a) - ln a must agree pairwise.  The t- and
    # z-domain steps integrate the same analytic form, in t and in
    # u = e^{-2at}, by different DE transforms.
    routes = [check(a).lhs for check in ROUTES]
    for i, x in enumerate(routes):
        for y in routes[i + 1:]:
            assert abs(x - y) <= 2.0 * DEFAULT_TOL


@pytest.mark.parametrize("check", ROUTES)
@pytest.mark.parametrize("a", [0.5, 2.0, 37.0, 1e4])
def test_routes_share_one_closed_side(check, a):
    # Each route's rhs is the one closed form of delta(a) - ln|a|, at -a
    # too where the route accepts it.
    for x in (a, -a) if check in (check_arctan_kernel, check_t_domain) else (a,):
        assert check(x).rhs == delta_closed(x) - math.log(abs(x))


@pytest.mark.parametrize("check", [check_delta_quadrature, check_arctan_kernel, check_t_domain])
def test_sign_parity(check):
    plus = check(2.0)
    minus = check(-2.0)
    assert plus.lhs == minus.lhs
    assert plus.rhs == minus.rhs
    assert plus.abs_err == minus.abs_err
    assert plus.passed and minus.passed


def test_reports_expose_tolerance():
    rep = check_delta_quadrature(1.0, tol=1e-6)
    assert rep.tol == 1e-6
    with pytest.raises(ValueError):
        check_delta_quadrature(1.0, tol=1e-15)
    with pytest.raises(ValueError):
        check_delta_quadrature(float("inf"))


def test_non_convergence_is_reported_not_raised(monkeypatch):
    import malmsten.proofchain as pc
    from malmsten.quad import QuadratureResult

    def fake(f, tol=None):
        return QuadratureResult(value=0.123, error_estimate=1.0, evaluations=7, converged=False)

    monkeypatch.setattr(pc, "integrate_semi_infinite", fake)
    rep = pc.check_delta_quadrature(1.0)
    assert not rep.passed
    assert "converge" in rep.note


def test_full_chain_single_point():
    report = run_full_chain([0.5])
    assert isinstance(report, ChainReport)
    names = [s.name for s in report.steps]
    assert names == [
        "delta_quadrature",
        "arctan_kernel",
        "sech_cosine_transform",
        "t_domain",
        "z_domain",
        "alt_series_digamma",
        "p_integral",
        "c_quadrature",
        "b_reduction",
    ]
    assert report.overall_pass
    assert not report.skipped
    assert report.total_evaluations == sum(s.evaluations for s in report.steps)
    for step in report.steps:
        _assert_report_consistent(step)


def test_full_chain_records_skips():
    # a = 0 cannot feed the checks that divide by a or integrate over
    # (0, 1) in powers of a; a = -1 cannot feed the positive-only routes;
    # below |a| ~ 1.5e-154 the arctan kernel's a^2 is no longer a normal
    # float, and below ~1e-162 its denominator would underflow to 0.
    import malmsten.proofchain as pc

    report = run_full_chain([0.0, -1.0, 1e-160, -1e-200])
    assert report.overall_pass
    skipped_for_zero = [s for s in report.skipped if s.params.get("a") == 0.0]
    assert {s.name for s in skipped_for_zero} >= {"arctan_kernel", "t_domain", "z_domain", "p_integral"}
    assert any(s.name == "alt_series_digamma" and s.params == {"mu": 0.0}
               for s in report.skipped)
    skipped_for_neg = [s for s in report.skipped if s.params.get("a") == -1.0]
    assert {s.name for s in skipped_for_neg} == {"z_domain", "p_integral"}
    skipped_for_tiny = [s for s in report.skipped if s.params.get("a") == 1e-160]
    assert {s.name for s in skipped_for_tiny} == {"arctan_kernel", "t_domain", "z_domain"}
    assert SkippedStep("c_quadrature", {"a": 0.0},
                       "a must be a positive finite real, got 0.0") in report.skipped
    for s in report.skipped:
        assert s.reason
        with pytest.raises(ValueError) as exc:
            getattr(pc, "check_" + s.name)(*s.params.values())
        assert str(exc.value) == s.reason

    # Where a^2 underflows to 0 the chain still reports instead of
    # raising; the step whose quadrature cannot resolve the scale fails
    # as non-converged.  c_quadrature runs at b = 1, where ln a only
    # shifts the integrand, so it passes.
    report = run_full_chain([1e-300])
    assert "arctan_kernel" in {s.name for s in report.skipped}
    failed = [s for s in report.steps if not s.passed]
    assert {s.name for s in failed} == {"p_integral"}
    assert all("converge" in s.note for s in failed)


@pytest.mark.parametrize("step", [
    "delta_quadrature", "arctan_kernel", "sech_cosine_transform", "t_domain",
    "z_domain", "alt_series_digamma", "p_integral", "b_reduction", "c_quadrature",
])
def test_full_chain_overall_pass_is_conjunction(monkeypatch, step):
    # Replacing the module-level check must reach the chain, so the chain
    # may not hold references to the checks taken at import time.
    import malmsten.proofchain as pc

    real = getattr(pc, "check_" + step)

    def rigged(*args):
        rep = real(*args)
        return IdentityReport(
            name=rep.name, params=rep.params, lhs=rep.lhs, rhs=rep.rhs + 1.0,
            abs_err=1.0, rel_err=1.0, tol=rep.tol, passed=False,
            evaluations=rep.evaluations, note="rigged",
        )

    monkeypatch.setattr(pc, "check_" + step, rigged)
    report = pc.run_full_chain([1.0])
    assert not report.overall_pass
    assert [s.name for s in report.steps if not s.passed] == [step]


def test_full_chain_validation():
    with pytest.raises(ValueError):
        run_full_chain([])
    with pytest.raises(ValueError):
        run_full_chain([float("nan")])
    with pytest.raises(ValueError):
        run_full_chain([1.0], tol=1e-15)
    with pytest.raises(ValueError):
        run_full_chain([1.0], tol=0.0)
    # Values float() rejects get the same messages, not a TypeError.
    for bad in (None, "abc"):
        with pytest.raises(ValueError, match=r"^grid entry must be a finite real, got "):
            run_full_chain([bad])
        with pytest.raises(ValueError, match=r"^tol must be a finite real >= 1e-14, got "):
            run_full_chain([1.0], tol=bad)


@pytest.mark.parametrize("bad", [None, "abc", 10**400, float("nan"), float("inf")],
                         ids=["None", "str", "huge_int", "nan", "inf"])
def test_delta_integrand_validates_a(bad):
    with pytest.raises(ValueError, match=r"^a must be a finite real, got "):
        delta_integrand(bad)


# Every check that integrates, with arguments inside its domain: nine
# quadrature calls in all, two of them from b_reduction.
_QUADRATURE_CHECKS = [
    (check_delta_quadrature, (0.5,)),
    (check_arctan_kernel, (0.5,)),
    (check_sech_cosine_transform, (0.5,)),
    (check_t_domain, (0.5,)),
    (check_z_domain, (0.5,)),
    (check_p_integral, (0.5,)),
    (check_b_reduction, ()),
    (check_c_quadrature, (0.5,)),
]


def _wrap_quadrature(monkeypatch, wrap):
    """Replace both engines in proofchain by wrap(real, f, bounds, tol), where
    tol is the ToleranceSpec the check passed, DEFAULT_TOLERANCE if none.
    Returns the list to which each call's result is appended."""
    results = []
    for name in ("integrate_semi_infinite", "integrate_finite"):
        real = getattr(pc, name)

        def wrapper(f, *args, real=real):
            if args and isinstance(args[-1], ToleranceSpec):
                res = wrap(real, f, args[:-1], args[-1])
            else:
                res = wrap(real, f, args, DEFAULT_TOLERANCE)
            results.append(res)
            return res

        monkeypatch.setattr(pc, name, wrapper)
    return results


@pytest.mark.parametrize("tol, rel_tol, abs_tol", [
    (1e-8, 1e-10, 1e-10),
    (1e-14, DEFAULT_TOLERANCE.rel_tol, DEFAULT_TOLERANCE.abs_tol),
])
def test_quadrature_tolerance_follows_the_check(monkeypatch, tol, rel_tol, abs_tol):
    seen = []

    def spy(real, f, bounds, qtol):
        seen.append(qtol)
        return real(f, *bounds, qtol)

    _wrap_quadrature(monkeypatch, spy)
    for check, args in _QUADRATURE_CHECKS:
        check(*args, tol=tol)
    assert len(seen) == 9
    for qtol in seen:
        assert (qtol.rel_tol, qtol.abs_tol) == (rel_tol, abs_tol)


def test_each_check_reports_its_engines_value(monkeypatch):
    # Every quadrature integrates the lhs its check reports, so the
    # tolerance rule applies to that lhs and not to a multiple of it.
    results = _wrap_quadrature(monkeypatch, lambda real, f, bounds, qtol: real(f, *bounds, qtol))
    for check, args in _QUADRATURE_CHECKS:
        if check is check_b_reduction:  # three sub-identities, two quadratures
            continue
        results.clear()
        report = check(*args)
        (res,) = results
        assert (report.lhs, report.evaluations) == (res.value, res.evaluations), check.__name__


def test_tightest_tol_runs_the_default_quadrature(monkeypatch):
    derived = repr(run_full_chain(WIDE_GRID, tol=1e-14))
    _wrap_quadrature(monkeypatch, lambda real, f, bounds, qtol: real(f, *bounds, DEFAULT_TOLERANCE))
    assert derived == repr(run_full_chain(WIDE_GRID, tol=1e-14))


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8, 1e-10])
def test_derived_quadrature_tolerance_keeps_every_step(tol):
    # The quadratures stop at 1e-2 * tol; the worst residual here is
    # 4.4e-8 (arctan_kernel at a = 60, tol 1e-4), so tol/10 leaves room
    # and still sees a slip.
    report = run_full_chain(WIDE_GRID, tol=tol)
    assert report.overall_pass
    for step in report.steps:
        assert step.passed
        assert min(step.abs_err, step.rel_err) <= tol / 10, step
        _assert_report_consistent(step)


# a log-uniform over +-[5e-324, DBL_MAX], or 0.
_LN_A_RANGE = (math.log(5e-324), math.log(sys.float_info.max))
WHOLE_DOMAIN_A = st.one_of(
    st.just(0.0),
    st.builds(lambda ln_a, sign: sign * math.exp(ln_a),
              st.floats(*_LN_A_RANGE), st.sampled_from((1.0, -1.0))))


# The goal of "right on the whole accepted domain" for the chain.  The
# examples are today's known failures, cheapest first.  With
# report_multiple_bugs=False the test stops at the first failure, so
# while the mark stands it runs only a = 1e4.  Without the mark, the 200
# drawn examples take about 0.9 s today; the dearest a, below 1e-300,
# costs about 38,000 calls and 40 ms, most of them in p_integral.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP items 1 and 11: domain steps pass on their absolute branch "
                          "from a ~ 3,500 and at a = -3.7, tol 1e-14; p_integral does not "
                          "converge at a <= 1e-300")
@given(a=WHOLE_DOMAIN_A, tol=st.sampled_from((1e-4, 1e-8, 1e-12, 1e-14)))
@example(a=1e4, tol=1e-8)
@example(a=1e6, tol=1e-8)
@example(a=1e12, tol=1e-8)
@example(a=1e100, tol=1e-8)
@example(a=-3.7, tol=1e-14)
@example(a=1e-300, tol=1e-8)
@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          report_multiple_bugs=False)
def test_full_chain_on_the_whole_domain(a, tol):
    report = run_full_chain([a], tol)
    # Both sides exactly 0 is right past a ~ 1.6e161, where the true
    # excess delta(a) - ln|a| is below the subnormal range.
    bad = [s for s in report.steps
           if not (s.passed and (s.rel_err <= tol or s.lhs == s.rhs == 0.0))]
    assert not bad, bad
    assert all(s.reason for s in report.skipped), report.skipped


# Integrand evaluations per step on A05 (series terms for
# alt_series_digamma), summed over the grid.  They are deterministic, so
# they pin what each step costs and show which one moved.  At tol 1e-8
# the derived quadrature tolerance saves against DEFAULT_TOLERANCE: the
# total would be 4,468 instead of 3,305.
A05_STEP_EVALUATIONS = {
    1e-8: {"delta_quadrature": 353, "arctan_kernel": 434, "sech_cosine_transform": 605,
           "t_domain": 381, "z_domain": 407, "alt_series_digamma": 65, "p_integral": 300,
           "b_reduction": 208, "c_quadrature": 552},
    1e-14: {"delta_quadrature": 665, "arctan_kernel": 530, "sech_cosine_transform": 717,
            "t_domain": 605, "z_domain": 463, "alt_series_digamma": 100, "p_integral": 471,
            "b_reduction": 272, "c_quadrature": 680},
}


@pytest.mark.parametrize("tol", sorted(A05_STEP_EVALUATIONS))
def test_a05_evaluations_per_step(tol):
    report = run_full_chain(A05_GRID, tol=tol)
    per_step = dict.fromkeys(A05_STEP_EVALUATIONS[tol], 0)
    for step in report.steps:
        per_step[step.name] += step.evaluations
    assert per_step == A05_STEP_EVALUATIONS[tol]
    assert report.total_evaluations == sum(per_step.values())


def _scaled(f, factor=1.0 + 1e-6):
    return lambda *args: factor * f(*args)


# Each entry perturbs one closed form the chain checks, on proofchain or
# on closedform's constant; the chain must notice.
CLOSED_FORM_MUTANTS = {
    "malmsten_c with a and b swapped": (
        pc, "malmsten_c", lambda p, real=pc.malmsten_c: real(MalmstenParams(p.b, p.a))),
    "malmsten_c scaled": (pc, "malmsten_c", _scaled(pc.malmsten_c)),
    "vardi_b_constant scaled": (pc, "vardi_b_constant", _scaled(pc.vardi_b_constant)),
    "delta_closed scaled": (pc, "delta_closed", _scaled(pc.delta_closed)),
    "K scaled": (closedform, "_K", closedform._K * (1.0 + 1e-6)),
}


@pytest.mark.parametrize("mutant", CLOSED_FORM_MUTANTS)
def test_full_chain_catches_a_wrong_closed_form(monkeypatch, mutant):
    # delta_derivative is not among them: no step reaches it.
    module, name, value = CLOSED_FORM_MUTANTS[mutant]
    monkeypatch.setattr(module, name, value)
    report = run_full_chain(A05_GRID)
    assert not report.overall_pass
