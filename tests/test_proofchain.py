"""Tests for the identity-chain verifiers.

Every check pits a closed form against an independently computed quadrature
or series, so the assertions here are about the reports: errors really are
small, the pass flag matches the recorded numbers, preconditions skip
cleanly, and the intermediate routes all agree with each other.
"""

import dataclasses
import math

import pytest

from malmsten.closedform import MalmstenParams, delta_closed, vardi_b_constant
from malmsten.proofchain import (
    DEFAULT_TOL,
    ChainReport,
    IdentityReport,
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
    assert math.isclose(rep.lhs, delta_closed(a) - math.log(a), rel_tol=1e-13, abs_tol=1e-15)
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


def test_t_domain_half():
    rep = check_t_domain(0.5)
    assert rep.passed
    assert math.isclose(rep.lhs, math.log(4.0 / math.pi), rel_tol=1e-13)


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


def test_alt_series_rejects_bad_mu():
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            check_alt_series_digamma(bad)


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 3.0])
def test_p_integral(a):
    rep = check_p_integral(a)
    assert rep.passed
    # The endpoint bracket telescopes back to delta(a) - ln a.
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

    def skewed(f, *args):
        res = real(f, *args)
        if f is sech:  # break the normalization int_0^inf sech = pi/2
            res = dataclasses.replace(res, value=res.value + 1e-3)
        return res

    monkeypatch.setattr(pc, "integrate_semi_infinite", skewed)
    rep = pc.check_b_reduction()
    assert not rep.passed
    assert rep.lhs == real(sech).value + 1e-3
    assert rep.rhs == 0.5 * math.pi
    assert rep.note.startswith("worst sub-identity: sech_normalization;")
    _assert_report_consistent(rep)


def test_c_quadrature():
    rep = check_c_quadrature(MalmstenParams(1.0, 1.0))
    assert rep.passed
    assert math.isclose(rep.lhs, vardi_b_constant(), rel_tol=1e-13)
    rep2 = check_c_quadrature(MalmstenParams(0.1, 0.5))
    assert rep2.passed
    _assert_report_consistent(rep2)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_intermediate_routes_agree(a):
    # Four routes to delta(a) - ln a must agree pairwise.  The t- and
    # z-domain steps integrate the same analytic form, in t and in
    # u = e^{-2at}, by different DE transforms.
    routes = [
        check_arctan_kernel(a).rhs,
        check_t_domain(a).rhs,
        check_z_domain(a).rhs,
        check_p_integral(a).lhs,
    ]
    for i, x in enumerate(routes):
        for y in routes[i + 1:]:
            assert abs(x - y) <= 2.0 * DEFAULT_TOL


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
        "b_reduction",
        "c_quadrature",
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
    for s in report.skipped:
        assert s.reason
        if s.name == "c_quadrature":  # skipped by the chain, never called
            continue
        with pytest.raises(ValueError) as exc:
            getattr(pc, "check_" + s.name)(*s.params.values())
        assert str(exc.value) == s.reason

    # Where a^2 underflows to 0 the chain still reports instead of
    # raising; the steps whose quadrature cannot resolve the scale fail
    # as non-converged.
    report = run_full_chain([1e-300])
    assert "arctan_kernel" in {s.name for s in report.skipped}
    failed = [s for s in report.steps if not s.passed]
    assert {s.name for s in failed} == {"p_integral", "c_quadrature"}
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
