"""Gamma-function closed forms for logarithmic sech integrals.

The central quantity is

    delta(a) = int_0^inf ln(x^2 + a^2) / cosh(pi x) dx
             = 2 ln( sqrt(2) Gamma(|a|/2 + 3/4) / Gamma(|a|/2 + 1/4) ),

an even function of a that stays finite at a = 0.  From it follow the
constant int_0^inf ln(x) sech(x) dx and the two-parameter family
int_0^inf ln(a x) sech(b x) dx, both through the one correctly rounded
literal K = ln(2 pi^{3/2} / Gamma(1/4)^2).  Every product of powers and
gamma values is evaluated as a sum of logarithms, and delta and its
derivative each as one expansion of their gamma-function ratio, so
nothing overflows for any finite argument.  Against a multi-precision
oracle each result is within a few ulp of its largest term (each
function's docstring gives its figures); near a zero of the result
(delta at |a| = 0.8993, malmsten_c at a/b = 1.393) that bounds the
absolute error only.
"""

import math
from collections import namedtuple

# digamma, gamma_ratio_log and ln_gamma are not called here, but
# bench/tracing.py patches all three specfun names on this module through
# getattr.
from .specfun import (_checked_real, _digamma_diff, _lgamma_ratio, digamma,
                      gamma_ratio_log, ln_gamma)

__all__ = [
    "MalmstenParams",
    "delta_closed",
    "vardi_b_constant",
    "malmsten_c",
    "delta_derivative",
]

_HALF_LN_2 = 0.5 * math.log(2.0)
# ln(2 pi^{3/2} / Gamma(1/4)^2), the double nearest its exact value
# (-0x1.53908b5527318p-3).
_K = -0.16580304006210933


_MalmstenFields = namedtuple("_MalmstenFields", "a b")


class MalmstenParams(_MalmstenFields):
    """Scale pair for integrals of ln(a x) sech(b x) over (0, inf), a
    named tuple (a, b).

    Both scales must be positive finite reals; b is the decay rate of
    the sech factor and a only shifts the logarithm.  _replace and _make
    validate like the constructor.
    """

    __slots__ = ()

    def __new__(cls, a: float, b: float):
        return tuple.__new__(cls, (_checked_real(a, "a", True), _checked_real(b, "b", True)))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def delta_closed(a: float) -> float:
    """Closed form of int_0^inf ln(x^2 + a^2)/cosh(pi x) dx.

    Defined for every finite a, including 0, and even in a (bitwise: the
    sign is dropped before any arithmetic).  delta_closed(0.5) equals
    ln(2/pi) exactly in the limit of exact gamma values.

    Measured against 40-digit mpmath values at 9,000 log-uniform |a| in
    [1e-300, 1e300] and [1e-6, 1e6] and at the ends of the float range:
    the absolute error stays below 2e-15 for |a| < 4, which holds the
    zero at |a| = 0.8993, and the relative error below 8e-16 above.
    """
    return 2.0 * (_HALF_LN_2 + _lgamma_ratio(0.5 * abs(_checked_real(a, "a"))))


def malmsten_c(params: MalmstenParams) -> float:
    """int_0^inf ln(a x)/cosh(b x) dx for positive scales a and b.

    Equals (pi/b) (K + (ln a - ln b)/2) with K = ln(2 pi^{3/2} /
    Gamma(1/4)^2); the logarithms are differenced first, so a = b gives
    exactly (pi/b) K, and the a = b = 1 point is vardi_b_constant().
    Measured against 50-digit mpmath values at 4,000 log-uniform a in
    [1e-6, 1e12] and b in [1e-10, 1e6] and 4,000 more with a and b both
    in [1e-300, 1e300], the error stays within 3 eps (eps = 2^-52) of
    the largest of |K|, |ln a|/2 and |ln b|/2, times pi/b.  Below
    b = pi/DBL_MAX = 1.7476e-308, where pi/b overflows, the bracket is
    divided by b first, so the result is finite wherever the integral
    is: -5.2e307 at a = b = 1e-308.
    """
    scale = math.pi / params.b
    bracket = _K + 0.5 * (math.log(params.a) - math.log(params.b))
    return math.pi * (bracket / params.b) if scale == math.inf else scale * bracket


def vardi_b_constant() -> float:
    """int_0^inf ln(x)/cosh(x) dx = pi ln( 2 pi^{3/2} / Gamma(1/4)^2 ),
    malmsten_c at a = b = 1: pi times K, which is the double nearest the
    exact value, 6.9e-17 relative off it."""
    return malmsten_c(MalmstenParams(1.0, 1.0))


def delta_derivative(a: float) -> float:
    """Derivative of delta_closed for a > 0:
    digamma(a/2 + 3/4) - digamma(a/2 + 1/4).

    Positive and strictly decreasing; equals 2 ln 2 at a = 1/2.  Its
    relative error, measured like delta_closed's over every positive
    finite a, stays below 7e-16.
    """
    a = _checked_real(a, "a")
    if a <= 0.0:
        raise ValueError(f"a must be positive, got {a!r}")
    return _digamma_diff(0.5 * a)
