"""Gamma-function closed forms for logarithmic sech integrals.

The central quantity is

    delta(a) = int_0^inf ln(x^2 + a^2) / cosh(pi x) dx
             = 2 ln( sqrt(2) Gamma(|a|/2 + 3/4) / Gamma(|a|/2 + 1/4) ),

an even function of a that stays finite at a = 0.  From it follow the
constant int_0^inf ln(x) sech(x) dx and the two-parameter family
int_0^inf ln(a x) sech(b x) dx.  Every product of powers and gamma
values is evaluated as a sum of logarithms, so nothing overflows for
moderate arguments and the identities between the forms hold to a few
ulp.
"""

import math
from dataclasses import dataclass

from .specfun import _checked_real, digamma, gamma_ratio_log, ln_gamma

__all__ = [
    "MalmstenParams",
    "delta_closed",
    "vardi_b_constant",
    "malmsten_c",
    "delta_derivative",
]

_LN_2 = math.log(2.0)
_LN_PI = math.log(math.pi)
_HALF_LN_2 = 0.5 * _LN_2

# For s = |a|/2 beyond this, use the asymptotic value ln|a| + 1/(8a^2):
# evaluating the Stirling difference directly would overflow ln_gamma long
# before the float range ends.  Below the cutover that difference is not
# correctly rounded: two terms of size about s*ln(s) cancel, and its
# relative error reaches about 1e-9 at a = 1e7 and 1e-8 at a = 1.1e8.
_ASYMPTOTIC_CUTOVER = 1e8


@dataclass(frozen=True)
class MalmstenParams:
    """Scale pair for integrals of ln(a x) sech(b x) over (0, inf).

    Both scales must be positive finite reals; b is the decay rate of
    the sech factor and a only shifts the logarithm.
    """

    a: float
    b: float

    def __post_init__(self):
        for name in ("a", "b"):
            object.__setattr__(self, name, _checked_real(getattr(self, name), name, True))


def delta_closed(a: float) -> float:
    """Closed form of int_0^inf ln(x^2 + a^2)/cosh(pi x) dx.

    Defined for every finite a, including 0, and even in a (bitwise: the
    sign is dropped before any arithmetic).  delta_closed(0.5) equals
    ln(2/pi) exactly in the limit of exact gamma values.
    """
    s = 0.5 * abs(_checked_real(a, "a"))
    if s >= _ASYMPTOTIC_CUTOVER:
        aa = 2.0 * s
        return math.log(aa) + 0.125 / (aa * aa)
    return 2.0 * (_HALF_LN_2 + gamma_ratio_log(s + 0.75, s + 0.25))


def vardi_b_constant() -> float:
    """int_0^inf ln(x)/cosh(x) dx = pi ln( 2 pi^{3/2} / Gamma(1/4)^2 ),
    evaluated as a sum of logarithms."""
    return math.pi * (_LN_2 + 1.5 * _LN_PI - 2.0 * ln_gamma(0.25))


def malmsten_c(params: MalmstenParams) -> float:
    """int_0^inf ln(a x)/cosh(b x) dx for positive scales a and b.

    Equals (pi/b) ln( 2 sqrt(a) pi^{3/2} / (sqrt(b) Gamma(1/4)^2) ); the
    a = b = 1 point reduces to vardi_b_constant().
    """
    return (math.pi / params.b) * (
        _LN_2
        + 0.5 * math.log(params.a)
        - 0.5 * math.log(params.b)
        + 1.5 * _LN_PI
        - 2.0 * ln_gamma(0.25)
    )


def delta_derivative(a: float) -> float:
    """Derivative of delta_closed for a > 0:
    digamma(a/2 + 3/4) - digamma(a/2 + 1/4).

    Positive and strictly decreasing; equals 2 ln 2 at a = 1/2.
    """
    a = _checked_real(a, "a")
    if a <= 0.0:
        raise ValueError(f"a must be positive, got {a!r}")
    s = 0.5 * a
    return digamma(s + 0.75) - digamma(s + 0.25)
