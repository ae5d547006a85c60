"""Scalar special functions on the positive real axis.

Everything is built from two classical expansions: the Stirling series
for the log-gamma function,

    ln Gamma(x) ~ (x - 1/2) ln x - x + ln(2 pi)/2
                  + sum_{k>=1} B_{2k} / (2k (2k-1) x^{2k-1}),

and its derivative for the digamma function,

    psi(x) ~ ln x - 1/(2x) - sum_{k>=1} B_{2k} / (2k x^{2k}).

Both series are asymptotic, but truncated where they are applied here
(x >= 10) the first omitted term is already below double-precision
roundoff: ~1.4e-19 relative for ln_gamma, ~4.4e-17 absolute for
digamma.  Smaller arguments are shifted upward with the recurrences
ln Gamma(x) = ln Gamma(x+1) - ln(x) and psi(x) = psi(x+1) - 1/x.

All functions are pure and operate on ordinary floats.
"""

import math

__all__ = ["ln_gamma", "digamma", "gamma_ratio_log", "sech"]

# Arguments below this are shifted upward before the series is used.
_SHIFT_THRESHOLD = 10.0

# B_{2k} / (2k (2k-1)) for k = 1..9, with B_2 = 1/6, B_4 = -1/30,
# B_6 = 1/42, B_8 = -1/30, B_10 = 5/66, B_12 = -691/2730, B_14 = 7/6,
# B_16 = -3617/510, B_18 = 43867/798.
_STIRLING_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
)

# B_{2k} / (2k) for k = 1..7, same Bernoulli numbers as above.
_DIGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

_HALF_LN_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _checked_real(x, name: str, positive: bool = False) -> float:
    """float(x), or a ValueError naming it unless it is finite (and > 0
    when positive is set); a value float() rejects gets the same
    ValueError.  The package's one input validator; ln_gamma and digamma
    call it on every evaluation."""
    try:
        x = float(x)
    except (TypeError, ValueError, OverflowError):
        bad = True
    else:
        bad = not math.isfinite(x) or (positive and x <= 0.0)
    if bad:
        kind = "a positive finite real" if positive else "a finite real"
        raise ValueError(f"{name} must be {kind}, got {x!r}")
    return x


def ln_gamma(x: float) -> float:
    """Natural logarithm of Gamma(x) for x > 0.

    Arguments below 10 are lifted with ln Gamma(x) = ln Gamma(x+1) - ln(x)
    until the Stirling series applies.  Relative accuracy is around 1e-15
    over [1e-3, 1e6] except within roundoff of the zeros at x = 1 and
    x = 2, where only absolute accuracy (a few ulp) is meaningful.
    """
    x = _checked_real(x, "argument", True)
    shift = 0.0
    while x < _SHIFT_THRESHOLD:
        shift += math.log(x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = 0.0
    for c in reversed(_STIRLING_COEFFS):
        series = series * inv2 + c
    series *= inv
    return (x - 0.5) * math.log(x) - x + _HALF_LN_TWO_PI + series - shift


def digamma(x: float) -> float:
    """Digamma function psi(x) = d/dx ln Gamma(x) for x > 0.

    Small arguments are lifted with psi(x) = psi(x+1) - 1/x.  Absolute
    accuracy is a few 1e-16 times the magnitude of the result, which is
    well below 1e-12 over [1e-3, 1e6].
    """
    x = _checked_real(x, "argument", True)
    shift = 0.0
    while x < _SHIFT_THRESHOLD:
        shift += 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = 0.0
    for c in reversed(_DIGAMMA_COEFFS):
        series = series * inv2 + c
    series *= inv2
    return math.log(x) - 0.5 * inv - series - shift


def gamma_ratio_log(p: float, q: float) -> float:
    """ln(Gamma(p) / Gamma(q)) for p, q > 0, formed without ever
    exponentiating, so there is no intermediate overflow even when the
    gamma values themselves would be astronomically large."""
    return ln_gamma(p) - ln_gamma(q)


def sech(y: float) -> float:
    """Hyperbolic secant 1/cosh(y), safe against overflow.

    Written as 2 e^{-|y|} / (1 + e^{-2|y|}) so large arguments underflow
    cleanly to 0 instead of overflowing cosh.
    """
    e = math.exp(-abs(y))
    return 2.0 * e / (1.0 + e * e)
