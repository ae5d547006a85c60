"""Scalar special functions on the positive real axis.

ln_gamma is the standard library's math.lgamma behind the package's
input validator.  digamma uses the derivative of the Stirling series,

    psi(x) ~ ln x - 1/(2x) - sum_{k>=1} B_{2k} / (2k x^{2k}),

which is asymptotic, but truncated where it is applied here (x >= 10)
its first omitted term is ~4.4e-17 absolute, below double-precision
roundoff.  Smaller arguments are shifted upward with the recurrence
psi(x) = psi(x+1) - 1/x.

Three private kernels evaluate the combinations the closed forms and
the identity chain need, each as one expansion instead of a difference
of the public functions, whose leading terms would cancel:

    R(s)  = ln Gamma(s + 3/4) - ln Gamma(s + 1/4),
    R'(s) = psi(s + 3/4) - psi(s + 1/4),
    Q(x)  = psi(x) - psi(x + 1/2) - psi(x + 1/4) + psi(x + 3/4).

Each comes from the Bernoulli-polynomial expansion
ln Gamma(z + h) ~ (z + h - 1/2) ln z - z + ln(2 pi)/2
+ sum_{k>=2} (-1)^k B_k(h) / (k (k-1) z^{k-1}) (DLMF 5.11.8), in which
the ln z and z terms of a combination cancel exactly.  Shifts placed
symmetrically about 1/2 in the expansion variable leave only even
powers: z = s for R and R', z = x - 1/8 for Q.  An argument below
_LIFT_THRESHOLD (10) is first raised by whole steps with
Gamma(z+1) = z Gamma(z), whose terms all have one sign: R multiplies
(s + 1/4)/(s + 3/4) into a product and takes one logarithm at the end,
R' adds 1/2/((s + 1/4)(s + 3/4)) and Q subtracts
(x/4 + 3/32)/(x (x + 1/2)(x + 1/4)(x + 3/4)).  At the threshold the
first omitted series term is below 2^-56 of each result.

The identity chain's p_integral step integrates Q at x = a/2 + p/4
for p in (0, 1), where at small a the lift takes about nine steps.  So
below x = 2 Q is instead P(x - 3/2), a polynomial of degree 21 fitted
once to Q(t + 3/2) on t in [-1/2, 1/2] (the fixed-interval fit plus
recurrence of Cody, Strecok & Thacher, Math. Comp. 27 (1973) 123-127),
after one lift step when x < 1.  From x = 2 upward Q keeps its lift and
series: lifting down from the polynomial would add positive lift terms
to a negative Q, which cancel by about 90 times at x = 9.  Below x = 2
the step's quadrature side thus no longer shares the DLMF 5.11.8 lift
algebra with its closed side, delta(a) - ln a, which is formed from R.

Each series and the polynomial is one nested Horner expression whose
coefficients are unpacked from its tuple below, the one place they are
written.  It performs the same floating-point operations in the same
order as a loop over the reversed tuple would, so it gives the same
bits without the loop's per-term overhead.

All functions are pure and operate on ordinary floats.
"""

import math

__all__ = ["ln_gamma", "digamma", "gamma_ratio_log", "sech"]

# digamma arguments below this are shifted upward before the series is used.
_SHIFT_THRESHOLD = 10.0

# B_{2k} / (2k) for k = 1..7, with B_2 = 1/6, B_4 = -1/30, B_6 = 1/42,
# B_8 = -1/30, B_10 = 5/66, B_12 = -691/2730, B_14 = 7/6.
_DIGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

# Kernel arguments below this are lifted by whole steps before the series
# is used.  At 10 the three series need 8, 9 and 11 terms; a lower value
# trades lift steps for longer series and longer coefficient literals.
_LIFT_THRESHOLD = 10.0

# The kernels' series coefficients, each rational written as int / int,
# which Python rounds correctly to the nearest float.
# R: -2 B_k(3/4) / (k (k-1)) for odd k = 3..17, the coefficient of
# s^{1-k}; the numerators are the Euler numbers E_{k-1}.
_LGAMMA_RATIO_COEFFS = (
    1 / 64,
    -5 / 2048,
    61 / 49152,
    -1385 / 1048576,
    50521 / 20971520,
    -2702765 / 402653184,
    199360981 / 7516192768,
    -19391512145 / 137438953472,
)

# R': 2 B_k(3/4) / k for odd k = 3..19, the coefficient of s^{-k}: the R
# series differentiated term by term, -(k - 1) times R's coefficient of
# s^{1-k} (each product is the correctly rounded rational), and the k = 19
# term that R's series does not need.
_DIGAMMA_DIFF_COEFFS = tuple(
    -(k - 1) * c for k, c in zip(range(3, 19, 2), _LGAMMA_RATIO_COEFFS)
) + (-2404879675441 / 137438953472,)

# Q: -2 (B_k(1/8) - B_k(3/8)) / k for even k = 2..22, the coefficient of
# w^{-k} with w = x - 1/8; the odd powers cancel.
_DIGAMMA_QUARTET_COEFFS = (
    -1 / 8,
    11 / 512,
    -361 / 32768,
    24611 / 2097152,
    -2873041 / 134217728,
    512343611 / 8589934592,
    -129570724921 / 549755813888,
    44110959165011 / 35184372088832,
    -19450718635716001 / 2251799813685248,
    10784052561125704811 / 144115188075855872,
    -7342627959965776406281 / 9223372036854775808,
)

# Q(t + 3/2) for t in [-1/2, 1/2]: the coefficients of t^0 .. t^21, rounded
# to floats, of the polynomial from
#     mpmath.mp.dps = 60
#     mpmath.chebyfit(lambda t: Q(t + 1.5), [-0.5, 0.5], 22)
# with Q written in mpmath.digamma, which lists them from t^21 down.  Its
# absolute error is at most 2.8e-17, under 8.2e-16 of |Q| on [1, 2].
_DIGAMMA_QUARTET_POLY = (
    -0.06122034804301721,
    0.08309541830973491,
    -0.08326514992755835,
    0.07322434483938245,
    -0.05976037478948792,
    0.046451742490148516,
    -0.034891952188450544,
    0.02555836190575726,
    -0.0183691689862084,
    0.013010169275114943,
    -0.0091094864517672,
    0.006320836059631522,
    -0.004355539030689854,
    0.002983052550691153,
    -0.002024116999700809,
    0.0013746615229178513,
    -0.0009757300987859887,
    0.0006586353313422626,
    -0.00030943284650422143,
    0.00020854759013617024,
    -0.00036642461513201505,
    0.00024557503458372477,
)


def _checked_real(x, name: str, positive: bool = False, floor: float = -math.inf) -> float:
    """float(x), or a ValueError naming it unless it is finite and > 0
    when positive is set, >= floor otherwise; a value float() rejects
    gets the same ValueError.  The package's one input validator; ln_gamma
    and digamma call it on every evaluation, which is why a positive check
    skips the floor test."""
    try:
        x = float(x)
    except (TypeError, ValueError, OverflowError):
        bad = True
    else:
        bad = not math.isfinite(x) or (x <= 0.0 if positive else x < floor)
    if bad:
        kind = ("a positive finite real" if positive
                else f"a finite real >= {floor}" if floor > -math.inf else "a finite real")
        raise ValueError(f"{name} must be {kind}, got {x!r}")
    return x


def ln_gamma(x: float) -> float:
    """Natural logarithm of Gamma(x) for x > 0: math.lgamma, or inf past
    about x = 2.55e305, where the result overflows.

    Against mpmath, over 300,000 samples of x in [1e-300, 2.5e305], the
    error is at most 1.7e-15 * max(1, |ln Gamma(x)|).  Next to the zeros
    at x = 1 and x = 2 that bound is absolute, and the relative error
    grows without limit.
    """
    x = _checked_real(x, "argument", True)
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def digamma(x: float) -> float:
    """Digamma function psi(x) = d/dx ln Gamma(x) for x > 0.

    Small arguments are lifted with psi(x) = psi(x+1) - 1/x.  Below
    about x = 5.56e-309, where psi(x) ~ -1/x overflows, it returns -inf.
    Against mpmath, over 177,000 samples of x in [5.6e-309, 1.7e308],
    dense in (0, 12] where the lift runs, the error is at most
    1.45e-15 * max(1, |psi(x)|).
    Next to the zero at x = 1.4616... that bound is absolute, and the
    relative error grows without limit.
    """
    x = _checked_real(x, "argument", True)
    shift = 0.0
    while x < _SHIFT_THRESHOLD:
        shift += 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    c0, c1, c2, c3, c4, c5, c6 = _DIGAMMA_COEFFS
    series = ((((((c6 * inv2 + c5) * inv2 + c4) * inv2 + c3) * inv2 + c2) * inv2 + c1) * inv2
              + c0) * inv2
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


def _lgamma_ratio(s: float) -> float:
    """R(s) = ln Gamma(s + 3/4) - ln Gamma(s + 1/4) for s >= 0."""
    ratio = 1.0
    while s < _LIFT_THRESHOLD:
        ratio *= (s + 0.25) / (s + 0.75)
        s += 1.0
    inv2 = 1.0 / (s * s)
    c0, c1, c2, c3, c4, c5, c6, c7 = _LGAMMA_RATIO_COEFFS
    series = ((((((c7 * inv2 + c6) * inv2 + c5) * inv2 + c4) * inv2 + c3) * inv2 + c2) * inv2
              + c1) * inv2 + c0
    return 0.5 * math.log(s * ratio * ratio) + series * inv2


def _digamma_diff(s: float) -> float:
    """R'(s) = psi(s + 3/4) - psi(s + 1/4) for s >= 0."""
    lift = 0.0
    while s < _LIFT_THRESHOLD:
        lift += 0.5 / ((s + 0.25) * (s + 0.75))
        s += 1.0
    inv = 1.0 / s
    inv2 = inv * inv
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = _DIGAMMA_DIFF_COEFFS
    series = (((((((c8 * inv2 + c7) * inv2 + c6) * inv2 + c5) * inv2 + c4) * inv2 + c3) * inv2
               + c2) * inv2 + c1) * inv2 + c0
    return lift + inv * (0.5 + series * inv2)


def _digamma_quartet(x: float) -> float:
    """Q(x) = psi(x) - psi(x + 1/2) - psi(x + 1/4) + psi(x + 3/4) for x > 0.

    Below x = 2 it is the fitted polynomial P(x - 3/2), after one lift
    step if x < 1; from x = 2 upward it is the lift to _LIFT_THRESHOLD
    and the DLMF 5.11.8 series.  Against mpmath, over 27,506 samples of
    x in (0, 2.5], the relative error is at most 7.1e-16, largest next
    to x = 2, where the fit's error is largest against |Q|; over x in
    [1e-6, 1e12] it is at most 2e-15.
    """
    lift = 0.0
    if x < 2.0:
        if x < 1.0:
            lift = (0.25 * x + 0.09375) / (x * (x + 0.5) * (x + 0.25) * (x + 0.75))
            x += 1.0
        t = x - 1.5
        (c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14, c15, c16, c17, c18, c19,
         c20, c21) = _DIGAMMA_QUARTET_POLY
        return (((((((((((((((((((((c21 * t + c20) * t + c19) * t + c18) * t + c17) * t + c16)
                                * t + c15) * t + c14) * t + c13) * t + c12) * t + c11) * t + c10)
                          * t + c9) * t + c8) * t + c7) * t + c6) * t + c5) * t + c4) * t + c3)
                    * t + c2) * t + c1) * t + c0) - lift
    while x < _LIFT_THRESHOLD:
        lift += (0.25 * x + 0.09375) / (x * (x + 0.5) * (x + 0.25) * (x + 0.75))
        x += 1.0
    w = x - 0.125
    inv2 = 1.0 / (w * w)
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 = _DIGAMMA_QUARTET_COEFFS
    series = ((((((((((c10 * inv2 + c9) * inv2 + c8) * inv2 + c7) * inv2 + c6) * inv2 + c5)
                   * inv2 + c4) * inv2 + c3) * inv2 + c2) * inv2 + c1) * inv2 + c0)
    return series * inv2 - lift
