"""Multi-precision references and the per-workload failure rules.

Runs in the parent process only; the timed worker never imports mpmath.
References are the closed forms evaluated in mpmath with 50 working
digits, so they keep at least 30 correct digits after the ~15 digits of
cancellation in delta and its derivative at |a| ~ 1e12.  They are
independent of the library: only the mathematics is shared.
"""

import math
from functools import lru_cache

import mpmath

_DPS = 50
_MPF = mpmath.mpf


def _delta(a):
    s = abs(_MPF(a)) / 2
    return 2 * (mpmath.log(mpmath.sqrt(2)) + mpmath.loggamma(s + 0.75)
                - mpmath.loggamma(s + 0.25))


def _malmsten_c(a, b):
    a, b = _MPF(a), _MPF(b)
    return (mpmath.pi / b) * (mpmath.log(2) + mpmath.log(a) / 2 - mpmath.log(b) / 2
                              + 1.5 * mpmath.log(mpmath.pi) - 2 * mpmath.loggamma(0.25))


_REFS = {
    "delta_closed": _delta,
    "delta_derivative": lambda a: (mpmath.digamma(_MPF(a) / 2 + 0.75)
                                   - mpmath.digamma(_MPF(a) / 2 + 0.25)),
    "malmsten_c": _malmsten_c,
    "vardi_b_constant": lambda: _malmsten_c(1, 1),
    "ln_gamma": lambda x: mpmath.loggamma(_MPF(x)),
    "digamma": lambda x: mpmath.digamma(_MPF(x)),
    # Integrals the quad workload and the traced engine calls stand for.
    "delta": _delta,
    "vardi": lambda: _malmsten_c(1, 1),
    "c": _malmsten_c,
    "zdelta": lambda a: _delta(a) - mpmath.log(_MPF(a)),
    "sech": lambda: mpmath.pi / 2,
}


@lru_cache(maxsize=None)
def reference(name, *args):
    """The exact value (as an mpf) of the named function or integral."""
    with mpmath.workdps(_DPS):
        return _REFS[name](*args)


def abs_error(value, ref):
    """|value - ref| as a float; inf when value is not finite."""
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        return math.inf
    with mpmath.workdps(_DPS):
        return float(abs(_MPF(value) - ref))


def closed_fails(value, ref):
    """Closed-form rule: error above max(1e-12 |ref|, 1e-15)."""
    return abs_error(value, ref) > max(1e-12 * float(abs(ref)), 1e-15)


def quad_fails(value, estimate, converged, rel_tol, abs_tol, ref):
    """Quadrature rule: not converged, or an oracle error above the
    reported estimate or above max(abs_tol, rel_tol |ref|)."""
    err = abs_error(value, ref)
    return (not converged or err > estimate
            or err > max(abs_tol, rel_tol * float(abs(ref))))


def quad_dishonest(value, estimate, converged, ref):
    """converged=True with an oracle error the estimate does not cover."""
    return bool(converged) and abs_error(value, ref) > estimate
