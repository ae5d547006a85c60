"""The package's public surface.

`malmsten` republishes the `__all__` of its four library modules, in
module order, and nothing else: a module's `__all__` is the one place a
public name is declared.
"""

import malmsten
from malmsten import closedform, proofchain, quad, specfun

LIBRARY = (closedform, proofchain, quad, specfun)

# The package's names.  Removing one is an API change for the README.
PUBLIC = {
    "MalmstenParams", "delta_closed", "delta_derivative", "malmsten_c",
    "vardi_b_constant",
    "DEFAULT_TOL", "SMALL_A_CUTOFF", "ChainReport", "IdentityReport",
    "SkippedStep", "delta_integrand", "malmsten_c_integrand",
    "vardi_b_integrand", "check_alt_series_digamma", "check_arctan_kernel",
    "check_b_reduction", "check_c_quadrature", "check_delta_quadrature",
    "check_p_integral", "check_sech_cosine_transform", "check_t_domain",
    "check_z_domain", "run_full_chain",
    "DEFAULT_TOLERANCE", "QuadratureError", "QuadratureResult",
    "ToleranceSpec", "integrate_finite", "integrate_semi_infinite",
    "digamma", "gamma_ratio_log", "ln_gamma", "sech",
}


def test_all_is_the_library_modules_all_in_order():
    assert malmsten.__all__ == [name for mod in LIBRARY for name in mod.__all__]
    assert len(set(malmsten.__all__)) == len(malmsten.__all__)
    assert set(malmsten.__all__) == PUBLIC


def test_each_name_is_its_modules_object():
    for mod in LIBRARY:
        for name in mod.__all__:
            assert getattr(malmsten, name) is getattr(mod, name), (mod.__name__, name)


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from malmsten import *", ns)
    del ns["__builtins__"]
    assert ns.keys() == set(malmsten.__all__)
