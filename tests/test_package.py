"""The package's public surface.

`malmsten` republishes the `__all__` of its four library modules, in
module order, and nothing else: a module's `__all__` is the one place a
public name is declared.
"""

import malmsten
from malmsten import cli, closedform, proofchain, quad, specfun

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

# The records: every public tuple class, the CLI's included.
RECORDS = (
    closedform.MalmstenParams, quad.ToleranceSpec, quad.QuadratureResult,
    proofchain.IdentityReport, proofchain.SkippedStep, proofchain.ChainReport,
    cli.OutputRecord,
)


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


def test_records_are_slotted_and_documented():
    public = [getattr(mod, name) for mod in (*LIBRARY, cli) for name in mod.__all__]
    assert {v for v in public if isinstance(v, type) and issubclass(v, tuple)} == set(RECORDS)
    for record in RECORDS:
        name = record.__name__
        fields = [1.0] * len(record._fields)
        assert not hasattr(record(*fields), "__dict__"), name
        # Its own docstring, not the generated "Name(field, ...)".
        assert record.__doc__ and not record.__doc__.startswith(f"{name}("), name
