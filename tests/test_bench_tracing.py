"""The benchmark's tracer must find and give back every name it wraps.

bench/tracing.py takes its per-layer counts by replacing library names
with wrappers, looked up with getattr: a renamed or removed name makes
Tracer.install raise, and a name it does not put back would leave the
library traced after the benchmark is done with it.
"""

import importlib.util
from pathlib import Path

import malmsten
from malmsten import cli, closedform, proofchain, specfun

TRACING = Path(__file__).parent.parent / "bench" / "tracing.py"

MODULES = (malmsten, cli, closedform, proofchain, specfun)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    return {mod.__name__: dict(vars(mod)) for mod in MODULES}


def _changed(before, after):
    return {(mod, name) for mod in before for name in before[mod].keys() | after[mod].keys()
            if before[mod].get(name) is not after[mod].get(name)}


def test_tracer_restores_every_name_it_patches():
    before = _namespaces()
    tracer = _load_tracing().Tracer()
    try:
        tracer.install(malmsten)
        patched = _changed(before, _namespaces())
    finally:
        tracer.restore()
    assert {("malmsten.closedform", "ln_gamma"), ("malmsten.specfun", "ln_gamma"),
            ("malmsten.proofchain", "check_p_integral"), ("malmsten.cli", "render_json"),
            ("malmsten", "run_full_chain")} <= patched
    assert not _changed(before, _namespaces())
