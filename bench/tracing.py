"""Per-layer spans and counts, taken by wrapping library names from outside.

The layers are the library's five modules.  ``Tracer.install`` replaces
the public names that each module imports from the layer below (for
example ``proofchain.integrate_semi_infinite``, ``proofchain.digamma``,
``closedform.ln_gamma`` and ``cli.render_json``), plus the package-level
names the benchmark's own ops call, with wrappers that record a span:
layer, label, duration and the time covered by child spans.  Nothing in
``src/`` is edited.

A layer's self time is its spans' durations minus their children's;
its inclusive time counts only spans with no enclosing span of the
same layer.  Integrands handed to the engine are wrapped as spans of
the module that made them, so ``quad`` self time is the engine alone.

The wrappers also cross-check their counts against the program's own
reports (``QuadratureResult.evaluations``, ``IdentityReport.evaluations``
and ``ChainReport.total_evaluations``); every disagreement is kept in
``mismatches``.
"""

import functools
from collections import Counter, defaultdict
from time import perf_counter

STEPS = ("delta_quadrature", "arctan_kernel", "sech_cosine_transform", "t_domain",
         "z_domain", "alt_series_digamma", "p_integral", "b_reduction", "c_quadrature")

_FACTORIES = {"delta_integrand": "delta", "vardi_b_integrand": "vardi",
              "malmsten_c_integrand": "c"}


class Tracer:
    def __init__(self):
        self.calls = Counter()          # label -> calls
        self.label_s = defaultdict(float)
        self.incl_s = defaultdict(float)  # layer -> time of outermost spans
        self.self_s = defaultdict(float)
        self._depth = Counter()
        self._stack = []                # child time of each open span
        self.evals = 0                  # integrand calls seen by the wrappers
        self.converged = 0
        self.failed_steps = 0
        self.skipped = 0
        self.step_evals = Counter()     # step -> integrand calls (series terms for
                                        # alt_series_digamma, which has no integrand)
        self.closed_calls = Counter()   # (name, args, result) -> calls
        self.quad_calls = Counter()     # (oracle key, rel_tol, abs_tol, value, est, conv) -> calls
        self.mismatches = []
        self._saved = []

    # -- spans --------------------------------------------------------------

    def _span(self, layer, label, fn, after=None):
        calls, label_s, incl_s, self_s = self.calls, self.label_s, self.incl_s, self.self_s
        depth, stack = self._depth, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[label] += 1
            depth[layer] += 1
            frame = [0.0]
            stack.append(frame)
            evals0 = self.evals
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                self_s[layer] += dt - frame[0]
                label_s[label] += dt
                depth[layer] -= 1
                if not depth[layer]:
                    incl_s[layer] += dt
            if after is not None:
                after(args, result, self.evals - evals0)
            return result

        return wrapper

    def _integrand(self, f):
        module = getattr(f, "__module__", "") or ""
        layer = module.rsplit(".", 1)[-1] if module.startswith("malmsten") else "bench"
        inner = self._span(layer, "integrand." + layer, f)

        def counted(x):
            self.evals += 1
            return inner(x)

        return counted

    def _patch(self, module, name, wrapper):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def restore(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    # -- post-call checks ---------------------------------------------------

    def _after_quad(self, args, res, evals):
        if evals != res.evaluations:
            self.mismatches.append(
                f"quad call: wrappers counted {evals} integrand calls, "
                f"result reports {res.evaluations}")
        self.converged += bool(res.converged)

    def _quad_wrapper(self, fn, label):
        after = self._after_quad
        span = self._span("quad", label, fn, after)

        def wrapper(f, *rest, **kwargs):
            key = getattr(f, "oracle_key", None)
            res = span(self._integrand(f), *rest, **kwargs)
            if key is not None:
                tol = next((a for a in (*rest, *kwargs.values()) if hasattr(a, "rel_tol")),
                           self._default_tol)
                self.quad_calls[(key, tol.rel_tol, tol.abs_tol, res.value,
                                 res.error_estimate, res.converged)] += 1
            return res

        return wrapper

    def _after_step(self, name):
        def after(args, report, evals):
            if not report.passed:
                self.failed_steps += 1
            if name == "alt_series_digamma":
                self.step_evals[name] += report.evaluations
                expected = 0
            else:
                self.step_evals[name] += evals
                expected = report.evaluations
            if evals != expected:
                self.mismatches.append(
                    f"{name}{args}: wrappers counted {evals} integrand calls, "
                    f"report says {report.evaluations}")
        return after

    def _after_chain(self, args, report, evals):
        self.skipped += len(report.skipped)
        step_sum = sum(s.evaluations for s in report.steps)
        if step_sum != report.total_evaluations:
            self.mismatches.append(f"chain: steps sum to {step_sum}, total is "
                                   f"{report.total_evaluations}")
        series = sum(s.evaluations for s in report.steps if s.name == "alt_series_digamma")
        if evals + series != report.total_evaluations:
            self.mismatches.append(
                f"chain{args}: wrappers counted {evals} integrand calls plus {series} "
                f"series terms, report total is {report.total_evaluations}")

    def _after_closed(self, name):
        def after(args, result, evals):
            if name == "malmsten_c":
                args = (args[0].a, args[0].b)
            self.closed_calls[(name, tuple(args), result)] += 1
        return after

    # -- installation -------------------------------------------------------

    def install(self, M):
        """Wrap the names of the imported ``malmsten`` package ``M``."""
        from malmsten import cli, closedform, proofchain, specfun

        self._default_tol = M.DEFAULT_TOLERANCE

        def spec(fn_name):
            return self._span("specfun", "specfun." + fn_name, getattr(specfun, fn_name))

        # specfun, as seen from each caller (gamma_ratio_log calls
        # specfun.ln_gamma itself, so that name is wrapped too).
        for mod, names in ((closedform, ("ln_gamma", "digamma", "gamma_ratio_log")),
                           (proofchain, ("digamma", "gamma_ratio_log", "sech")),
                           (specfun, ("ln_gamma",)),
                           (M, ("ln_gamma", "digamma"))):
            for name in names:
                self._patch(mod, name, spec(name))
        proofchain.sech.oracle_key = ("sech",)

        # closedform
        for mod, names in ((proofchain, ("delta_closed", "malmsten_c", "vardi_b_constant")),
                           (cli, ("delta_closed", "malmsten_c", "vardi_b_constant")),
                           (M, ("delta_closed", "malmsten_c", "delta_derivative"))):
            for name in names:
                fn = getattr(closedform, name)
                self._patch(mod, name, self._span("closedform", "closedform." + name, fn,
                                                  self._after_closed(name)))

        # quad
        for mod, names in ((proofchain, ("integrate_semi_infinite", "integrate_finite")),
                           (cli, ("integrate_semi_infinite",)),
                           (M, ("integrate_semi_infinite", "integrate_finite"))):
            for name in names:
                self._patch(mod, name, self._quad_wrapper(getattr(mod, name), "quad." + name))

        # Integrand factories are tagged with the integral they stand for,
        # so the parent can check the engine's error estimates against the
        # oracle.  They are too cheap to be spans.
        for mod in (proofchain, cli):
            for name, kind in _FACTORIES.items():
                self._patch(mod, name, _tagging(getattr(proofchain, name), kind))

        # proofchain: the nine steps run_full_chain calls by name, and the
        # chain itself as the benchmark and the cli call it.
        for step in STEPS:
            fn = getattr(proofchain, "check_" + step)
            self._patch(proofchain, "check_" + step,
                        self._span("proofchain", "proofchain." + step, fn,
                                   self._after_step(step)))
        for mod in (M, cli):
            self._patch(mod, "run_full_chain",
                        self._span("proofchain", "proofchain.run_full_chain",
                                   proofchain.run_full_chain, self._after_chain))

        # cli: its entry point, and the renderers _render calls by name.
        self._patch(cli, "main", self._span("cli", "cli.main", cli.main))
        for name in ("render_json", "render_csv"):
            self._patch(cli, name, self._span("render", "cli." + name, getattr(cli, name)))


def _tagging(factory, kind):
    @functools.wraps(factory)
    def wrapper(*args):
        f = factory(*args)
        params = (args[0].a, args[0].b) if kind == "c" else tuple(float(a) for a in args)
        f.oracle_key = (kind,) + params
        return f
    return wrapper
