"""Command line driver.

Four subcommands: eval (closed forms), quad (the same integrals by
double-exponential quadrature), verify (the full identity chain over a
grid of a values), and table (closed form next to quadrature on a
uniform grid).

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 quadrature non-convergence.
Each subcommand is declared once, on its subparser: its options, its
handler and its default format.  A handler checks its arguments,
computes and gives its verdict: None, or the exit code and message of
a command that failed but still writes its record.  main times the
handler, writes the record and reports the verdict, or the error that
was raised: a ValueError (bad input, or a value outside the double
range) as a usage error and a QuadratureError as non-convergence, each
on an "error:" line.  Any other exception is a bug: main prints
"internal error:" and its message, without a traceback, and exits 2.
Outputs are deterministic apart from the timing_ms field: JSON objects
keep a fixed key order and every float is serialized with 17
significant digits, which round-trips losslessly through a parser.
CSV output is RFC 4180 with a header row; for the nested verify report
it carries one row per executed step (chain-level aggregates are a
JSON-only affair).

The argument parser is built once, at import, and holds no per-call
state: argparse keeps each parse in locals and reads sys.stdout,
sys.stderr and the terminal width only when it prints.  csv is imported
only by the two functions that read or write CSV, so a JSON command
never loads it.
"""

import argparse
import io
import json
import math
import sys
import time
from collections import namedtuple

from .closedform import MalmstenParams, delta_closed, malmsten_c, vardi_b_constant
from .proofchain import (
    DEFAULT_TOL,
    delta_integrand,
    malmsten_c_integrand,
    run_full_chain,
    vardi_b_integrand,
)
from .quad import DEFAULT_TOLERANCE, QuadratureError, ToleranceSpec, integrate_semi_infinite
from .specfun import _checked_real

__all__ = ["OutputRecord", "render_json", "render_csv", "parse_json", "parse_csv", "main"]


class OutputRecord(namedtuple("OutputRecord", "command parameters results timing_ms")):
    """One command's worth of output: what ran, with which parameters,
    what came out, and how long it took (milliseconds)."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# Serialization.  The stdlib json encoder formats floats with repr, so a
# small hand-rolled emitter enforces the 17-significant-digit contract and
# the stable (insertion) key order.

def _format_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"non-finite value {v!r} cannot be serialized")
    return format(v, ".17g")


def _json_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _format_float(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_json_value(x)}" for k, x in v.items()) + "}"
    if type(v) in (list, tuple):  # a record is a tuple too, but renders only via _asdict
        return "[" + ",".join(_json_value(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def render_json(record: OutputRecord) -> str:
    return _json_value(record._asdict())


def parse_json(text: str) -> OutputRecord:
    obj = json.loads(text)
    return OutputRecord(obj["command"], obj["parameters"], obj["results"],
                        obj["timing_ms"])


def _csv_cell(v) -> str:
    # Text as is, a missing column empty, every other value as in JSON.
    if isinstance(v, str):
        return v
    return "" if v is None else _json_value(v)


# Each command's CSV columns, and the results key that holds its rows;
# None makes one row of the parameters and results together.
_CSV = {
    "eval": (("which", "a", "b", "value"), None),
    "quad": (("which", "a", "b", "value", "error_estimate", "evaluations", "converged"),
             None),
    "verify": (("name", "params", "lhs", "rhs", "abs_err", "rel_err", "tol",
                "pass", "evaluations", "note"), "steps"),
    "table": (("a", "delta_closed", "delta_quadrature", "abs_err", "converged"), "rows"),
}


def render_csv(record: OutputRecord) -> str:
    import csv

    header, key = _CSV[record.command]
    rows = record.results[key] if key else [dict(record.parameters, **record.results)]
    buf = io.StringIO()
    writer = csv.writer(buf)  # csv defaults to RFC 4180 quoting and CRLF
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in header])
    return buf.getvalue()


def parse_csv(text: str):
    """Rows of a rendered CSV table as a list of column-name -> string
    dicts; numeric cells recover their exact float via float()."""
    import csv

    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return [dict(zip(header, row)) for row in reader]


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns the parameters, the results and its
# verdict (None, or the exit code and message of a failed command).

def _checked_param(value, name: str) -> float:
    return _checked_real(value, "--" + name)


def _integral(args):
    """Check the --which/--a/--b combination.  Returns the parameter dict
    in stable order, then the integral's closed form and integrand as
    zero-argument callables.  They call this module's names as they stand
    (bench/tracing.py replaces them), and for c check a, b > 0 only when
    called, which is after --rel-tol."""
    which = args.which
    params = {"which": which}
    if which == "a":
        if args.a is None:
            raise ValueError("--which a requires --a")
        if args.b is not None:
            raise ValueError("--which a does not take --b")
        a = params["a"] = _checked_param(args.a, "a")
        return params, lambda: delta_closed(a), lambda: delta_integrand(a)
    if which == "b":
        if args.a is not None or args.b is not None:
            raise ValueError("--which b takes neither --a nor --b")
        return params, vardi_b_constant, vardi_b_integrand
    if args.a is None or args.b is None:
        raise ValueError("--which c requires both --a and --b")
    a = params["a"] = _checked_param(args.a, "a")
    b = params["b"] = _checked_param(args.b, "b")
    return (params, lambda: malmsten_c(MalmstenParams(a, b)),
            lambda: malmsten_c_integrand(MalmstenParams(a, b)))


def _cmd_eval(args):
    params, closed, _ = _integral(args)
    return params, {"value": closed()}, None


def _cmd_quad(args):
    params, _, integrand = _integral(args)
    tol = ToleranceSpec(_checked_param(args.rel_tol, "rel-tol"))
    params["rel_tol"] = tol.rel_tol
    res = integrate_semi_infinite(integrand(), tol)
    if not math.isfinite(res.value):
        raise QuadratureError(f"quadrature diverged (value {res.value!r})")
    return params, res._asdict(), (
        None if res.converged else (3, "quadrature did not converge within the level budget"))


def _parse_grid(text: str):
    entries = [s.strip() for s in text.split(",")]
    if any(not s for s in entries):
        raise ValueError(f"--grid must be a comma-separated list of reals, got {text!r}")
    return [_checked_param(s, "grid") for s in entries]


def _step_dict(step) -> dict:
    # IdentityReport's fields in order, with "passed" keyed as "pass".
    return {("pass" if k == "passed" else k): v for k, v in step._asdict().items()}


def _cmd_verify(args):
    grid = _parse_grid(args.grid)
    tol = _checked_param(args.tol, "tol")
    report = run_full_chain(grid, tol)
    return {"grid": grid, "tol": tol}, {
        "steps": [_step_dict(s) for s in report.steps],
        "skipped": [s._asdict() for s in report.skipped],
        "overall_pass": report.overall_pass,
        "total_evaluations": report.total_evaluations,
    }, None if report.overall_pass else (1, "identity chain verification failed")


def _cmd_table(args):
    a_min = _checked_param(args.a_min, "a-min")
    a_max = _checked_param(args.a_max, "a-max")
    steps = args.steps
    if steps < 2:
        raise ValueError(f"--steps must be at least 2, got {steps}")
    if not a_min < a_max:
        raise ValueError(f"--a-min must be strictly below --a-max, got {a_min} and {a_max}")
    span = a_max - a_min
    if not math.isfinite(span):
        raise ValueError(f"the span from --a-min to --a-max overflows, got {a_min} and {a_max}")
    rows = []
    for i in range(steps):
        a = a_min + span * (i / (steps - 1))
        closed = delta_closed(a)
        res = integrate_semi_infinite(delta_integrand(a))
        rows.append({
            "a": a,
            "delta_closed": closed,
            "delta_quadrature": res.value,
            "abs_err": abs(res.value - closed),
            "converged": res.converged,
        })
    return {"a_min": a_min, "a_max": a_max, "steps": steps}, {"rows": rows}, None


# ---------------------------------------------------------------------------
# Parser and entry point.

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malmsten",
        description="Evaluate logarithmic sech integrals in closed form and "
                    "verify them by double-exponential quadrature.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_which(p):
        p.add_argument("--which", required=True, choices=("a", "b", "c"),
                       help="a: ln(x^2+a^2)/cosh(pi x); b: ln(x)/cosh(x); "
                            "c: ln(a x)/cosh(b x)")
        p.add_argument("--a", type=float, default=None)
        p.add_argument("--b", type=float, default=None)

    pe = sub.add_parser("eval", help="closed-form values")
    add_which(pe)

    pq = sub.add_parser("quad", help="the same integrals by quadrature")
    add_which(pq)
    pq.add_argument("--rel-tol", type=float, default=DEFAULT_TOLERANCE.rel_tol, dest="rel_tol")

    pv = sub.add_parser("verify", help="run the identity chain over a grid")
    pv.add_argument("--grid", required=True,
                    help="comma-separated a values, e.g. 0.25,0.5,1")
    pv.add_argument("--tol", type=float, default=DEFAULT_TOL)

    pt = sub.add_parser("table", help="closed form vs quadrature on a grid")
    pt.add_argument("--a-min", type=float, required=True, dest="a_min")
    pt.add_argument("--a-max", type=float, required=True, dest="a_max")
    pt.add_argument("--steps", type=int, required=True)

    for p, handler, default_format in ((pe, _cmd_eval, "json"), (pq, _cmd_quad, "json"),
                                       (pv, _cmd_verify, "json"), (pt, _cmd_table, "csv")):
        p.add_argument("--format", choices=("json", "csv"), default=default_format)
        p.set_defaults(handler=handler)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; normalize
        # anything else to a usage failure.
        return exc.code if exc.code in (0, 2) else 2
    try:
        start = time.perf_counter()
        params, results, failure = args.handler(args)
        record = OutputRecord(args.command, params, results,
                              (time.perf_counter() - start) * 1000.0)
        sys.stdout.write(render_csv(record) if args.format == "csv"
                         else render_json(record) + "\n")
    except ValueError as exc:  # bad input, or a value outside the double range
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # backstop: a bug, reported without a traceback
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    if failure:
        code, message = failure
        print(f"error: {message}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
