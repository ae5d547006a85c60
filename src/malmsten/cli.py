"""Command line driver.

Four subcommands: eval (closed forms), quad (the same integrals by
double-exponential quadrature), verify (the full identity chain over a
grid of a values), and table (closed form next to quadrature on a
uniform grid).

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 quadrature non-convergence.
Each handler only checks its arguments and computes; main is the one
place that times it, writes the record and chooses the exit code.
Outputs are deterministic apart from the timing_ms field: JSON objects
keep a fixed key order and every float is serialized with 17
significant digits, which round-trips losslessly through a parser.
CSV output is RFC 4180 with a header row; for the nested verify report
it carries one row per executed step (chain-level aggregates are a
JSON-only affair).

The argument parser is built once, at import, and holds no per-call
state: argparse keeps each parse in locals and reads sys.stdout,
sys.stderr and the terminal width only when it prints.
"""

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, fields

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


@dataclass(frozen=True)
class OutputRecord:
    """One command's worth of output: what ran, with which parameters,
    what came out, and how long it took (milliseconds)."""

    command: str
    parameters: dict
    results: object
    timing_ms: float


class _UsageError(ValueError):
    pass


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
    if v is None:
        return "null"
    if isinstance(v, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{_json_value(x)}" for k, x in v.items()) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_json_value(x) for x in v) + "]"
    raise TypeError(f"cannot serialize {type(v).__name__}")


def render_json(record: OutputRecord) -> str:
    return _json_value({
        "command": record.command,
        "parameters": record.parameters,
        "results": record.results,
        "timing_ms": record.timing_ms,
    })


def parse_json(text: str) -> OutputRecord:
    obj = json.loads(text)
    return OutputRecord(obj["command"], obj["parameters"], obj["results"],
                        obj["timing_ms"])


def _csv_cell(v) -> str:
    # Text as is, a missing column empty, every other value as in JSON.
    if isinstance(v, str):
        return v
    return "" if v is None else _json_value(v)


def _csv_table(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)  # csv defaults to RFC 4180 quoting and CRLF
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in header])
    return buf.getvalue()


_CSV_COLUMNS = {
    "eval": ("which", "a", "b", "value"),
    "quad": ("which", "a", "b", "value", "error_estimate", "evaluations", "converged"),
    "verify": ("name", "params", "lhs", "rhs", "abs_err", "rel_err", "tol",
               "pass", "evaluations", "note"),
    "table": ("a", "delta_closed", "delta_quadrature", "abs_err", "converged"),
}


def render_csv(record: OutputRecord) -> str:
    header = _CSV_COLUMNS[record.command]
    if record.command in ("eval", "quad"):
        rows = [dict(record.parameters, **record.results)]
    elif record.command == "verify":
        rows = record.results["steps"]
    else:
        rows = record.results["rows"]
    return _csv_table(header, rows)


def parse_csv(text: str):
    """Rows of a rendered CSV table as a list of column-name -> string
    dicts; numeric cells recover their exact float via float()."""
    reader = csv.reader(io.StringIO(text))
    it = iter(reader)
    header = next(it)
    return [dict(zip(header, row)) for row in it]


# ---------------------------------------------------------------------------
# Subcommand handlers.

def _field_dict(obj) -> dict:
    """A dataclass instance's fields in order.  Unlike dataclasses.asdict
    it copies no value; the record only reads them."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _as_usage(fn, *args):
    """fn(*args), with a ValueError from checking user input re-raised as
    a usage error."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _checked_param(value, name: str) -> float:
    return _as_usage(_checked_real, value, "--" + name)


def _which_params(args) -> dict:
    """Validate the --which/--a/--b combination and return the parameter
    dict in stable order."""
    which = args.which
    params = {"which": which}
    if which == "a":
        if args.a is None:
            raise _UsageError("--which a requires --a")
        if args.b is not None:
            raise _UsageError("--which a does not take --b")
        params["a"] = _checked_param(args.a, "a")
    elif which == "b":
        if args.a is not None or args.b is not None:
            raise _UsageError("--which b takes neither --a nor --b")
    else:
        if args.a is None or args.b is None:
            raise _UsageError("--which c requires both --a and --b")
        params["a"] = _checked_param(args.a, "a")
        params["b"] = _checked_param(args.b, "b")
    return params


def _cmd_eval(args):
    params = _which_params(args)
    if args.which == "a":
        value = delta_closed(params["a"])
    elif args.which == "b":
        value = vardi_b_constant()
    else:
        value = malmsten_c(_as_usage(MalmstenParams, params["a"], params["b"]))
    return params, {"value": value}


def _cmd_quad(args):
    params = _which_params(args)
    tol = _as_usage(ToleranceSpec, _checked_param(args.rel_tol, "rel-tol"))
    params["rel_tol"] = tol.rel_tol
    if args.which == "a":
        integrand = delta_integrand(params["a"])
    elif args.which == "b":
        integrand = vardi_b_integrand()
    else:
        integrand = malmsten_c_integrand(_as_usage(MalmstenParams, params["a"], params["b"]))
    res = integrate_semi_infinite(integrand, tol)
    if not math.isfinite(res.value):
        raise QuadratureError(f"quadrature diverged (value {res.value!r})")
    return params, _field_dict(res)


def _parse_grid(text: str):
    entries = [s.strip() for s in text.split(",")]
    if any(not s for s in entries):
        raise _UsageError(f"--grid must be a comma-separated list of reals, got {text!r}")
    return [_checked_param(s, "grid") for s in entries]


def _step_dict(step) -> dict:
    # IdentityReport's fields in order, with "passed" keyed as "pass".
    return {("pass" if k == "passed" else k): v for k, v in _field_dict(step).items()}


def _cmd_verify(args):
    grid = _parse_grid(args.grid)
    report = _as_usage(run_full_chain, grid, _checked_param(args.tol, "tol"))
    return {"grid": grid, "tol": float(args.tol)}, {
        "steps": [_step_dict(s) for s in report.steps],
        "skipped": [_field_dict(s) for s in report.skipped],
        "overall_pass": report.overall_pass,
        "total_evaluations": report.total_evaluations,
    }


def _cmd_table(args):
    a_min = _checked_param(args.a_min, "a-min")
    a_max = _checked_param(args.a_max, "a-max")
    steps = args.steps
    if steps < 2:
        raise _UsageError(f"--steps must be at least 2, got {steps}")
    if not a_min < a_max:
        raise _UsageError(f"--a-min must be strictly below --a-max, got {a_min} and {a_max}")
    span = a_max - a_min
    if not math.isfinite(span):
        raise _UsageError(f"the span from --a-min to --a-max overflows, got {a_min} and {a_max}")
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
    return {"a_min": a_min, "a_max": a_max, "steps": steps}, {"rows": rows}


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
    pe.add_argument("--format", choices=("json", "csv"), default="json")

    pq = sub.add_parser("quad", help="the same integrals by quadrature")
    add_which(pq)
    pq.add_argument("--rel-tol", type=float, default=DEFAULT_TOLERANCE.rel_tol, dest="rel_tol")
    pq.add_argument("--format", choices=("json", "csv"), default="json")

    pv = sub.add_parser("verify", help="run the identity chain over a grid")
    pv.add_argument("--grid", required=True,
                    help="comma-separated a values, e.g. 0.25,0.5,1")
    pv.add_argument("--tol", type=float, default=DEFAULT_TOL)
    pv.add_argument("--format", choices=("json", "csv"), default="json")

    pt = sub.add_parser("table", help="closed form vs quadrature on a grid")
    pt.add_argument("--a-min", type=float, required=True, dest="a_min")
    pt.add_argument("--a-max", type=float, required=True, dest="a_max")
    pt.add_argument("--steps", type=int, required=True)
    pt.add_argument("--format", choices=("json", "csv"), default="csv")

    return parser


_HANDLERS = {
    "eval": _cmd_eval,
    "quad": _cmd_quad,
    "verify": _cmd_verify,
    "table": _cmd_table,
}

_PARSER = _build_parser()

# Outcomes whose record is still written but whose command failed: the
# result field that must be true, the exit code and the message.
_FAILURES = {
    "quad": ("converged", 3, "quadrature did not converge within the level budget"),
    "verify": ("overall_pass", 1, "identity chain verification failed"),
}


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help; normalize
        # anything else to a usage failure.
        return exc.code if exc.code in (0, 2) else 2
    try:
        start = time.perf_counter()
        params, results = _HANDLERS[args.command](args)
        record = OutputRecord(args.command, params, results,
                              (time.perf_counter() - start) * 1000.0)
        sys.stdout.write(render_csv(record) if args.format == "csv"
                         else render_json(record) + "\n")
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # backstop: diagnostics over tracebacks, always
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failure = _FAILURES.get(args.command)
    if failure and not results[failure[0]]:
        print(f"error: {failure[2]}", file=sys.stderr)
        return failure[1]
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
