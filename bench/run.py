"""Benchmark of the malmsten library: four workloads, oracle-checked.

    python3 bench/run.py --workload chain --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Run from the repository root (the library is imported from ``src/``).
Each run builds the workload's input pool from the seed, times a
single-client closed loop over it in a fresh worker process (see
``worker.py``), and then, in this process, checks every op: that its
output is well formed, and whether it meets the workload's failure rule
(the 30-digit mpmath oracle, the chain's own verdicts or the direct
library call).  The last line of stdout is one JSON object:
``correct``, ``attempted`` and ``failed`` (ops, and ops whose output is
malformed) and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
where ``pass_share`` is the failure rule's outcome, the per-layer
metrics of a separate traced pass with ``--trace 1``.  ``--workload
all`` runs every workload both ways and prints a table.

Exits 1 without a result when the library cannot be imported.
"""

import argparse
import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import oracle  # noqa: E402  (parent only; the worker never imports it)
import workloads  # noqa: E402
from tracing import STEPS  # noqa: E402

SETUP_WORKERS = 20     # extra fresh workers that only time set-up
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _worker(request):
    proc = subprocess.run([sys.executable, "-I", os.path.join(BENCH_DIR, "worker.py")],
                          input=json.dumps(request), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S, cwd=request["root"])
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _import_library():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "malmsten", "__init__.py")):
        raise BenchError(f"no library source under {src}")
    sys.path.insert(0, src)
    import malmsten
    import malmsten.cli
    return malmsten


# ---------------------------------------------------------------------------
# Two checks of each input's output.
#
# The workload's failure rule (``RULES``) returns (checked, failed) in
# the rule's own unit: steps for chain, values for closed, ops
# otherwise.  Its share feeds ``pass_share``; the known defect regions
# the inputs keep on purpose fail it.
#
# ``broken`` says whether the output is not a well-formed answer at
# all: the op raised, returned a non-finite number, or returned a report
# that contradicts itself.  Such an op is a ``failed`` op of the result
# line.  For cli the two are the same: its failure rule has no
# accuracy part, only the interface's own promises.

def _finite(*xs):
    return all(isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
               for x in xs)


def _rule_chain(M, grid, s):
    if "error" in s:
        return 1, 1
    return len(s["steps"]), sum(1 for step in s["steps"] if not step[1])


def _broken_chain(M, grid, s):
    steps = s["steps"]
    if (len(steps) + s["skipped"] != (len(STEPS) - 1) * len(grid) + 1
            or s["total_evaluations"] != sum(step[2] for step in steps)
            or s["overall_pass"] != all(step[1] for step in steps)):
        return True
    for name, passed, evals, lhs, rhs in steps:
        if name not in STEPS or not _finite(lhs, rhs) or evals < 0:
            return True
        # A step may only pass when its two sides agree within the
        # chain's tolerance, absolutely or relatively.
        err = abs(lhs - rhs)
        denom = max(abs(lhs), abs(rhs))
        if passed and not (err <= workloads.CHAIN_TOL
                           or (denom > 0.0 and err / denom <= workloads.CHAIN_TOL)):
            return True
    return False


def _rule_quad(M, case, s):
    if "error" in s:
        return 1, 1
    kind, params, rel_tol = case
    value, estimate, _, converged = s
    ref = oracle.reference(kind, *params)
    return 1, int(oracle.quad_fails(value, estimate, converged, rel_tol,
                                    workloads.QUAD_ABS_TOL, ref))


def _broken_quad(M, case, s):
    value, estimate, evals, converged = s
    return not (_finite(value, estimate) and estimate >= 0.0
                and isinstance(evals, int) and evals >= 1 and isinstance(converged, bool))


def _closed_refs(row):
    a, b, x = row
    aa = abs(a)
    return (oracle.reference("delta_closed", a), oracle.reference("delta_derivative", aa),
            oracle.reference("malmsten_c", aa, b), oracle.reference("ln_gamma", x),
            oracle.reference("digamma", x))


def _rule_closed(M, row, s):
    # Counted per value, five to an op.
    if "error" in s:
        return 5, 5
    return 5, sum(oracle.closed_fails(v, r) for v, r in zip(s, _closed_refs(row)))


def _broken_closed(M, row, s):
    return len(s) != len(workloads.CLOSED_FUNCS) or not _finite(*s)


def _same(x, y):
    """Bitwise equality of two floats (or of a float and its text)."""
    return float(x).hex() == float(y).hex()


def _expected_cli(M, case):
    """Exit code and result rows from calling the library directly."""
    kind, p = case["kind"], case["params"]
    if kind == "eval":
        if p["which"] == "a":
            value = M.delta_closed(p["a"])
        elif p["which"] == "b":
            value = M.vardi_b_constant()
        else:
            value = M.malmsten_c(M.MalmstenParams(p["a"], p["b"]))
        return 0, [{"value": value}]
    if kind == "quad":
        pc = M.proofchain
        f = {"a": lambda: pc.delta_integrand(p["a"]), "b": pc.vardi_b_integrand,
             "c": lambda: pc.malmsten_c_integrand(M.MalmstenParams(p["a"], p["b"]))}[p["which"]]()
        res = M.integrate_semi_infinite(f, M.ToleranceSpec(rel_tol=p["rel_tol"]))
        if not math.isfinite(res.value):
            return 3, None
        return (0 if res.converged else 3), [{
            "value": res.value, "error_estimate": res.error_estimate,
            "evaluations": res.evaluations, "converged": res.converged}]
    if kind == "table":
        rows = []
        span = p["a_max"] - p["a_min"]
        for i in range(p["steps"]):
            a = p["a_min"] + span * (i / (p["steps"] - 1))
            closed = M.delta_closed(a)
            res = M.integrate_semi_infinite(M.proofchain.delta_integrand(a))
            rows.append({"a": a, "delta_closed": closed, "delta_quadrature": res.value,
                         "abs_err": abs(res.value - closed), "converged": res.converged})
        return 0, rows
    report = M.run_full_chain([p["a"]], p["tol"])
    return (0 if report.overall_pass else 1), [{
        "name": s.name, "lhs": s.lhs, "rhs": s.rhs, "pass": s.passed,
        "evaluations": s.evaluations} for s in report.steps]


def _rows_match(got, want):
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        for key, value in w.items():
            cell = g.get(key)
            if isinstance(value, bool):
                ok = cell in (value, "true" if value else "false")
            elif isinstance(value, int):
                ok = cell is not None and not isinstance(cell, bool) and int(cell) == value
            elif isinstance(value, float):
                ok = cell is not None and not isinstance(cell, bool) and _same(cell, value)
            else:
                ok = cell == value
            if not ok:
                return False
    return True


def _csv_text(header, rows):
    """Parsed CSV rows written back out (RFC 4180, CRLF), to check that
    the output round-trips."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([row[col] for col in header])
    return buf.getvalue()


def _rule_cli(M, case, s):
    if "error" in s:
        return 1, 1
    code, out, _ = s
    if case["kind"] == "bad":
        return 1, int(not (code == 2 and out == ""))
    want_code, want_rows = _expected_cli(M, case)
    if code != want_code:
        return 1, 1
    if want_rows is None:
        return 1, int(out != "")
    try:
        if case["format"] == "json":
            record = M.cli.parse_json(out)
            if M.cli.render_json(record) + "\n" != out or record.command != case["argv"][0]:
                return 1, 1
            results = record.results
            got = results.get("rows") or results.get("steps") or [results]
        else:
            got = M.cli.parse_csv(out)
            if _csv_text(next(csv.reader(io.StringIO(out))), got) != out:
                return 1, 1
    except (ValueError, KeyError, TypeError, AttributeError):
        return 1, 1
    return 1, int(not _rows_match(got, want_rows))


RULES = {"chain": _rule_chain, "quad": _rule_quad, "closed": _rule_closed, "cli": _rule_cli}
BROKEN = {"chain": _broken_chain, "quad": _broken_quad, "closed": _broken_closed,
          "cli": lambda M, case, s: _rule_cli(M, case, s)[1] > 0}


def broken(M, workload, inp, s):
    """True when ``s`` is not a well-formed output of the op on ``inp``."""
    return "error" in s or BROKEN[workload](M, inp, s)


def classify(M, workload, inputs, summaries, ops):
    """Over ``ops`` ops cycling through ``inputs``, each input weighted by
    how often the loop ran it: (ops, broken ops, units the failure rule
    checked, units that failed it)."""
    n = len(inputs)
    totals = [0, 0, 0, 0]
    for j, (inp, s) in enumerate(zip(inputs, summaries)):
        times = ops // n + (1 if j < ops % n else 0)
        if not times:
            continue
        checked, failed = RULES[workload](M, inp, s)
        for k, x in enumerate((1, int(broken(M, workload, inp, s)), checked, failed)):
            totals[k] += x * times
    return tuple(totals)


# ---------------------------------------------------------------------------
# Metrics.

def _metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_metrics(t, engine_ns, untraced_ops_per_s):
    ops = t["ops"]
    calls, label_s, incl, self_s = t["calls"], t["label_s"], t["incl_s"], t["self_s"]

    def per_op(x):
        return x / ops

    def ms(x):
        return 1e3 * x / ops

    quad_calls = sum(n for k, n in calls.items() if k.startswith("quad."))
    honesty = sum(n for key, _, _, value, est, conv, n in t["quad_calls"]
                  if oracle.quad_dishonest(value, est, conv, oracle.reference(*key)))
    worst = 0.0
    closed_failures = 0
    for name, args, result, n in t["closed_calls"]:
        ref = oracle.reference(name, *args)
        err = oracle.abs_error(result, ref)
        worst = max(worst, err / float(abs(ref)) if ref else err)
        closed_failures += n * oracle.closed_fails(result, ref)
    m = {
        "quad.calls": _metric(per_op(quad_calls), "count/op"),
        "quad.integrand_evals": _metric(per_op(t["evals"]), "count/op"),
        "quad.evals_per_call": _metric(t["evals"] / quad_calls if quad_calls else 0.0,
                                       "count/call"),
        "quad.ms": _metric(ms(incl.get("quad", 0.0)), "ms/op"),
        "quad.self_ms": _metric(ms(self_s.get("quad", 0.0)), "ms/op"),
        "quad.converged_share": _metric(t["converged"] / quad_calls if quad_calls else 0.0,
                                        "share"),
        "quad.honesty_violations": _metric(per_op(honesty), "count/op"),
        "quad.engine_ns_per_node.exp_sinh": _metric(engine_ns["exp_sinh"], "ns/node"),
        "quad.engine_ns_per_node.tanh_sinh": _metric(engine_ns["tanh_sinh"], "ns/node"),
        "specfun.ln_gamma.calls": _metric(per_op(calls.get("specfun.ln_gamma", 0)), "count/op"),
        "specfun.digamma.calls": _metric(per_op(calls.get("specfun.digamma", 0)), "count/op"),
        "specfun.sech.calls": _metric(per_op(calls.get("specfun.sech", 0)), "count/op"),
        "specfun.ms": _metric(ms(incl.get("specfun", 0.0)), "ms/op"),
        "closedform.calls": _metric(per_op(sum(n for k, n in calls.items()
                                               if k.startswith("closedform."))), "count/op"),
        "closedform.self_ms": _metric(ms(self_s.get("closedform", 0.0)), "ms/op"),
        "closedform.worst_rel_err": _metric(worst, "ratio"),
        "closedform.oracle_failures": _metric(per_op(closed_failures), "count/op"),
    }
    for step in STEPS:
        m[f"proofchain.{step}.ms"] = _metric(ms(label_s.get("proofchain." + step, 0.0)), "ms/op")
        evals = t["step_evals"].get(step, 0)
        m[f"proofchain.{step}.evals"] = _metric(per_op(evals), "count/op")
    m["proofchain.self_ms"] = _metric(ms(self_s.get("proofchain", 0.0)), "ms/op")
    m["proofchain.skipped"] = _metric(per_op(t["skipped"]), "count/op")
    m["proofchain.failed_steps"] = _metric(per_op(t["failed_steps"]), "count/op")
    m["cli.calls"] = _metric(per_op(calls.get("cli.main", 0)), "count/op")
    m["cli.self_ms"] = _metric(ms(self_s.get("cli", 0.0)), "ms/op")
    m["cli.render_ms"] = _metric(ms(incl.get("render", 0.0)), "ms/op")
    m["cli.output_bytes"] = _metric(per_op(t["output_bytes"]), "B/op")
    traced_ops_per_s = ops / t["seconds"]
    m["trace.overhead_share"] = _metric(1.0 - traced_ops_per_s / untraced_ops_per_s, "share")
    return m


def run_workload(workload, seed, seconds, trace, pool=None):
    """One measurement; ``pool`` shrinks the input pool for smoke checks."""
    M = _import_library()
    inputs = workloads.make_inputs(workload, seed, pool)
    request = {"root": ROOT, "workload": workload, "inputs": inputs,
               "seconds": seconds, "mode": "trace" if trace else "run"}
    setups = []
    if not trace:
        for _ in range(SETUP_WORKERS):
            setups.append(_worker(dict(request, inputs=inputs[:1], mode="setup"))["setup_s"])
    w = _worker(request)
    setups.append(w["setup_s"])

    attempted, failed, checked, rule_failed = classify(M, workload, inputs, w["summaries"],
                                                      w["ops"])
    problems = []
    if failed:
        problems.append(f"{failed} ops raised or gave a malformed output")
    if w["repeats_differ"]:
        failed += w["repeats_differ"]
        problems.append(f"{w['repeats_differ']} repeated ops gave a different output")
    ops_per_s = w["ops_per_s"]
    if trace:
        t = w["trace"]
        metrics = _layer_metrics(t, w["engine_ns_per_node"], ops_per_s)
        problems += t["mismatches"]
        if t["differ_from_untraced"]:
            problems.append(f"{t['differ_from_untraced']} traced ops differ from untraced ones")
    else:
        metrics = {
            "ops_per_s": _metric(ops_per_s, "1/s"),
            "op_ms_p50": _metric(1e3 * w["p50_s"], "ms"),
            "op_ms_p90": _metric(1e3 * w["p90_s"], "ms"),
            "pass_share": _metric(1.0 - rule_failed / checked, "share"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(w["peak_rss_mb"], "MB"),
        }
    for p in problems:
        print(f"bench: {workload}: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload != "all":
            print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
            return 0
        results = {}
        for workload in workloads.WORKLOADS:
            for trace in (0, 1):
                r = run_workload(workload, args.seed, args.seconds, trace)
                results[f"{workload}/trace={trace}"] = r
                print(f"== {workload} trace={trace} correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']}")
                for name, m in r["metrics"].items():
                    print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
        print(json.dumps(results))
        return 0
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
