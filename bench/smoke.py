"""The benchmark's own smoke checks.

    python3 bench/smoke.py

Checks that every workload runs at minimal length in both modes and
prints every metric BENCHMARK.json names; that planted wrong outputs
fail the workload's failure rule and planted malformed ones are failed
ops; that two seeds give different inputs but the
same metric names; that the traced counts on the A05 grid agree exactly
with the program's own reports; that the oracle's closed forms agree
with direct mpmath quadrature; and that the benchmark refuses to run
without the library source.  Exits 1 on the first failed group.
"""

import json
import math
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))
FAILURES = []
# Small pools that still hold every kind of op of each workload.
MINIMAL_POOL = {"chain": 2, "quad": 16, "closed": 4, "cli": 20}


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILURES.append(what)


def minimal_runs():
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    names = {}
    for workload in workloads.WORKLOADS:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            for seed in (1, 2):
                r = run.run_workload(workload, seed, 0.2, trace, pool=MINIMAL_POOL[workload])
                values = [m["value"] for m in r["metrics"].values()]
                check(r["correct"] and r["attempted"] >= 1 and r["failed"] == 0
                      and sorted(r["metrics"]) == sorted(expected)
                      and all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                      f"{workload} trace={trace} seed={seed} runs and reports every metric")
                names.setdefault((workload, trace), []).append(sorted(r["metrics"]))
    for (workload, trace), (a, b) in names.items():
        check(a == b, f"{workload} trace={trace}: seeds 1 and 2 report the same metric names")
    for workload in workloads.WORKLOADS:
        check(workloads.make_inputs(workload, 1) != workloads.make_inputs(workload, 2)
              and workloads.make_inputs(workload, 1) == workloads.make_inputs(workload, 1),
              f"{workload}: seeds 1 and 2 give different inputs, seed 1 the same twice")


def _worker_summaries(workload, inputs):
    w = run._worker({"root": run.ROOT, "workload": workload, "inputs": inputs,
                     "seconds": 0.5, "mode": "run"})
    return w["summaries"]


def planted_failures():
    M = run._import_library()

    def fails(workload, inp, summary):
        return run.RULES[workload](M, inp, summary)[1] > 0

    def broken(workload, inp, summary):
        return run.broken(M, workload, inp, summary)

    for workload in workloads.WORKLOADS:
        inp = workloads.make_inputs(workload, 1, 1)[0]
        raised = {"error": "ValueError: planted"}
        check(fails(workload, inp, raised) and broken(workload, inp, raised),
              f"{workload}: an op that raised fails the rule and is a failed op")

    grid = workloads.A05_GRID
    s = _worker_summaries("chain", [grid])[0]
    check(not fails("chain", grid, s) and not broken("chain", grid, s),
          "chain: the A05 grid passes as is")
    bad = json.loads(json.dumps(s))
    bad["steps"][3][1] = False
    check(fails("chain", grid, bad), "chain: a step with passed=False fails the rule")
    check(broken("chain", grid, bad), "chain: overall_pass=True over a failed step is a failed op")
    bad["overall_pass"] = False
    check(not broken("chain", grid, bad), "chain: a consistent report of a failed step is "
          "not a failed op")
    bad = json.loads(json.dumps(s))
    bad["steps"][2][3] += 1e-3
    check(broken("chain", grid, bad), "chain: a passed step whose sides disagree is a failed op")
    bad = json.loads(json.dumps(s))
    bad["total_evaluations"] += 1
    check(broken("chain", grid, bad), "chain: a wrong total_evaluations is a failed op")
    bad = json.loads(json.dumps(s))
    del bad["steps"][5]
    check(broken("chain", grid, bad), "chain: a missing step is a failed op")

    case = ["delta", [0.5], 1e-9]
    s = _worker_summaries("quad", [case])[0]
    check(not fails("quad", case, s) and not broken("quad", case, s),
          "quad: delta(0.5) at 1e-9 passes as is")
    check(broken("quad", case, [math.nan] + s[1:]), "quad: a NaN value is a failed op")
    check(broken("quad", case, [s[0], -1e-9] + s[2:]),
          "quad: a negative error estimate is a failed op")
    check(broken("quad", case, s[:2] + [0, s[3]]), "quad: zero evaluations is a failed op")
    check(fails("quad", case, [s[0] * (1 + 1e-7)] + s[1:]), "quad: a planted wrong value fails")
    check(fails("quad", case, s[:3] + [False]), "quad: converged=False fails")
    check(fails("quad", case, [s[0] + 1e-10, 1e-11] + s[2:]),
          "quad: an error above the reported estimate fails")

    row = [0.5, 2.0, 3.0]
    s = _worker_summaries("closed", [row])[0]
    check(not fails("closed", row, s) and not broken("closed", row, s),
          "closed: a row at small arguments passes as is")
    for k, name in enumerate(workloads.CLOSED_FUNCS):
        bad = list(s)
        bad[k] *= 1 + 1e-11
        check(fails("closed", row, bad), f"closed: a planted wrong {name} value fails")
        bad[k] = math.inf
        check(broken("closed", row, bad), f"closed: an infinite {name} value is a failed op")

    cases = [c for c in workloads.make_inputs("cli", 1, 40) if c["kind"] != "bad"]
    cases = [next(c for c in cases if c["kind"] == k and c["format"] == f)
             for k in ("eval", "quad") for f in ("json", "csv")]
    summaries = _worker_summaries("cli", cases)
    for case, (code, out, err) in zip(cases, summaries):
        what = f"cli {case['kind']} {case['format']}"
        check(not fails("cli", case, [code, out, err])
              and not broken("cli", case, [code, out, err]), f"{what}: passes as is")
        check(fails("cli", case, [code + 1, out, err])
              and broken("cli", case, [code + 1, out, err]),
              f"{what}: a wrong exit code fails and is a failed op")
        value = repr(M.delta_closed(0.5) if case["kind"] == "eval" else 0.0)
        first = out.find("value") + 8 if case["format"] == "json" else None
        if case["format"] == "json":
            end = out.index(",", first) if "," in out[first:] else out.index("}", first)
            planted = out[:first] + value + out[end:]
        else:
            header, line = out.split("\r\n")[:2]
            col = header.split(",").index("value")
            cells = line.split(",")
            cells[col] = value
            planted = header + "\r\n" + ",".join(cells) + "\r\n"
        check(fails("cli", case, [code, planted, err]), f"{what}: a planted wrong value fails")
        check(fails("cli", case, [code, out[:-2], err]), f"{what}: truncated output fails")
    bad = {"kind": "bad", "format": "json", "params": {}, "argv": ["frobnicate"]}
    check(fails("cli", bad, [0, "", ""]), "cli: malformed argv that exits 0 fails")


def a05_cross_check():
    w = run._worker({"root": run.ROOT, "workload": "chain", "inputs": [workloads.A05_GRID],
                     "seconds": 0.0, "mode": "trace"})
    t = w["trace"]
    s = w["summaries"][0]
    check(not t["mismatches"], "A05: wrapper counts agree with every quad, step and chain report"
          + "".join("\n      " + m for m in t["mismatches"]))
    total = s["total_evaluations"]
    series = t["step_evals"].get("alt_series_digamma", 0)
    check(t["evals"] + series == total,
          f"A05: {t['evals']} integrand calls + {series} series terms "
          f"= ChainReport.total_evaluations {total}")
    per_step = {}
    for name, _, evals, _, _ in s["steps"]:
        per_step[name] = per_step.get(name, 0) + evals
    check(per_step == t["step_evals"], "A05: every proofchain.<step>.evals equals the reports' sum")


def oracle_agrees_with_quadrature():
    mp = oracle.mpmath
    with mp.workdps(20):
        checks = [
            ("delta", (0.5,), lambda x: mp.log(x * x + 0.25) / mp.cosh(mp.pi * x), [0, mp.inf]),
            ("vardi", (), lambda x: mp.log(x) / mp.cosh(x), [0, 1, mp.inf]),
            ("c", (2.0, 3.0), lambda x: mp.log(2 * x) / mp.cosh(3 * x), [0, 1, mp.inf]),
            ("zdelta", (0.7,), lambda z: -z ** 0.4 * (1 - z) ** 2 / ((1 + z * z) * mp.log(z)),
             [0, 1]),
        ]
        for kind, params, f, interval in checks:
            q = mp.quad(f, interval)
            ref = oracle.reference(kind, *params)
            check(abs(q - ref) < 1e-15 * max(1, abs(ref)), f"oracle: {kind}{params} agrees "
                  f"with mpmath.quad ({mp.nstr(q - ref, 3)})")
    with mp.workdps(oracle._DPS):
        check(abs(oracle.reference("delta", 0.5) - mp.log(2 / mp.pi)) < 1e-40,
              "oracle: delta(1/2) = ln(2/pi) to 40 digits")


def refuses_without_source():
    tmp = os.path.join(run.ROOT, ".bench_smoke")
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        os.makedirs(tmp)
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(run.ROOT, path), os.path.join(tmp, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(SPEC["command"] + ["--workload", "quad", "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              f"exits {proc.returncode} without a result when src/ is missing")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    for group in (planted_failures, a05_cross_check, oracle_agrees_with_quadrature,
                  minimal_runs, refuses_without_source):
        group()
    print(f"{len(FAILURES)} failed" if FAILURES else "all smoke checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
