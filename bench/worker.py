"""Worker process: imports the library from ``src/`` and runs one workload.

Reads a JSON request on stdin and writes one JSON object on stdout.
Started by ``run.py`` in a fresh interpreter for every measurement, so
import and first-call costs are real.  mpmath is never imported here;
the oracle lives in the parent.

Modes:
  setup  import the library and run the first op; report the time.
  run    the same, then an untimed warm-up pass over the input pool and
         the timed closed loop.
  trace  the engine-overhead probe, then ``run``, then one traced pass
         over the pool.
"""

import json
import math
import os
import resource
import statistics
import sys
from array import array
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import workloads  # noqa: E402  (needs BENCH_DIR on the path)

# Seconds the calibration snippet takes at the reference speed.  On the
# 2-vCPU Xeon VM the benchmark was tuned on it takes 0.3 to 0.75 ms,
# depending on what else the host runs.
CALIBRATION_S = 5e-4
SEGMENT_S = 0.1            # timed work between two calibrations
LATENCY_SAMPLES = 1 << 17  # at most this many latencies are kept


def _calibration_unit(x):
    return math.log(1.0 + x) * math.exp(-x) / (1.0 + x * x)


def speed_scale():
    """Reference speed over the machine's current speed.

    The speed of a shared machine drifts by a factor of two within
    seconds, and the library's interpreted float code slows with it.
    Wall times multiplied by this scale are times at the reference
    speed, which is what the benchmark reports.  The scale comes from a
    fixed snippet of interpreted float work (median of five runs, about
    3 ms in all).
    """
    times = []
    for _ in range(5):
        t0 = perf_counter()
        for i in range(1000):
            _calibration_unit(i * 1e-3)
        times.append(perf_counter() - t0)
    return CALIBRATION_S / statistics.median(times)


def _quantile(sorted_values, q, half_width=0.05):
    """The q-quantile of an ascending sequence, as the mean of the order
    statistics within q +- half_width.  Per-op latencies form clusters
    (by integrand and refinement level) with gaps between them, and a
    single order statistic jumps across a gap on small shifts; the band
    mean moves smoothly."""
    n = len(sorted_values)
    lo = min(n - 1, max(0, math.floor((q - half_width) * n)))
    hi = max(lo + 1, min(n, math.ceil((q + half_width) * n)))
    return math.fsum(sorted_values[lo:hi]) / (hi - lo)


def _run(M, workload, inp):
    """One op and its summary; an op that raises is a failed op."""
    try:
        return workloads.summarize(workload, workloads.OPS[workload](M, inp))
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


def _same(workload, s, ref):
    return s == ref or workloads.comparable(workload, s) == workloads.comparable(workload, ref)


def _loop(M, workload, inputs, seconds, summaries, pass_s):
    """The timed closed loop: whole passes over the pool until ``seconds``
    have passed.  Every op must reproduce the output in ``summaries``.

    The loop is cut into segments of about SEGMENT_S at op boundaries,
    with the machine's speed measured between segments; each segment's
    wall time and latencies are scaled by the mean of the two speed
    readings around it.  An op's latency is the median over its input's
    repeats, which keeps brief stalls out; p50 and p90 are taken over
    the inputs.  ``pass_s``, the warm-up pass's wall time, sets the
    latency sampling stride (coprime to the pool size, so every input is
    sampled in turn).
    """
    n = len(inputs)
    stride = max(1, math.ceil(n * max(1.0, seconds / pass_s) / LATENCY_SAMPLES))
    while math.gcd(stride, n) != 1:
        stride += 1
    lat = [array("d") for _ in range(n)]
    ops = differ = 0
    ref_seconds = 0.0
    deadline = perf_counter() + seconds
    scale0 = speed_scale()
    segment = []  # (input, wall latency) since the last speed reading
    seg_start = perf_counter()
    while True:
        for j, inp in enumerate(inputs):
            t0 = perf_counter()
            s = _run(M, workload, inp)
            t1 = perf_counter()
            if ops % stride == 0:
                segment.append((j, t1 - t0))
            ops += 1
            if not _same(workload, s, summaries[j]):
                differ += 1
            if t1 - seg_start >= SEGMENT_S or (j == n - 1 and t1 >= deadline):
                scale1 = speed_scale()
                scale = 0.5 * (scale0 + scale1)
                ref_seconds += (t1 - seg_start) * scale
                for k, dt in segment:
                    lat[k].append(dt * scale)
                segment = []
                scale0 = scale1
                seg_start = perf_counter()
        if t1 >= deadline:
            break
    per_input = sorted(statistics.median(x) for x in lat if x)
    return {"ops": ops, "ops_per_s": ops / ref_seconds,
            "p50_s": _quantile(per_input, 0.5), "p90_s": _quantile(per_input, 0.9),
            "repeats_differ": differ}


def _engine_ns_per_node(M):
    """Engine cost per node, on a near-free integrand with its own cost
    timed separately over the same abscissas and subtracted."""
    def f(x):
        return 1.0 / (1.0 + x * x)

    tol = M.ToleranceSpec(rel_tol=1e-12)
    probes = {"exp_sinh": lambda g: M.integrate_semi_infinite(g, tol),
              "tanh_sinh": lambda g: M.integrate_finite(g, 0.0, 1.0, tol)}
    out = {}
    scale0 = speed_scale()
    for name, call in probes.items():
        xs = []
        res = call(lambda x: (xs.append(x), f(x))[1])
        reps = max(1, 20000 // res.evaluations)
        engine, integrand = [], []
        for _ in range(15):
            t0 = perf_counter()
            for _ in range(reps):
                call(f)
            engine.append(perf_counter() - t0)
            t0 = perf_counter()
            for _ in range(reps):
                for x in xs:
                    f(x)
            integrand.append(perf_counter() - t0)
        scale1 = speed_scale()
        per_call = ((statistics.median(engine) - statistics.median(integrand)) / reps
                    * 0.5 * (scale0 + scale1))
        scale0 = scale1
        out[name] = per_call / res.evaluations * 1e9
    return out


def _traced_pass(M, workload, inputs, summaries):
    from tracing import Tracer
    tracer = Tracer()
    tracer.install(M)
    differ = 0
    out_bytes = 0
    try:
        scale0 = speed_scale()
        start = perf_counter()
        for j, inp in enumerate(inputs):
            s = _run(M, workload, inp)
            if workload == "cli" and "error" not in s:
                out_bytes += len(s[1].encode())
            if not _same(workload, s, summaries[j]):
                differ += 1
        elapsed = perf_counter() - start
    finally:
        tracer.restore()
    scale = 0.5 * (scale0 + speed_scale())
    return {
        "ops": len(inputs),
        "seconds": elapsed * scale,
        "differ_from_untraced": differ,
        "calls": dict(tracer.calls),
        "label_s": {k: v * scale for k, v in tracer.label_s.items()},
        "incl_s": {k: v * scale for k, v in tracer.incl_s.items()},
        "self_s": {k: v * scale for k, v in tracer.self_s.items()},
        "evals": tracer.evals,
        "converged": tracer.converged,
        "failed_steps": tracer.failed_steps,
        "skipped": tracer.skipped,
        "step_evals": dict(tracer.step_evals),
        "output_bytes": out_bytes,
        "closed_calls": [[name, list(args), result, n]
                         for (name, args, result), n in tracer.closed_calls.items()],
        "quad_calls": [[list(key), *rest, n] for (key, *rest), n in tracer.quad_calls.items()],
        "mismatches": tracer.mismatches,
    }


def main():
    req = json.load(sys.stdin)
    out = sys.stdout
    root, workload, inputs, mode = req["root"], req["workload"], req["inputs"], req["mode"]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    scale0 = speed_scale()
    t0 = perf_counter()
    import malmsten as M
    if workload == "cli":
        import malmsten.cli  # noqa: F401
    first = _run(M, workload, inputs[0])
    setup_s = (perf_counter() - t0) * 0.5 * (scale0 + speed_scale())
    if not os.path.abspath(M.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported malmsten from {M.__file__}, not from {src}")

    result = {"setup_s": setup_s}
    if mode != "setup":
        if mode == "trace":
            # Probed first, so every workload measures it in the same state.
            result["engine_ns_per_node"] = _engine_ns_per_node(M)
        # An untimed warm-up pass fills lazy state and records each input's
        # output; peak memory is read after it, before the harness keeps
        # the timed loop's latencies.
        t0 = perf_counter()
        summaries = [first] + [_run(M, workload, inp) for inp in inputs[1:]]
        pass_s = perf_counter() - t0
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(_loop(M, workload, inputs, req["seconds"], summaries, pass_s),
                      summaries=summaries)
        if mode == "trace":
            result["trace"] = _traced_pass(M, workload, inputs, summaries)
    if "mpmath" in sys.modules:
        raise SystemExit("mpmath was imported in the worker")
    json.dump(result, out)
    out.write("\n")


if __name__ == "__main__":
    main()
