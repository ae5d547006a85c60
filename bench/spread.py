"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workloads chain,cli --seeds 1-10 --seconds 25

Runs ``run.py`` once per (workload, seed), one after another, and prints
for each metric the median, the quartiles (``statistics.quantiles`` with
n=4) and the interquartile range as a share of the median.  The last
line of stdout is the same as a JSON object.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="chain,quad,closed,cli")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    summary = {}
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            out = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                                  "--seconds", str(args.seconds), "--trace", "0"],
                                 capture_output=True, text=True, check=True).stdout
            result = json.loads(out.splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: correct is false")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary[workload] = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            row = {"median": med, "q1": q1, "q3": q3,
                   "iqr_share": (q3 - q1) / med if med else 0.0, "values": vs}
            summary[workload][name] = row
            print(f"{workload:7s} {name:12s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} iqr/median {row['iqr_share']:.4f}", flush=True)
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
