"""Check that the benchmark's end-to-end figures are steady across seeds.

    python3 bench/steadiness.py [--out FILE] [--compare EARLIER.json]

Runs ``bench/run.py`` once per seed (``--trace 0``, the run length from
BENCHMARK.json) on each workload, one run at a time: seeds 1 to 10, or 11
to 20 with ``--compare``, so the second set draws other inputs.  For every
end-to-end metric it reports the median and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the metric's bound; a spread passes below a third of
the bound.
With ``--compare`` it also reports, per metric, how much worse this set's
median is than the median of an earlier set written by this script; the
two sets agree when that share stays within the metric's bound.  Writes
the table as JSON to FILE (default: stdout only).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None)
    ap.add_argument("--compare", default=None)
    args = ap.parse_args()
    earlier = {}
    first_seed = 1
    if args.compare:
        with open(args.compare) as fh:
            earlier = json.load(fh)
        first_seed += RUNS

    table = {}
    for workload in (w["name"] for w in bench["workloads"]):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(first_seed, first_seed + RUNS):
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output\n"
                                 f"{proc.stderr}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{k}={v[-1]:.4f}" for k, v in values.items()),
                  file=sys.stderr)
        rows = {}
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": round(spread, 4), "bound": m["bound"],
                               "below_third_of_bound": spread < m["bound"] / 3,
                               "values": vals}
            if workload in earlier:
                old = earlier[workload][m["name"]]["median"]
                worse = (med / old if m["better"] == "lower" else old / med) - 1
                rows[m["name"]]["worse_than_earlier"] = round(worse, 4)
                rows[m["name"]]["agrees_with_earlier"] = worse <= m["bound"]
        table[workload] = rows
    text = json.dumps(table, indent=1)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
