#!/usr/bin/env python3
"""A/A check of the benchmark against its own bounds.

Runs every workload of BENCHMARK.json on N seeds, twice over (set A and
set B, same seeds), and reports for each end-to-end metric

  * the spread of each set: the distance between the first and third
    quartile of its values as a share of their median, which must stay
    within the metric's bound (setup_s excepted), and
  * how much worse set B's median is than set A's, which must stay
    within the bound too.

Run from the repo root:

    python3 benchmark/spread.py [--seeds 10] [--sets 2] [--workload NAME]

Exits non-zero when a bound does not hold; writes benchmark/out/spread.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed):
    command = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run: {result}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    report, failures = {}, []
    for workload in workloads:
        sets = [
            [run_once(spec, workload, 1000 + seed) for seed in range(args.seeds)]
            for _ in range(args.sets)
        ]
        report[workload] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            columns = [[run[name] for run in runs] for runs in sets]
            medians = [statistics.median(column) for column in columns]
            spreads = [spread(column) for column in columns]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worsening = max(
                (sign * (later - medians[0]) / medians[0] for later in medians[1:]),
                default=0.0,
            )
            report[workload][name] = {
                "bound": bound, "medians": medians, "spreads": spreads, "worsening": worsening,
                "values": columns,
            }
            flags = []
            if name != "setup_s" and max(spreads) > bound:
                flags.append("SPREAD")
            if worsening > bound:
                flags.append("DRIFT")
            if flags:
                failures.append(f"{workload}/{name}: {' '.join(flags)}")
            print(
                f"{workload:18} {name:28} median {medians[0]:12.5g} "
                f"spread {max(spreads):6.3f} drift {worsening:+7.3f} bound {bound:5.2f} "
                f"{' '.join(flags)}",
                flush=True,
            )
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "spread.json"), "w") as handle:
        json.dump(report, handle, indent=2)
    if failures:
        sys.exit("bounds not held: " + "; ".join(failures))


if __name__ == "__main__":
    main()
