"""Run the benchmark over several seeds; report each metric's median and spread.

    python3 perfbench/prove.py --seeds 1-10 [--workloads hex19-refim,...] [--out FILE]

Runs `BENCHMARK.json`'s command once per (workload, seed), one process at a
time, for its run_seconds with tracing off. Spread is the distance between
the first and third quartiles of a metric's values (statistics.quantiles,
n=4) as a share of their median: the figure each end-to-end bound must
exceed, by three times to leave room for a noisier machine. --out writes the
raw values, medians and spreads as JSON, with the environment of the runs.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(command, workload, seed, seconds):
    t0 = time.perf_counter()
    proc = subprocess.run([*command, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("environment ")), None)
    return json.loads(lines[-1]), env, elapsed


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--out", help="write the values, medians and spreads here")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        elapsed = []
        for seed in parse_seeds(args.seeds):
            result, env, secs = run_once(bench["command"], workload, seed, bench["run_seconds"])
            report.setdefault("environment", env)
            elapsed.append(secs)
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect", file=sys.stderr)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({secs:.1f} s): " + "  ".join(
                f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)
        rows = {}
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            rows[name] = {"median": median, "spread": spread, "bound": bounds[name],
                          "values": vals}
            flag = "" if spread < bounds[name] / 3 else "  <-- spread >= bound/3"
            print(f"  {name:<12} median {median:<12.6g} {units[name]:<5} spread {spread:.4f} "
                  f"bound {bounds[name]}{flag}")
        report["workloads"][workload] = {"metrics": rows, "run_elapsed_s": elapsed}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
