"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload hex19-refim --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout. It starts worker.py in a child
process with the simulator's `src/` on PYTHONPATH and the BLAS/OpenMP thread
pools capped at the CPUs this process may use, waits for it, and prints one
line per metric, then the result as one JSON object on the last line. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. It exits 1 without a result when the checkout has no simulator or the
child fails.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 170


def child_env(nproc):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # OpenBLAS is built for 64 threads; never run more than the CPUs we have.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def main(argv=None):
    p = argparse.ArgumentParser(description="refimsim benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "refimsim" / "__init__.py").is_file():
        print(f"error: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    # Turn SIGTERM into an exception, so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    nproc = len(os.sched_getaffinity(0))
    OUT_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_ROOT))
    result_path = work_dir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(work_dir / "out"),
           "--result", str(result_path)]
    try:
        proc = subprocess.run(cmd, env=child_env(nproc), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not result_path.is_file():
            print(f"error: worker exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text())
    except subprocess.TimeoutExpired:
        print(f"error: worker ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass

    env = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"invocations {result['attempted']}  failed {result['failed']}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, values in result["samples"].items():
        q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
        print(f"samples {name}: n={len(values)} min={min(values):.6g} q1={q[0]:.6g} "
              f"median={q[1]:.6g} q3={q[2]:.6g} max={max(values):.6g}")
    for name, m in result["metrics"].items():
        print(f"{name:<34}{m['value']:>16.6g} {m['unit']}")
    if result["absent"]:
        print("absent (reported as 0): " + ", ".join(result["absent"]))
    for problem in result["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
