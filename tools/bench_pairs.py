"""Run perfbench on a parent commit and on the working tree in alternated pairs.

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_15.json \
        --what "..." --round "..." [--pairs 10] [--traced-pairs 2] [--seconds 20] \
        [--claim two-cell-cli:slot_ms]

Run it from the root of the repository. The parent is exported with
`git archive`, and the working tree's files (uncommitted edits and
untracked, not ignored files included) are copied, into two sibling
directories of one temporary directory, `parent` and `change`, so that
both sides run from equivalent paths. With the same code on both sides
(6 pairs of 10 s on `hetnet10-reduced`), the side run from the
repository itself read 4.3% higher median `slot_ms` and lost 5 of 6
pairs; run from sibling directories, it read 1.3% higher and lost 2 of 6.

Each side first runs the Tier-1 suite once (ROADMAP's "Tier-1 verify"
command, parent first), and its wall time, exit code and pytest summary
line go under "tier1". Then each side makes one `engine.run` of each
workload's scenario (seed --traced-seed0) with the simulator hooked from
outside: the Pss, Private_Dirty and Rss of the run's process and of each
fading worker process, read from /proc/<pid>/smaps_rollup just before the
first `Channel.close`, and the tiles the run's process kept in each
posted fading pass (what `channel._split` returned, where it exists), go
under "probes" (peak RSS reads the run's process only, and the tracer's
`channel.fading_state_mb` counts the fading arrays whichever
process keeps them). Then, for each seed, every workload in
BENCHMARK.json (or each --workload given) runs once per side through
`perfbench/run.py`, the side that runs first alternating with the seed
(odd seeds: parent first). Seeds `--seed0 ...` run at --trace 0, seeds
`--traced-seed0 ...` at --trace 1. Each run.py starts in a session of its
own; a process of that session still alive after it returns (a worker the
simulator forked and did not end, say) is killed, listed under
"left_running", and fails the round, as a failed run does.

The output has the schema of BENCH_12.json: every run's final JSON line
under "runs", and per workload and end-to-end metric the trace-0 quartiles
of each side with the pairs the change won ("better" from BENCHMARK.json)
and tied. With `--claim WORKLOAD:METRIC` it also writes, and prints, a
"verdict": whether the claimed gain meets the rule of a claim (the change
wins at least 9 in 10 pairs, ties counting for neither side, and the
medians differ by more than the parent's quartile distance), and every
(workload, end-to-end metric) whose change median is worse than the
parent's by more than its BENCHMARK.json bound. Uses only the standard
library.
"""

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def export_commit(rev, dest):
    """Write the files of commit rev into dest; return its short hash."""
    data = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def copy_worktree(dest):
    """Copy the working tree's tracked and untracked, not ignored files into dest."""
    names = subprocess.run(["git", "ls-files", "-z", "-co", "--exclude-standard"], cwd=ROOT,
                           check=True, capture_output=True, text=True).stdout.split("\0")
    for name in filter(None, names):
        src = ROOT / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def session_processes(sid):
    """Pids of the live (not zombie) processes in session sid, read from /proc."""
    pids = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:  # it ended while being listed
                continue
            state, _, _, session = stat.rsplit(")", 1)[1].split()[:4]
            if int(session) == sid and state != "Z":
                pids.append(int(entry.name))
    return pids


def run_side(tree, workload, seed, seconds, trace):
    """One perfbench/run.py call in tree, in a session of its own; returns
    (returncode, absent, result, left): `left` lists the pids of the session
    still alive after run.py returned, which are then killed."""
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    stdout, stderr = proc.communicate()
    left = session_processes(proc.pid)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    absent = []
    for line in lines:
        if line.startswith("absent (reported as 0): "):
            absent = line.split(": ", 1)[1].split(", ")
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    else:
        sys.stderr.write(stderr)
    if left:
        sys.stderr.write(f"{workload} seed {seed} left processes running: {left}\n")
    return proc.returncode, absent, result, left


def run_tier1(tree):
    """One Tier-1 run in tree, with its src/ first on PYTHONPATH; returns its
    wall seconds, exit code and pytest's last output line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"),
                                                      env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    return {"wall_s": round(wall, 1), "returncode": proc.returncode, "summary": last[0]}


# Run in a side's tree with its src/ and perfbench/ on PYTHONPATH, as
# `python3 -c PROBE <workload> <seed>`; prints one JSON line.
PROBE = """
import dataclasses, json, os, sys
from refimsim import channel, engine
from refimsim.presets import get_preset
from workloads import WORKLOADS

def rollup(pid):
    fields = {}
    with open(f"/proc/{pid}/smaps_rollup") as f:
        for line in f:
            key, *rest = line.split()
            if key in ("Rss:", "Pss:", "Private_Dirty:"):
                fields[key[:-1] + "_mb"] = round(int(rest[0]) / 1024, 1)
    return fields

seen = {"splits": None}
close = channel.Channel.close

def probed(self):
    if "run" not in seen:
        seen["tiles"] = len(self.fading.osc)
        seen["run"] = rollup(os.getpid())
        seen["workers"] = [rollup(w[0]) for w in self.fading._workers]
    close(self)

channel.Channel.close = probed
if hasattr(channel, "_split"):
    split, seen["splits"] = channel._split, []

    def recorded(*args):
        m = split(*args)
        seen["splits"].append(m)
        return m

    channel._split = recorded
w = WORKLOADS[sys.argv[1]]
engine.run(dataclasses.replace(get_preset(w.preset), **w.overrides, seed=int(sys.argv[2]),
                               slots=w.slots, warmup_slots=w.warmup_slots))
print(json.dumps(seen))
"""


def run_probe(tree, workload, seed):
    """PROBE in tree: the smaps_rollup of the run's process and of each
    fading worker just before the channel closes, and the splits, or the
    error."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tree / "src"), str(tree / "perfbench"),
                                                      env.get("PYTHONPATH")]))
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    proc = subprocess.run([sys.executable, "-c", PROBE, workload, str(seed)], cwd=tree,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": proc.stderr.strip().splitlines()[-1:]}
    return {"seed": seed, **json.loads(proc.stdout.strip().splitlines()[-1])}


def quartiles(values):
    q = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
         else values * 3)
    return {"n": len(values), "q1": q[0], "median": q[1], "q3": q[2]}


def summarize(runs, workloads, end_to_end):
    """Trace-0 quartiles per side and pairs won or tied by the change."""
    out = {}
    for w in workloads:
        pairs = {}
        for r in runs:
            if r["workload"] == w and r["trace"] == 0 and r["result"] is not None:
                pairs.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        out[w] = {}
        for m in end_to_end:
            name, lower = m["name"], m["better"] == "lower"
            par = [p["parent"][name]["value"] for p in pairs]
            chg = [p["change"][name]["value"] for p in pairs]
            won = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
            out[w][name] = {"parent": quartiles(par), "change": quartiles(chg),
                            "pairs_won_by_change": won,
                            "pairs_tied": sum(c == p for p, c in zip(par, chg)),
                            "pairs": len(pairs)}
    return out


def verdict(summary, claim, end_to_end):
    """The choosing-metrics rule for a claimed gain, and the bound check.

    claim is (workload, metric). The claim is met when the change wins at
    least nine tenths of the trace-0 pairs run (a tie counts for neither
    side) and its median beats the parent's by more than the parent's
    quartile distance. `over_bound` lists every (workload, end-to-end
    metric) whose change median is worse than the parent's by more than
    the metric's BENCHMARK.json bound, relative to the parent's median.
    """
    lower = {m["name"]: m["better"] == "lower" for m in end_to_end}
    workload, metric = claim
    row = summary[workload][metric]
    par, chg = row["parent"]["median"], row["change"]["median"]
    spread = row["parent"]["q3"] - row["parent"]["q1"]
    gain = par - chg if lower[metric] else chg - par
    won, pairs = row["pairs_won_by_change"], row["pairs"]
    out = {"claim": f"{workload}:{metric}", "pairs": pairs, "pairs_won_by_change": won,
           "pairs_tied": row["pairs_tied"], "parent_median": par, "change_median": chg,
           "parent_quartile_distance": spread,
           "change_over_parent": chg / par if par else None,
           "met": pairs > 0 and 10 * won >= 9 * pairs and gain > spread}
    over = []
    for m in end_to_end:
        for w, rows in summary.items():
            par, chg = rows[m["name"]]["parent"]["median"], rows[m["name"]]["change"]["median"]
            worse = chg - par if lower[m["name"]] else par - chg
            if worse > m["bound"] * abs(par):
                over.append({"workload": w, "metric": m["name"], "parent_median": par,
                             "change_median": chg, "bound": m["bound"]})
    out["over_bound"] = over
    return out


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description="alternated parent/change perfbench pairs")
    p.add_argument("--parent", default="HEAD", help="commit to compare against")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--what", required=True, help="what the change is")
    p.add_argument("--round", required=True, help="how this round was run")
    p.add_argument("--host", default=f"{platform.machine()}, {platform.system()}, "
                                     f"Python {platform.python_version()}")
    p.add_argument("--workload", action="append",
                   choices=[w["name"] for w in bench["workloads"]],
                   help="repeatable; default: every workload in BENCHMARK.json")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1501)
    p.add_argument("--traced-pairs", type=int, default=2)
    p.add_argument("--traced-seed0", type=int, default=1521)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--claim", metavar="WORKLOAD:METRIC",
                   help="end-to-end metric the change claims to improve on one workload")
    args = p.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    claim = None
    if args.claim:
        claim = tuple(args.claim.split(":", 1))
        if (len(claim) != 2 or claim[0] not in workloads
                or claim[1] not in [m["name"] for m in bench["end_to_end"]]):
            p.error(f"--claim {args.claim!r} is not WORKLOAD:METRIC of a workload run here "
                    "and an end-to-end metric of BENCHMARK.json")
    schedule = ([(s, 0) for s in range(args.seed0, args.seed0 + args.pairs)]
                + [(s, 1) for s in range(args.traced_seed0,
                                         args.traced_seed0 + args.traced_pairs)])

    runs, tier1, probes = [], {}, {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        parent_commit = export_commit(args.parent, trees["parent"])
        copy_worktree(trees["change"])
        for side in trees:
            tier1[side] = run_tier1(trees[side])
            print(f"tier1 {side:6s} {tier1[side]}", flush=True)
        for side in trees:
            probes[side] = {w: run_probe(trees[side], w, args.traced_seed0) for w in workloads}
            print(f"probes {side:6s} {probes[side]}", flush=True)
        for seed, trace in schedule:
            first = "parent" if seed % 2 else "change"
            order = [first, "change" if first == "parent" else "parent"]
            for w in workloads:
                for side in order:
                    rc, absent, result, left = run_side(trees[side], w, seed, args.seconds,
                                                        trace)
                    runs.append({"workload": w, "side": side, "trace": trace, "seed": seed,
                                 "first": first, "returncode": rc, "absent": absent,
                                 "left_running": left, "result": result, "round": "1"})
                    wall = result["metrics"].get("wall_s", {}).get("value") if result else None
                    print(f"seed {seed} trace {trace} {w:22s} {side:6s} rc {rc} "
                          f"wall_s {wall}", flush=True)

    summary = summarize(runs, workloads, bench["end_to_end"])
    doc = {"what": args.what, "parent_commit": parent_commit,
           "command": "python3 perfbench/run.py --workload <workload> --seed <seed> "
                      f"--seconds {args.seconds:g} --trace <trace>",
           "host": args.host, "rounds": {"1": args.round},
           "tier1": tier1, "probes": probes,
           "final_round_trace0_quartiles": summary}
    if claim:
        doc["verdict"] = verdict(summary, claim, bench["end_to_end"])
        print("verdict " + json.dumps(doc["verdict"]), flush=True)
    doc["runs"] = runs
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    failed = sum(r["returncode"] != 0 or bool(r["left_running"]) for r in runs) + sum(
        t["returncode"] != 0 for t in tier1.values()) + sum(
        "error" in p for side in probes.values() for p in side.values())
    print(f"wrote {args.out}: {len(runs)} runs, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
