"""Run one benchmark workload in this process and write its result as JSON.

run.py starts this file in a child process, one workload per process, with
the BLAS and OpenMP thread caps already in its environment. The loop is
closed with one client: each invocation starts when the previous one returns.

Every run first simulates the workload at REFERENCE_SEED. That call is the
warm-up, and its GAT/AET/AAT must match expected.json. Then, with tracing off,
it times set-up (the invocation cut to one slot) several times and full
invocations at --seed until --seconds have passed, each after a host-speed
probe, and reports medians of the probe-scaled times. With
--trace 1 it alternates untraced and traced full invocations instead and
reports the per-layer breakdown from the traced ones.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from refimsim import cli, engine  # noqa: E402
from refimsim.presets import get_preset  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402

EXPECTED_PATH = HERE / "expected.json"
FIDELITY_KEYS = ("gat_bps", "aet_bps", "aat_bps")
# Recorded values are compared with this relative tolerance. Perturbing every
# channel gain by one ulp moves them by at most 2e-15 at these run lengths, so
# it admits reordered floating-point arithmetic and nothing that changes a
# decision.
FIDELITY_RTOL = 1e-9
# Column orders the README freezes.
FROZEN_HEADERS = {
    "users.csv": "user_id,serving_bs,tier,R_bps,is_edge",
    "powers.csv": "slot,bs,subchannel,watts",
    "protocol.csv": "slot,sender,receiver,message_type,bytes",
}
CLI_OUTPUTS = ("summary.json", *FROZEN_HEADERS)
# Host-speed probe, run before every timed invocation (README "Noise"). It is
# a frozen miniature of one refim slot at the workload's array sizes: Jakes
# rotation and gain reduction over the whole link tensor, the received-power
# einsum, a Python loop over the cells and a 30-step lockstep bisection. It
# calls nothing in the simulator, so it measures the machine, not the commit.
PROBE_SLOTS_PER_SLOT = 0.05
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 50
SETUP_BUDGET_S = 1.5
ACCOUNTING_TOLERANCE = 0.05


@dataclasses.dataclass
class Outcome:
    wall_s: float           # host seconds from call to return, as measured
    fingerprint: object     # what must repeat exactly for the same input
    summary: dict
    problems: list
    files: tuple = None     # CLI only: (data rows, bytes) written
    probe_s: float = None   # the host-speed probe's time just before the call


class SlotProbe:
    """Times PROBE_SLOTS_PER_SLOT x slots miniature slots of fixed work."""

    def __init__(self, users, stations, subchannels, slots):
        rng = np.random.default_rng(0)
        shape = (users, stations, subchannels, 8)  # 8 Jakes oscillators per link
        self.osc = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, shape))
        self.step = np.exp(1j * rng.uniform(-1e-3, 1e-3, shape))
        self.power = np.ones((stations, subchannels))
        self.serving = rng.integers(0, stations, users)
        self.cells = [np.flatnonzero(self.serving == n) for n in range(stations)]
        self.weights = rng.random(users) + 0.1
        self.slots = max(1, round(PROBE_SLOTS_PER_SLOT * slots))

    def seconds(self):
        t0 = time.perf_counter()
        for _ in range(self.slots):
            self._slot()
        return time.perf_counter() - t0

    def _slot(self):
        self.osc *= self.step
        h = self.osc.sum(axis=-1)
        gains = h.real ** 2 + h.imag ** 2
        total = np.einsum("kms,ms->ks", gains, self.power)
        own = gains[np.arange(gains.shape[0]), self.serving] * self.power[self.serving]
        rate = np.log2(1.0 + own / (total - own + 1e-3))
        sched = np.zeros(self.power.shape, dtype=int)
        for n, ids in enumerate(self.cells):
            if ids.size:
                sched[n] = ids[np.argmax(self.weights[ids, None] * rate[ids], axis=0)]
        lo, hi = np.zeros(len(self.cells)), np.full(len(self.cells), 10.0)
        for _ in range(30):
            mid = 0.5 * (lo + hi)
            p = np.clip(self.weights[sched] / (mid[:, None] + 1e-3) - 1.0, 0.0, 2.0)
            over = p.sum(axis=1) > 1.0
            lo, hi = np.where(over, mid, lo), np.where(over, hi, mid)


def scenario(w, seed, slots, warmup):
    return dataclasses.replace(get_preset(w.preset), **w.overrides, seed=seed,
                               slots=slots, warmup_slots=warmup)


def invoke(w, seed, slots, warmup, out_dir):
    """One call into the program, timed from call to return, then checked."""
    if w.cli:
        return _invoke_cli(w, seed, slots, warmup, out_dir)
    sc = scenario(w, seed, slots, warmup)
    t0 = time.perf_counter()
    try:
        res = engine.run(sc)
    except Exception as e:  # a failed run is a failed check, not a crash
        return Outcome(time.perf_counter() - t0, None, {}, [f"engine.run raised {e!r}"])
    wall = time.perf_counter() - t0
    summary = res.summary()
    return Outcome(wall, summary, summary, _summary_problems(summary))


def _summary_problems(summary):
    if summary.get("constraint_violations") != 0:
        return [f"constraint_violations = {summary.get('constraint_violations')}"]
    return []


def _invoke_cli(w, seed, slots, warmup, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in CLI_OUTPUTS:
        (out_dir / name).unlink(missing_ok=True)
    # The run length goes through the config file: `--slots N` below the
    # preset's warmup_slots exits 2 instead of 1 (ROADMAP item 4).
    config = out_dir / "config.json"
    config.write_text(json.dumps({"preset": w.preset, **w.overrides, "seed": seed,
                                  "slots": slots, "warmup_slots": warmup}))
    argv = ["run", str(config), "--dump-powers", "--dump-protocol", "--out", str(out_dir)]
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
    except Exception as e:
        return Outcome(time.perf_counter() - t0, None, {}, [f"cli.main raised {e!r}"])
    wall = time.perf_counter() - t0
    if code != 0:
        return Outcome(wall, None, {}, [f"cli.main exited {code}"])

    problems, rows, nbytes, digest = [], 0, 0, hashlib.sha256()
    power_rows = None
    for name in CLI_OUTPUTS:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} was not written")
            continue
        data = path.read_bytes()
        nbytes += len(data)
        digest.update(data)
        if name in FROZEN_HEADERS:
            lines = data.decode().splitlines()
            if not lines or lines[0] != FROZEN_HEADERS[name]:
                problems.append(f"{name} header is not {FROZEN_HEADERS[name]!r}")
            rows += max(len(lines) - 1, 0)
            if name == "powers.csv":
                power_rows = len(lines) - 1
    if problems:
        return Outcome(wall, None, {}, problems)
    summary = json.loads((out_dir / "summary.json").read_text())
    problems += _summary_problems(summary)
    subchannels = scenario(w, seed, slots, warmup).subchannels
    want = slots * summary["base_stations"] * subchannels
    if power_rows != want:
        problems.append(f"powers.csv has {power_rows} rows, want slots x N x S = {want}")
    return Outcome(wall, (summary, digest.hexdigest()), summary, problems, (rows, nbytes))


class Run:
    """Invocations of one workload, their checks and the failure count."""

    def __init__(self, workload, out_dir):
        self.w = workload
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._fingerprint = None
        self.probe = None

    def call(self, seed, full=True, tracer=None):
        """Invoke at `seed`, full length or cut to one slot, optionally traced."""
        slots, warmup = (self.w.slots, self.w.warmup_slots) if full else (1, 0)
        probe_s = self.probe.seconds() if self.probe else None
        if tracer is None:
            o = invoke(self.w, seed, slots, warmup, self.out_dir)
        else:
            before = tracer.accounted_s()
            with tracer:
                o = invoke(self.w, seed, slots, warmup, self.out_dir)
            share = (tracer.accounted_s() - before) / o.wall_s
            if abs(1.0 - share) > ACCOUNTING_TOLERANCE:
                o.problems.append(f"layer self times account for {share:.1%} of wall time")
        o.probe_s = probe_s
        if full and o.fingerprint is not None:
            if self._fingerprint is None:
                self._fingerprint = o.fingerprint
            elif o.fingerprint != self._fingerprint:
                o.problems.append("output differs from the first invocation with this seed")
        self.record(o, f"seed={seed}" + ("" if full else " slots=1"))
        return o

    def record(self, o, label):
        self.attempted += 1
        if o.problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in o.problems]

    def reference(self):
        """Warm-up call at REFERENCE_SEED, checked against expected.json."""
        o = invoke(self.w, REFERENCE_SEED, self.w.slots, self.w.warmup_slots, self.out_dir)
        expected = json.loads(EXPECTED_PATH.read_text()).get(self.w.name)
        if expected is None:
            o.problems.append("no values recorded in expected.json")
        elif o.summary:
            for key in FIDELITY_KEYS:
                if not math.isclose(o.summary[key], expected[key], rel_tol=FIDELITY_RTOL):
                    o.problems.append(f"{key} = {o.summary[key]!r}, recorded {expected[key]!r}")
        self.record(o, "reference")
        return o


def timed_run(run, seed, seconds):
    """End-to-end metrics, tracing off."""
    ref = run.reference()
    # The first invocation's peak: later ones reuse heap that glibc kept from
    # the earlier ones, which makes the process's final peak vary by one array.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.probe = SlotProbe(ref.summary.get("users", 1), ref.summary.get("base_stations", 1),
                          scenario(run.w, seed, 1, 0).subchannels, run.w.slots)
    setup = []
    start = time.perf_counter()
    while len(setup) < SETUP_MIN_REPEATS or (
            time.perf_counter() - start < SETUP_BUDGET_S and len(setup) < SETUP_MAX_REPEATS):
        setup.append(run.call(seed, full=False))
    full = []
    start = time.perf_counter()
    while not full or time.perf_counter() - start < seconds:
        full.append(run.call(seed))
    # Host seconds at the probe's reference speed: each invocation's time
    # times probe_ref_s over the probe time measured just before it.
    wall_s = statistics.median(o.wall_s / o.probe_s for o in full) * run.w.probe_ref_s
    setup_s = statistics.median(o.wall_s / o.probe_s for o in setup) * run.w.probe_ref_s
    metrics = {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "slot_ms": (1e3 * (wall_s - setup_s) / (run.w.slots - 1), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "gat_bps": (ref.summary.get("gat_bps", 0.0), "bps"),
        "aet_bps": (ref.summary.get("aet_bps", 0.0), "bps"),
        "ok_frac": (1.0 - run.failed / run.attempted, "frac"),
    }
    samples = {"wall_s": [o.wall_s for o in full], "setup_s": [o.wall_s for o in setup],
               "probe_s": [o.probe_s for o in full + setup]}
    return metrics, samples, []


def traced_run(run, seed, seconds):
    """Per-layer metrics: untraced and traced invocations, alternating."""
    run.reference()
    tracer = Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for use_trace in ((False, True) if len(traced) % 2 == 0 else (True, False)):
            if use_trace:
                traced.append(run.call(seed, tracer=tracer))
            else:
                untraced.append(run.call(seed))
    traced_wall = sum(o.wall_s for o in traced)
    metrics = tracer.metrics(run.w.slots * len(traced), len(traced),
                             statistics.median(o.wall_s for o in traced),
                             statistics.median(o.wall_s for o in untraced),
                             traced[-1].files)
    metrics["trace.accounted_frac"] = (tracer.accounted_s() / traced_wall, "frac")
    samples = {"traced_wall_s": [o.wall_s for o in traced],
               "untraced_wall_s": [o.wall_s for o in untraced]}
    return metrics, samples, tracer.absent + sorted(tracer.counters.unreadable)


def environment():
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or "unknown",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "unknown",
        "thread_caps": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo") as f:
            env["cpu_model"] = next(line.split(":", 1)[1].strip() for line in f
                                    if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        pass
    return env


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True, help="directory for the program's output files")
    p.add_argument("--result", required=True, help="where to write the result JSON")
    args = p.parse_args(argv)

    # Set-up runs (one slot, no warm-up) leave users unserved by construction.
    warnings.filterwarnings("ignore", message="zero throughput")
    run = Run(WORKLOADS[args.workload], Path(args.out))
    measure = traced_run if args.trace else timed_run
    metrics, samples, absent = measure(run, args.seed, args.seconds)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "absent": absent,
        "problems": run.problems,
        "environment": environment(),
    }
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
