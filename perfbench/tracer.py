"""Per-layer tracing from outside the simulator.

Each layer is a set of public functions, wrapped at the module (or class)
attribute through which their callers look them up: `classify_edge_users` is
imported by name into `reference`, so it is wrapped there as well as in
`topology`. A wrapper records the call's self time (its duration minus the
time spent in wrapped calls it made) and, for some layers, counts read from
the return value. Nothing in the simulator is edited; `uninstall` puts the
original attributes back.

An attribute that no longer exists (a later refactor deleted or renamed it)
is listed in `absent` and its layer reads 0 instead of crashing the run.
"""

import functools
import importlib
import time

import numpy as np

# layer -> (unit of its self time, attributes its callers look it up by).
# "ms" layers are reported per simulated slot, "s" layers per invocation.
LAYERS = {
    "channel.fading_advance": ("ms", ["channel.FadingState.advance"]),
    "channel.power_gains": ("ms", ["channel.FadingState.power_gains"]),
    "channel.large_scale": ("ms", ["channel.large_scale_linear"]),
    "channel.fading_init": ("s", ["channel.FadingState.__init__"]),
    "channel.path_loss": ("ms", ["channel.path_loss_matrix_db"]),
    "topology.build": ("s", ["topology.build_hex_grid", "topology.build_linear_two_cell",
                             "topology.build_heterogeneous", "topology.build_mixed_density",
                             "topology.place_users", "topology.local_density_rank"]),
    "topology.mobility": ("ms", ["topology.WaypointMobility.advance"]),
    "topology.edge_classify": ("ms", ["topology.classify_edge_users",
                                      "reference.classify_edge_users"]),
    "scheduling.schedule": ("ms", ["scheduling.schedule_users"]),
    "scheduling.served_rates": ("ms", ["scheduling.served_rates"]),
    "scheduling.state": ("ms", ["scheduling.UserStates.weights",
                                "scheduling.UserStates.update"]),
    "reference.accumulate": ("ms", ["reference.CandidateTables.accumulate"]),
    "reference.refresh": ("ms", ["reference.refresh_candidate_tables"]),
    "reference.exchange": ("ms", ["reference.exchange_scheduled_indices"]),
    "reference.select": ("ms", ["reference.select_references"]),
    "reference.taxes": ("ms", ["reference.ReferenceSelection.taxes"]),
    "power.bisection": ("ms", ["power.allocate_bisection_batch"]),
    "power.interference": ("ms", ["power.measured_interference"]),
    "power.initial_power": ("ms", ["power.initial_power"]),
    "power.violations": ("ms", ["power.PowerMatrix.violations"]),
    "power.general": ("ms", ["power.general_algorithm"]),
    "engine.self": ("ms", ["engine.run"]),
    "cli.load": ("s", ["cli.load_scenario", "cli.apply_overrides"]),
    "cli.write": ("s", ["cli.write_summary", "cli.write_users_csv",
                        "cli.write_powers_csv", "cli.write_protocol_csv"]),
}

PACKAGE = "refimsim"

# Attributes observed for their return value or instance only; their time
# stays with whichever layer called them.
OBSERVED = ["reference.CandidateTables.__init__"]


def _array_mb(obj):
    """MB held by the ndarray attributes of obj, computed from their sizes."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray)) / 2**20


class Counters:
    """Counts read from wrapped calls; they repeat exactly for a given input."""

    def __init__(self):
        self.bisection_calls = 0
        self.bisection_iters = []      # one array of per-BS iterations per call
        self.bisection_bound = []      # one bool array (lambda > 0) per call
        self.publish_events = 0
        self.coverage = []             # valid references per (bs, subchannel), per call
        self.fading_state = None
        self.tables = None
        self.unreadable = set()        # hooks whose return value no longer parses

    def on_return(self, layer, attr, out, args):
        try:
            if layer == "power.bisection":
                _, lam, iters = out
                self.bisection_calls += 1
                self.bisection_iters.append(np.asarray(iters).ravel())
                self.bisection_bound.append(np.asarray(lam).ravel() > 0)
            elif layer == "reference.refresh":
                self.publish_events += int(out)
            elif layer == "reference.select":
                valid = out.valid()
                self.coverage.append(valid.sum() / (valid.shape[0] * valid.shape[1]))
            elif layer == "channel.fading_init":
                self.fading_state = args[0]
            elif attr == "reference.CandidateTables.__init__":
                self.tables = args[0]
        except (TypeError, ValueError, AttributeError, IndexError):
            self.unreadable.add(attr)


class Tracer:
    """Installs the wrappers; accumulates self seconds and calls per layer."""

    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.counters = Counters()
        self.absent = []
        self._stack = []               # child seconds of each open traced call
        self._patched = []

    def _resolve(self, attr):
        module, *path = attr.split(".")
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module}")
            for name in path[:-1]:
                owner = getattr(owner, name)
            return owner, getattr(owner, path[-1])
        except (ImportError, AttributeError):
            return None, None

    def install(self):
        self.absent = []
        for layer, (_, attrs) in LAYERS.items():
            for attr in attrs:
                self._patch(attr, layer, timed=True)
        for attr in OBSERVED:
            self._patch(attr, None, timed=False)
        return self

    def uninstall(self):
        for owner, name, fn in reversed(self._patched):
            setattr(owner, name, fn)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, attr, layer, timed):
        owner, fn = self._resolve(attr)
        if fn is None:
            self.absent.append(attr)
            return
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        def observed(*args, **kwargs):
            out = fn(*args, **kwargs)
            counters.on_return(layer, attr, out, args)
            return out

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                self.self_s[layer] += dur - child
                self.calls[layer] += 1
                if stack:
                    stack[-1] += dur
            counters.on_return(layer, attr, out, args)
            return out

        wrapper = functools.update_wrapper(traced if timed else observed, fn)
        name = attr.rsplit(".", 1)[1]
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, fn))

    def accounted_s(self):
        """Sum of every layer's self time so far."""
        return sum(self.self_s.values())

    def metrics(self, slots, invocations, traced_wall_s, untraced_wall_s, cli_files):
        """Per-layer metrics from the traced invocations.

        slots: simulated slots over all traced invocations; invocations: their
        count; traced_wall_s / untraced_wall_s: median invocation wall times;
        cli_files: (rows, bytes) written per invocation, or None.
        """
        out = {}
        for layer, (unit, _) in LAYERS.items():
            if unit == "ms":
                out[f"{layer}_ms"] = (1e3 * self.self_s[layer] / slots, "ms")
            else:
                out[f"{layer}_s"] = (self.self_s[layer] / invocations, "s")
        c = self.counters
        iters = np.concatenate(c.bisection_iters) if c.bisection_iters else np.zeros(0)
        bound = np.concatenate(c.bisection_bound) if c.bisection_bound else np.zeros(0)
        rows, nbytes = cli_files or (0, 0)
        out.update({
            "channel.fading_state_mb": (_array_mb(c.fading_state) if c.fading_state else 0.0, "MB"),
            "channel.path_loss_calls": (self.calls["channel.path_loss"] / invocations, "count"),
            "reference.publish_events": (c.publish_events / invocations, "count"),
            "reference.coverage": (float(np.mean(c.coverage)) if c.coverage else 0.0, "refs/pair"),
            "reference.table_mb": (_array_mb(c.tables) if c.tables else 0.0, "MB"),
            "power.bisection_calls": (c.bisection_calls / invocations, "count"),
            "power.bisection_iters_mean": (float(iters.mean()) if iters.size else 0.0, "iters"),
            "power.bisection_iters_max": (int(iters.max()) if iters.size else 0, "iters"),
            "power.budget_bound_frac": (float(bound.mean()) if bound.size else 0.0, "frac"),
            "cli.rows_written": (rows, "count"),
            "cli.bytes_written": (nbytes, "bytes"),
            "trace.overhead_frac": (traced_wall_s / untraced_wall_s - 1.0, "frac"),
        })
        return out
