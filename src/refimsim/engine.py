"""Per-slot simulation loop, metrics (GAT/AET/AAT), scenario sweeps.

Slot order: advance the channel (mobility, fading) -> gains -> weights ->
`eq` schedules at the equal split; `wf`, `refim` and `general` run one
power.general_algorithm step, which tells them apart only by its tax source
-> served rates -> EWMA update -> metric accumulation.
"""

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, asdict, fields, replace

import numpy as np

from . import channel, power, reference, scheduling, topology

ALGORITHMS = ("eq", "wf", "refim", "general")
KINDS = ("hex", "two_cell", "hetnet", "mixed_density")
POLICIES = ("sharing", "splitting")
INITIAL_RULES = ("uniform", "random", "previous")

# Value types a Scenario field accepts, by the type of its default; a bool
# passes as neither an int nor a float, and a float field must be finite.
_FIELD_KINDS = {bool: (bool,), int: (int, np.integer),
                float: (int, float, np.integer, np.floating)}

DEFAULT_ZONES = (
    {"cols": 5, "rows": 3, "spacing_m": 900.0},    # urban
    {"cols": 5, "rows": 3, "spacing_m": 1350.0},   # suburban, 1.5x spacing
    {"cols": 4, "rows": 2, "spacing_m": 1800.0},   # rural, 2x spacing
)


@dataclass
class Scenario:
    """Complete description of one reproducible run."""
    kind: str = "hex"
    seed: int = 1
    slots: int = 2000
    warmup_slots: int = 500
    subchannels: int = 16
    bandwidth_hz: float = 10e6
    slot_duration_s: float = 1e-3
    algorithm: str = "refim"
    sched_loops: int = 1
    power_loops: int = 1
    initial_power_rule: str = "previous"
    spectrum_policy: str = "sharing"
    macro_subchannels: int = 8
    deployment_fraction: float = 1.0
    ref_count: int = 1
    feedback_period_slots: int = 1
    femto_feedback_period_slots: int = 0    # 0 = same as feedback_period_slots
    edge_only_feedback: bool = False
    edge_threshold_db: float = 6.0
    femto_overhear: bool = True
    rings: int = 2
    inter_site_distance_m: float = 1000.0
    wrap: bool = False
    macro_users_per_cell: int = 20
    femto_users_per_cell: int = 4
    femtos_per_macro: int = 0
    home_size_m: float = 20.0
    bs_distance_m: float = 2000.0
    center_band_m: tuple = (200.0, 400.0)
    edge_band_m: tuple = (700.0, 900.0)
    users_per_group: int = 10
    macro_power_dbm: float = 43.0
    femto_power_dbm: float = 15.0
    zones: tuple = ()
    user_speed_kmh: float = 3.0
    mobile_users: bool = False
    carrier_freq_hz: float = 2e9
    shadowing_sigma_macro_db: float = 8.0
    shadowing_sigma_femto_db: float = 4.0
    noise_figure_db: float = 9.0
    sinr_gap_db: float = 0.0
    ewma_beta: float = 1e-3
    initial_throughput_bps: float = 1e-3
    utility_alpha: float = 1.0

    def __post_init__(self):
        self.validate()

    def validate(self):
        for f in fields(self):
            value, default = getattr(self, f.name), f.default
            kinds = _FIELD_KINDS.get(type(default))
            if kinds and (not isinstance(value, kinds)
                          or isinstance(value, bool) != isinstance(default, bool)):
                raise ValueError(f"{f.name} must be {type(default).__name__}, got {value!r}")
            if isinstance(default, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.spectrum_policy not in POLICIES:
            raise ValueError(f"unknown spectrum policy {self.spectrum_policy!r}")
        if self.initial_power_rule not in INITIAL_RULES:
            raise ValueError(f"unknown initial power rule {self.initial_power_rule!r}")
        if not 0 <= self.warmup_slots < self.slots:
            raise ValueError("need 0 <= warmup_slots < slots")
        if self.spectrum_policy == "splitting" and \
                not 0 <= self.macro_subchannels <= self.subchannels:
            raise ValueError("macro_subchannels must be in [0, subchannels]")
        if not 0.0 <= self.deployment_fraction <= 1.0:
            raise ValueError("deployment_fraction must be in [0, 1]")
        if self.subchannels < 1:
            raise ValueError("subchannels must be >= 1")
        if min(self.macro_users_per_cell, self.femto_users_per_cell, self.users_per_group) < 1:
            raise ValueError("user counts must be >= 1")
        if self.rings < 0 or self.femtos_per_macro < 0:
            raise ValueError("rings and femtos_per_macro must be >= 0")
        if self.kind == "two_cell":
            (c_lo, c_hi), (e_lo, e_hi) = self.center_band_m, self.edge_band_m
            if not 0 < c_lo < c_hi <= e_lo < e_hi < self.bs_distance_m:
                raise ValueError("bands must satisfy 0 < center lo < center hi <= edge lo "
                                 "< edge hi < bs_distance_m")
        for z in map(dict, self.zones):
            if set(z) != {"cols", "rows", "spacing_m"} or not 0 < z["spacing_m"] < math.inf \
                    or not all(isinstance(z[k], _FIELD_KINDS[int]) and not isinstance(z[k], bool)
                               and z[k] >= 1 for k in ("cols", "rows")):
                raise ValueError("each zone needs integer cols, rows >= 1 and finite "
                                 "spacing_m > 0")
        if not (self.bandwidth_hz > 0 and self.slot_duration_s > 0):
            raise ValueError("bandwidth_hz and slot_duration_s must be > 0")
        if not self.user_speed_kmh >= 0:
            raise ValueError("user_speed_kmh must be >= 0")
        if not self.sinr_gap_db >= 0:
            raise ValueError("sinr_gap_db must be >= 0")
        if self.sched_loops < 1 or self.power_loops < 1:
            raise ValueError("sched_loops and power_loops must be >= 1")
        if self.ref_count < 0:
            raise ValueError("ref_count must be >= 0")
        if not 0.0 < self.ewma_beta < 1.0:
            raise ValueError("ewma_beta must be in (0, 1)")
        if self.feedback_period_slots < 1:
            raise ValueError("feedback_period_slots must be >= 1")
        if self.femto_feedback_period_slots < 0:
            raise ValueError("femto_feedback_period_slots must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (self.inter_site_distance_m > 0 and self.home_size_m > 0
                and self.carrier_freq_hz > 0 and self.initial_throughput_bps > 0):
            raise ValueError("inter_site_distance_m, home_size_m, carrier_freq_hz and "
                             "initial_throughput_bps must be > 0")
        if not (self.shadowing_sigma_macro_db >= 0 and self.shadowing_sigma_femto_db >= 0):
            raise ValueError("shadowing sigmas must be >= 0")
        return self

    @property
    def sinr_gap(self):
        """The linear SINR gap Gamma >= 1 of `sinr_gap_db`."""
        return 10.0 ** (self.sinr_gap_db / 10.0)

    def seed_streams(self):
        """The seed's SeedSequence children by use, in their frozen spawn
        order; each use draws from its own stream."""
        names = ("topology", "shadowing", "fading", "power", "mobility", "reserved")
        return dict(zip(names, np.random.SeedSequence(self.seed).spawn(len(names))))

    def to_dict(self):
        d = asdict(self)
        d["center_band_m"] = list(self.center_band_m)
        d["edge_band_m"] = list(self.edge_band_m)
        d["zones"] = [dict(z) for z in self.zones]
        return d

    def config_hash(self):
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def build_network(scenario):
    """Construct the scenario's Network (deterministic in the seed)."""
    sc = scenario
    topo_seed, place_seed = sc.seed_streams()["topology"].spawn(2)
    if sc.kind == "hex":
        net = topology.build_hex_grid(sc.rings, sc.inter_site_distance_m, wrap=sc.wrap,
                                      subchannels=sc.subchannels, bandwidth_hz=sc.bandwidth_hz,
                                      power_dbm=sc.macro_power_dbm)
        net = topology.place_users(net, {"macro": sc.macro_users_per_cell}, rng_seed=place_seed)
    elif sc.kind == "two_cell":
        net = topology.build_linear_two_cell(sc.bs_distance_m, sc.center_band_m, sc.edge_band_m,
                                             sc.users_per_group, subchannels=sc.subchannels,
                                             bandwidth_hz=sc.bandwidth_hz,
                                             power_dbm=sc.macro_power_dbm, rng_seed=place_seed)
    elif sc.kind == "hetnet":
        net = topology.build_hex_grid(sc.rings, sc.inter_site_distance_m, wrap=sc.wrap,
                                      subchannels=sc.subchannels, bandwidth_hz=sc.bandwidth_hz,
                                      power_dbm=sc.macro_power_dbm)
        net = topology.build_heterogeneous(net, sc.femtos_per_macro, home_size_m=sc.home_size_m,
                                           rng_seed=topo_seed, power_dbm=sc.femto_power_dbm)
        net = topology.place_users(net, {"macro": sc.macro_users_per_cell,
                                         "femto": sc.femto_users_per_cell}, rng_seed=place_seed)
    else:  # mixed_density
        zones = [dict(z) for z in (sc.zones or DEFAULT_ZONES)]
        net = topology.build_mixed_density(zones, subchannels=sc.subchannels,
                                           bandwidth_hz=sc.bandwidth_hz,
                                           power_dbm=sc.macro_power_dbm, rng_seed=topo_seed)
        net = topology.place_users(net, {"macro": sc.macro_users_per_cell}, rng_seed=place_seed)

    if sc.deployment_fraction < 1.0:
        keep = max(0, round(sc.deployment_fraction * net.n_bs))
        dense_order = topology.local_density_rank(net)
        enabled = set(dense_order[:keep])
        stations = [replace(b, refim_enabled=(b.id in enabled)) for b in net.base_stations]
        net = replace(net, base_stations=stations)
    return net


def power_limits(network, scenario):
    """(budgets, masks, allowed): each BS's (N,) power budget, its (N, S)
    per-subchannel masks, 0 where the spectrum policy forbids a subchannel,
    and the (N, S) bool mask of the subchannels the policy allows."""
    allowed = np.ones((network.n_bs, network.subchannel_count), dtype=bool)
    if scenario.spectrum_policy == "splitting":
        c = scenario.macro_subchannels
        allowed[network.femto, :c] = False
        allowed[~network.femto, c:] = False
    budgets = np.array([b.max_power_w for b in network.base_stations])
    masks = np.array([[b.mask_w] * network.subchannel_count
                      for b in network.base_stations]) * allowed
    return budgets, masks, allowed


def gat(throughputs_bps):
    """Geometric average of user throughputs; 0 (with a warning) if any is 0."""
    r = np.asarray(throughputs_bps, dtype=float)
    if r.size == 0:
        return 0.0
    if np.any(r <= 0):
        warnings.warn("zero throughput: geometric average collapses to 0")
        return 0.0
    return float(np.exp(np.mean(np.log(r))))


def aet(throughputs_bps):
    """Mean of the bottom 5% of users (at least one user)."""
    r = np.sort(np.asarray(throughputs_bps, dtype=float))
    count = max(1, int(np.ceil(0.05 * r.size)))
    return float(r[:count].mean())


def aat(throughputs_bps):
    return float(np.mean(np.asarray(throughputs_bps, dtype=float)))


@dataclass
class RunResult:
    scenario: Scenario
    config_hash: str
    throughput_bps: np.ndarray        # per-user mean served rate, post-warmup
    ewma_throughput_bps: np.ndarray
    gat_bps: float
    aet_bps: float
    aat_bps: float
    is_edge: np.ndarray
    serving_bs: np.ndarray
    network: topology.Network
    accumulated_rate_bps: np.ndarray  # sum over measured slots of served rate
    measured_slots: int
    serve_counts: np.ndarray          # (K, S) powered scheduled pairs
    avg_power_w: np.ndarray           # (N, S) mean committed power
    bisection_iter_max: int
    bisection_iter_bound: int
    bisection_budget_misses: int      # BS-slots with lambda > 0 off the budget by >= delta
    constraint_violations: int
    # Filled by run(record=True), else None:
    powers: np.ndarray = None         # (slots, N, S) committed powers
    schedules: np.ndarray = None      # (slots, N, S) scheduled user, NO_USER if none
    published_users: np.ndarray = None  # (slots, N) users whose tables each BS published

    def summary(self):
        return {
            "config_hash": self.config_hash,
            "seed": self.scenario.seed,
            "algorithm": self.scenario.algorithm,
            "kind": self.scenario.kind,
            "slots": self.scenario.slots,
            "warmup_slots": self.scenario.warmup_slots,
            "users": int(self.throughput_bps.size),
            "base_stations": int(self.avg_power_w.shape[0]),
            "gat_bps": self.gat_bps,
            "aet_bps": self.aet_bps,
            "aat_bps": self.aat_bps,
            "bisection_iter_max": self.bisection_iter_max,
            "bisection_iter_bound": self.bisection_iter_bound,
            "bisection_budget_misses": self.bisection_budget_misses,
            "constraint_violations": self.constraint_violations,
        }


def run(scenario, record=False):
    """Simulate one scenario end to end; deterministic in scenario.seed.

    With `record`, the result also holds every slot's committed powers,
    schedules and per-BS published-user counts (see RunResult).
    """
    sc = scenario
    net = build_network(sc)
    K, N, S = net.n_users, net.n_bs, net.subchannel_count
    members, serving = net.member_index, net.serving
    if np.any(members[:, 0] == scheduling.NO_USER):
        raise ValueError("every cell must have at least one user")

    rng_pow = np.random.default_rng(sc.seed_streams()["power"])
    chan = channel.Channel(sc, net)
    noise = chan.noise

    budgets, masks, allowed = power_limits(net, sc)
    if allowed.all():
        allowed = None   # spectrum sharing: scheduling skips the mask
    enabled = np.array([b.refim_enabled for b in net.base_stations])
    if enabled.all():
        enabled = None   # full deployment: refresh and selection skip the mask
    bw_sub = sc.bandwidth_hz / S
    gap = sc.sinr_gap

    eq_powers = power.initial_power("uniform", budgets, masks)
    states = scheduling.UserStates(K, sc.initial_throughput_bps, sc.ewma_beta, sc.utility_alpha)
    prev_powers = None

    accum = np.zeros(K)
    serve_counts = np.zeros(K * S, dtype=np.int64)
    power_sum = np.zeros((N, S))
    measured = iter_max = budget_misses = violations = 0
    rec_powers = rec_scheds = rec_published = None
    if record:
        rec_powers, rec_scheds = np.zeros((sc.slots, N, S)), np.zeros((sc.slots, N, S), dtype=int)
        rec_published = np.zeros((sc.slots, N), dtype=int)

    # The tax source of the slot step, called once per schedule; the REFIM
    # and general ones read the current slot's t, gains and weights. Only
    # REFIM keeps candidate tables, and its taxes do not depend on the powers.
    if sc.algorithm == "refim":
        tables = reference.CandidateTables(net)

        def taxes(sched, signal, intf_noise):
            tables.accumulate(gains, weights, signal, intf_noise)
            reference.refresh_candidate_tables(net, tables, t, sc,
                                               mean_gains=chan.large_scale, enabled=enabled)
            if record:
                rec_published[t] = np.bincount(serving[tables.last_update == t], minlength=N)
            views = reference.exchange_scheduled_indices(sched, tables, sc)
            refs = reference.select_references(views, tables, sc.ref_count, enabled=enabled)
            taxed = refs.taxes()   # zero for BSs not running REFIM: they select no references
            return lambda p, total: taxed
    elif sc.algorithm == "general":
        def taxes(sched, *_):
            return power.ground_truth_taxes(sched, gains, weights, noise, net.neighbor_index,
                                            sc.ref_count)
    else:
        taxes = power.no_taxes   # wf; eq never calls it
    caps = (sc.sched_loops, sc.power_loops) if sc.algorithm == "general" else (1, 1)

    try:
        for t in range(sc.slots):
            chan.advance()
            gains = chan.gains()  # read-only; valid until the channel's next block

            weights = states.weights()
            if sc.algorithm == "eq":
                sched = scheduling.schedule_at(gains, eq_powers, noise, serving, members, weights,
                                               gap, bw_sub, allowed)[0]
                index = scheduling.scheduled_index(sched)
                committed = eq_powers
            else:
                p_eval = power.initial_power(sc.initial_power_rule, budgets, masks,
                                             prev=prev_powers, rng=rng_pow)
                sched, index, committed, lam, iters = power.general_algorithm(
                    members, serving, gains, weights, noise, taxes, budgets, masks, p_eval, *caps,
                    subchannel_bw_hz=bw_sub, sinr_gap=gap, allowed=allowed)
                iter_max = max(iter_max, iters)
                budget_misses += power.budget_misses(committed, lam, budgets)

            violations += power.PowerMatrix(committed, budgets, masks).violations()
            scheduled, ksafe, rows, cols = index
            violations += int(np.count_nonzero(scheduled & (serving[ksafe] != rows)))

            served = scheduling.served_rates(gains, committed, index, noise, gap, bw_sub)
            states.update(served)

            if t >= sc.warmup_slots:
                accum += served
                powered = scheduled & (committed > 1e-15)
                serve_counts += np.bincount((ksafe * S + cols)[powered], minlength=K * S)
                power_sum += committed
                measured += 1
            if record:
                rec_powers[t], rec_scheds[t] = committed, sched
            prev_powers = committed
    finally:
        chan.close()  # ends the fading's worker processes

    throughput = accum / measured
    is_edge = topology.classify_edge_users(net, chan.large_scale, sc.edge_threshold_db)
    return RunResult(
        scenario=sc, config_hash=sc.config_hash(),
        throughput_bps=throughput,
        ewma_throughput_bps=states.avg_throughput_bps.copy(),
        gat_bps=gat(throughput), aet_bps=aet(throughput), aat_bps=aat(throughput),
        is_edge=is_edge, serving_bs=serving, network=net,
        accumulated_rate_bps=accum, measured_slots=measured,
        serve_counts=serve_counts.reshape(K, S), avg_power_w=power_sum / measured,
        bisection_iter_max=iter_max, bisection_iter_bound=power.BISECTION_ITER_BOUND,
        bisection_budget_misses=budget_misses,
        constraint_violations=violations,
        powers=rec_powers, schedules=rec_scheds, published_users=rec_published,
    )


SWEEP_AXES = ("feedback_period", "split_ratio", "femto_density", "ref_count",
              "loop_caps", "deployment_fraction")


def scenario_for_axis(base, axis, value):
    """Derive the swept scenario for one axis value (shared seed)."""
    if axis == "feedback_period":
        return replace(base, feedback_period_slots=int(value))
    if axis == "split_ratio":
        return replace(base, spectrum_policy="splitting", macro_subchannels=int(value))
    if axis == "femto_density":
        return replace(base, femtos_per_macro=int(value))
    if axis == "ref_count":
        return replace(base, ref_count=int(value))
    if axis == "loop_caps":
        ab = value.lower().split("x") if isinstance(value, str) else value
        if not isinstance(ab, (tuple, list)) or len(ab) != 2:
            raise ValueError(f"loop_caps value {value!r} is neither 'AxB' nor an (A, B) pair")
        return replace(base, algorithm="general", sched_loops=int(ab[0]), power_loops=int(ab[1]))
    if axis == "deployment_fraction":
        return replace(base, deployment_fraction=float(value))
    raise ValueError(f"unknown sweep axis {axis!r}; expected one of {SWEEP_AXES}")


def sweep(base, axis, values):
    """One full run per value, same seed; results keyed by value."""
    return [(v, run(scenario_for_axis(base, axis, v))) for v in values]
