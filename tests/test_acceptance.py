"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavy simulation
fixtures are module-scoped and shared; the constraint-safety and
determinism criteria sweep over every run the suite produced.
"""

import dataclasses
import json
import time

import numpy as np
import pytest
from scipy.special import j0

from refimsim import channel, engine, power
from refimsim.cli import main as cli_main
from refimsim.oracle import brute_force, settle_algorithm
from refimsim.presets import get_preset
from refimsim.reference import ReferenceSelection
from refimsim.scheduling import NO_USER, schedule_at, scheduled_index
from refimsim.topology import pad_index_lists
from refimsim.oracle import enumerate_schedules, evaluate_objective, serving_of

ALL_RUNS = {}  # name -> RunResult, consumed by criteria 7 and 10


def _run(name, scenario, **kw):
    res = engine.run(scenario, **kw)
    ALL_RUNS[name] = res
    return res


def _line(num, text):
    print(f"\n[criterion {num:02d}] {text}")


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def hex19_runs():
    sc = dataclasses.replace(get_preset("hex19"), seed=7)
    t0 = time.perf_counter()
    runs = {algo: _run(f"hex19-{algo}", dataclasses.replace(sc, algorithm=algo))
            for algo in ("eq", "wf", "refim")}
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def two_cell_run():
    sc = dataclasses.replace(get_preset("two-cell"), slots=700, warmup_slots=500,
                             seed=3)
    return sc, _run("two-cell", sc)


@pytest.fixture(scope="module")
def staleness_runs():
    base = engine.Scenario(kind="hex", rings=1, inter_site_distance_m=2800.0,
                           macro_users_per_cell=10, subchannels=16,
                           slots=1500, warmup_slots=500, seed=7)
    out = {}
    for label, mobile, speed in (("nomadic", False, 3.0), ("mobile", True, 60.0)):
        for T in (1, 200):
            sc = dataclasses.replace(base, mobile_users=mobile, user_speed_kmh=speed,
                                     feedback_period_slots=T)
            out[(label, T)] = _run(f"stale-{label}-T{T}", sc)
    return out


@pytest.fixture(scope="module")
def hetnet_runs():
    het = dataclasses.replace(get_preset("hetnet10"), seed=5)
    runs = {"refim-sharing": _run("hetnet-refim-sharing",
                                  dataclasses.replace(het, algorithm="refim",
                                                      spectrum_policy="sharing"))}
    for c in (2, 4, 6, 8, 10, 12, 14):
        sc = dataclasses.replace(het, algorithm="eq", spectrum_policy="splitting",
                                 macro_subchannels=c)
        runs[f"eq-split-{c}"] = _run(f"hetnet-eq-split{c}", sc)
    return runs


@pytest.fixture(scope="module")
def mixed_density_runs():
    mx = dataclasses.replace(get_preset("mixed-density"), seed=3, slots=1200,
                             warmup_slots=400)
    return {
        "eq": _run("mixed-eq", dataclasses.replace(mx, algorithm="eq")),
        "full": _run("mixed-refim-full", dataclasses.replace(mx, algorithm="refim")),
        "half": _run("mixed-refim-half",
                     dataclasses.replace(mx, algorithm="refim",
                                         deployment_fraction=0.5)),
    }


def toy_instance(seed):
    """2 BSs, one user each, 2 subchannels; lognormal direct/cross gains."""
    rng = np.random.default_rng(seed)
    K, N, S = 2, 2, 2
    cells = [[0], [1]]
    direct = 10 ** rng.uniform(-0.5, 0.5, size=2)
    cross_frac = 10 ** rng.uniform(-1.5, -0.2, size=2)
    gains = np.zeros((K, N, S))
    for s in range(S):
        fade = 10 ** rng.uniform(-0.3, 0.3, size=(2, 2))
        gains[0, 0, s] = direct[0] * fade[0, 0]
        gains[0, 1, s] = direct[0] * cross_frac[0] * fade[0, 1]
        gains[1, 1, s] = direct[1] * fade[1, 0]
        gains[1, 0, s] = direct[1] * cross_frac[1] * fade[1, 1]
    noise = np.full((K, S), 10 ** rng.uniform(-1.5, -0.5))
    return (gains, noise, cells, np.ones(K), np.ones(N), np.ones((N, S)),
            [[1], [0]])


# ---------------------------------------------------------------- criteria

def test_criterion_01_algorithm_ordering(hex19_runs):
    runs, elapsed = hex19_runs
    gat = {a: runs[a].gat_bps for a in runs}
    aet_ratio = runs["refim"].aet_bps / runs["eq"].aet_bps
    _line(1, f"hex19 GAT refim={gat['refim']:.3e} wf={gat['wf']:.3e} "
             f"eq={gat['eq']:.3e}; AET(refim)/AET(eq)={aet_ratio:.2f}; "
             f"{elapsed:.0f}s")
    assert gat["refim"] > gat["wf"] >= gat["eq"]
    assert aet_ratio >= 1.2
    assert elapsed < 300.0


def test_criterion_02_near_optimality_vs_oracle():
    t0 = time.perf_counter()
    ratios_refim, ratios_wf = [], []
    for seed in range(20):
        gains, noise, cells, weights, budgets, masks, nbrs = toy_instance(seed)
        best = brute_force(gains, noise, cells, weights, budgets, masks,
                           levels=9)
        h_r, _, _ = settle_algorithm("refim", gains, noise, cells, weights,
                                     budgets, masks, nbrs)
        h_w, _, _ = settle_algorithm("wf", gains, noise, cells, weights,
                                     budgets, masks, nbrs)
        ratios_refim.append(h_r / best.objective)
        ratios_wf.append(h_w / best.objective)
    elapsed = time.perf_counter() - t0
    mean_ratio = float(np.mean(ratios_refim))
    beats_wf = float(np.mean(np.array(ratios_refim) >= np.array(ratios_wf) - 1e-12))
    _line(2, f"mean REFIM/oracle={mean_ratio:.4f}; REFIM>=WF on "
             f"{beats_wf:.0%} of 20 seeds; {elapsed:.1f}s")
    assert mean_ratio >= 0.90
    assert beats_wf >= 0.80
    assert elapsed < 60.0


def test_criterion_03_waterfilling_reduction():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n_bs, n_sub, upc = 2, 4, 2
        K = n_bs * upc
        gains = rng.lognormal(-1.0, 1.0, size=(K, n_bs, n_sub))
        noise = np.full((K, n_sub), 0.1)
        weights = rng.uniform(0.3, 3.0, size=K)
        prev = rng.uniform(0.05, 0.5, size=(n_bs, n_sub))
        sched = np.stack([rng.choice([n * upc, n * upc + 1], size=n_sub)
                          for n in range(n_bs)])
        empty = ReferenceSelection(
            ref_bs=np.full((n_bs, n_sub, 1), -1),
            ref_user=np.full((n_bs, n_sub, 1), NO_USER),
            f0=np.zeros((n_bs, n_sub, 1)), f1=np.zeros((n_bs, n_sub, 1)),
            f2=np.ones((n_bs, n_sub, 1)), f3=np.ones((n_bs, n_sub, 1)))
        budgets, masks = np.full(n_bs, 1.5), np.full((n_bs, n_sub), 1.5)
        index = scheduled_index(sched)
        w, g, sig = power.scheduled_arrays(gains, index, weights, noise)
        intf = power.measured_interference(gains, prev, index, noise)
        step_masks = np.where(index[0], masks, 0.0)
        p_ref, _, _ = power.allocate_bisection_batch(w, empty.taxes(), intf, g, budgets,
                                                     step_masks, noise_w=sig)
        p_wf, _, _ = power.allocate_bisection_batch(w, np.zeros((n_bs, n_sub)), intf, g,
                                                    budgets, step_masks, noise_w=sig)
        worst = max(worst, float(np.abs(p_ref - p_wf).max()))
    _line(3, f"max |p_refim(no refs) - p_wf| over 100 instances = {worst:.2e} W")
    assert worst < 1e-9


def test_criterion_04_scheduling_decomposition():
    failures = 0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        n_bs = int(rng.integers(1, 3))
        n_sub = int(rng.integers(1, 3))
        cells, offset = [], 0
        for n in range(n_bs):
            size = int(rng.integers(1, 4))
            cells.append(list(range(offset, offset + size)))
            offset += size
        K = offset
        gains = rng.lognormal(-1.0, 1.0, size=(K, n_bs, n_sub))
        noise = rng.uniform(0.05, 0.3, size=(K, n_sub))
        weights = rng.uniform(0.2, 3.0, size=K)
        powers = rng.uniform(0.0, 1.0, size=(n_bs, n_sub))
        sched = schedule_at(gains, powers, noise, serving_of(cells, K), pad_index_lists(cells),
                            weights)[0]
        h_argmax = evaluate_objective(gains, noise, weights, powers, sched)
        h_best = max(evaluate_objective(gains, noise, weights, powers, sm)
                     for sm in enumerate_schedules(cells, n_sub))
        if not np.isclose(h_argmax, h_best, rtol=1e-12, atol=1e-12):
            failures += 1
    _line(4, f"argmax scheduling matched exhaustive optimum on "
             f"{100 - failures}/100 instances")
    assert failures == 0


def test_criterion_05_two_cell_emergent_partition(two_cell_run):
    sc, res = two_cell_run
    net = engine.build_network(sc)
    dist = net.distances()[np.arange(net.n_users), res.serving_bs]
    edge_ids = np.flatnonzero(dist >= sc.edge_band_m[0])
    S = sc.subchannels
    top_half = {n: set(np.argsort(-res.avg_power_w[n])[:S // 2]) for n in range(2)}
    total, hits = 0, 0
    for k in edge_ids:
        counts = res.serve_counts[k]
        total += int(counts.sum())
        hits += int(sum(counts[s] for s in top_half[res.serving_bs[k]]))
    frac = hits / total
    _line(5, f"edge users on top-half-power subchannels in {frac:.1%} "
             f"of {total} served pairs")
    assert frac >= 0.80


def test_criterion_06_feedback_staleness(staleness_runs):
    g = {k: r.gat_bps for k, r in staleness_runs.items()}
    mobile_gap = (g[("mobile", 1)] - g[("mobile", 200)]) / g[("mobile", 1)]
    nomadic_gap = (g[("nomadic", 1)] - g[("nomadic", 200)]) / g[("nomadic", 1)]
    _line(6, f"relative GAT gap T=1 vs T=200: mobile {mobile_gap:.1%}, "
             f"nomadic {nomadic_gap:.1%}")
    assert g[("mobile", 1)] > g[("mobile", 200)]
    assert mobile_gap >= 0.03
    assert nomadic_gap < 0.05


def test_criterion_07_constraint_safety(hex19_runs, two_cell_run, staleness_runs,
                                        hetnet_runs, mixed_density_runs):
    total = sum(r.constraint_violations for r in ALL_RUNS.values())
    _line(7, f"{total} constraint violations across {len(ALL_RUNS)} "
             f"acceptance runs")
    assert len(ALL_RUNS) >= 17
    assert total == 0


def test_criterion_08_sharing_beats_best_eq_splitting(hetnet_runs):
    sharing = hetnet_runs["refim-sharing"].gat_bps
    # ratios 0 and 16 starve one tier entirely (GAT collapses to 0), so the
    # interior grid covers the best splitting configuration
    best_split = max(r.gat_bps for k, r in hetnet_runs.items()
                     if k.startswith("eq-split"))
    _line(8, f"GAT refim-sharing={sharing:.3e} vs best EQ-splitting="
             f"{best_split:.3e} ({sharing / best_split:.2f}x)")
    assert sharing >= best_split


def test_criterion_09_partial_deployment(mixed_density_runs):
    r = mixed_density_runs
    gain_full = r["full"].gat_bps - r["eq"].gat_bps
    gain_half = r["half"].gat_bps - r["eq"].gat_bps
    ratio = gain_half / gain_full
    _line(9, f"GAT gain over EQ: densest-half {gain_half:.3e} vs full "
             f"{gain_full:.3e} ({ratio:.1%} retained)")
    assert gain_full > 0
    assert ratio >= 0.70


def test_criterion_10_determinism_and_bisection_bounds(tmp_path, hex19_runs,
                                                       two_cell_run):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "toy2", "--seed", "11", "--out", str(out1)]) == 0
    assert cli_main(["run", "toy2", "--seed", "11", "--out", str(out2)]) == 0
    identical = all((out1 / f).read_bytes() == (out2 / f).read_bytes()
                    for f in ("summary.json", "users.csv"))
    worst_iter = max((r.bisection_iter_max, name) for name, r in ALL_RUNS.items())
    bound = power.BISECTION_ITER_BOUND
    _line(10, f"byte-identical reruns: {identical}; max bisection iterations "
              f"{worst_iter[0]} (bound {bound}, run {worst_iter[1]})")
    assert identical
    assert all(r.bisection_iter_max <= bound for r in ALL_RUNS.values())


def test_criterion_11_channel_model_properties():
    # path loss spot values
    pl_macro = float(channel.path_loss_db("macro", 100.0))
    pl_indoor = float(channel.path_loss_db("indoor", 10.0))
    assert pl_macro == pytest.approx(91.82, abs=0.01)
    assert pl_indoor == pytest.approx(69.0, abs=0.01)

    # Jakes unit mean over a long horizon
    st = channel.FadingState(np.random.default_rng(42), 1, 1, 1,
                             np.array([3 / 3.6]), 2e9, 20e-3)
    total = 0.0
    n_steps = 100_000
    for _ in range(n_steps):
        st.advance()
        total += float(st.power_gains()[0, 0, 0])
    mean_power = total / n_steps

    # lag-1 autocorrelation vs the Bessel oracle
    rng = np.random.default_rng(43)
    n_links = 400
    dt = 1e-3
    st2 = channel.FadingState(rng, n_links, 1, 1, np.full(n_links, 3 / 3.6), 2e9, dt)
    f_d = (3 / 3.6) * 2e9 / channel.SPEED_OF_LIGHT
    prev = st2.coefficients().ravel().copy()
    num = den = 0.0
    for _ in range(400):
        st2.advance()
        cur = st2.coefficients().ravel()
        num += float(np.real(np.vdot(prev, cur)))
        den += float(np.vdot(prev, prev).real)
        prev = cur.copy()
    rho = num / den
    bessel = float(j0(2 * np.pi * f_d * dt))
    _line(11, f"PL spots {pl_macro:.2f}/{pl_indoor:.2f} dB; E|h|^2={mean_power:.4f}; "
              f"lag-1 corr {rho:.4f} vs J0 {bessel:.4f}")
    assert abs(mean_power - 1.0) < 0.03
    assert rho == pytest.approx(bessel, abs=0.02)
