import dataclasses
import warnings

import numpy as np
import pytest

from refimsim import channel, engine, reference, scheduling, topology
from refimsim.engine import (
    Scenario, aat, aet, build_network, gat, power_limits, run,
    scenario_for_axis, sweep,
)
from refimsim.presets import get_preset


def tiny_scenario(**over):
    base = Scenario(kind="two_cell", users_per_group=2, subchannels=4,
                    slots=30, warmup_slots=10, seed=5,
                    bs_distance_m=2000.0, center_band_m=(200.0, 400.0),
                    edge_band_m=(700.0, 900.0))
    return dataclasses.replace(base, **over)


class TestMetrics:
    def test_gat_examples(self):
        assert gat([1.0, 4.0]) == pytest.approx(2.0)
        assert gat([3.3, 3.3, 3.3]) == pytest.approx(3.3)
        assert gat([2.0, 8.0, 4.0]) == pytest.approx(4.0)

    def test_gat_zero_warns(self):
        with pytest.warns(UserWarning):
            assert gat([0.0, 5.0]) == 0.0

    def test_aet_examples(self):
        assert aet(np.arange(1.0, 21.0)) == pytest.approx(1.0)
        assert aet(np.arange(1.0, 41.0)) == pytest.approx(1.5)
        assert aet(np.full(7, 2.5)) == pytest.approx(2.5)

    def test_aet_small_populations_use_at_least_one_user(self):
        assert aet([5.0, 9.0]) == pytest.approx(5.0)

    def test_aat(self):
        assert aat([1.0, 2.0, 3.0]) == pytest.approx(2.0)


class TestScenarioValidation:
    def test_warmup_bounds(self):
        with pytest.raises(ValueError):
            Scenario(slots=10, warmup_slots=10).validate()

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            Scenario(algorithm="magic").validate()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            Scenario(kind="mesh").validate()

    def test_split_count_checked_under_splitting(self):
        with pytest.raises(ValueError):
            Scenario(spectrum_policy="splitting", macro_subchannels=99).validate()

    def test_replace_revalidates(self):
        sc = Scenario(slots=100, warmup_slots=50)
        with pytest.raises(ValueError):
            dataclasses.replace(sc, slots=40)
        with pytest.raises(ValueError):
            dataclasses.replace(sc, seed=-1)

    def test_config_hash_stable_and_sensitive(self):
        a, b = Scenario(seed=1), Scenario(seed=1)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != Scenario(seed=2).config_hash()


class TestBuildNetwork:
    def test_presets_build(self):
        for name in ("hex19", "two-cell", "hetnet5", "mixed-density", "toy2"):
            net = build_network(get_preset(name))
            assert net.n_users > 0

    def test_hex19_population(self):
        net = build_network(get_preset("hex19"))
        assert net.n_bs == 19 and net.n_users == 380

    def test_deployment_fraction_marks_densest(self):
        sc = dataclasses.replace(get_preset("mixed-density"), deployment_fraction=0.5)
        net = build_network(sc)
        enabled = [b.id for b in net.base_stations if b.refim_enabled]
        assert len(enabled) == round(0.5 * net.n_bs)
        rank = topology.local_density_rank(build_network(
            dataclasses.replace(sc, deployment_fraction=1.0)))
        assert set(enabled) == set(rank[:len(enabled)])


class TestAllowedSubchannels:
    def test_sharing_allows_everything(self):
        sc = tiny_scenario()
        net = build_network(sc)
        assert power_limits(net, sc)[2].all()

    def test_splitting_partitions_tiers(self):
        sc = Scenario(kind="hetnet", rings=0, femtos_per_macro=2, subchannels=8,
                      macro_users_per_cell=4, femto_users_per_cell=2,
                      spectrum_policy="splitting", macro_subchannels=5,
                      slots=5, warmup_slots=1)
        net = build_network(sc)
        allowed = power_limits(net, sc)[2]
        for n, bs in enumerate(net.base_stations):
            if bs.tier == topology.TIER_FEMTO:
                assert not allowed[n, :5].any() and allowed[n, 5:].all()
            else:
                assert allowed[n, :5].all() and not allowed[n, 5:].any()


class TestRun:
    def test_single_cell_eq_constant_service(self):
        # frozen channel (speed 0): window mean equals the flat-power rate and
        # the EWMA obeys its closed form toward that rate
        sc = Scenario(kind="hex", rings=0, macro_users_per_cell=1, subchannels=4,
                      algorithm="eq", slots=40, warmup_slots=5, seed=3,
                      user_speed_kmh=0.0)
        res = run(sc)
        r = res.throughput_bps[0]
        assert r > 0
        T, r0, beta = sc.slots, sc.initial_throughput_bps, sc.ewma_beta
        expected_ewma = r * (1 - (1 - beta) ** T) + r0 * (1 - beta) ** T
        assert res.ewma_throughput_bps[0] == pytest.approx(expected_ewma, rel=1e-9)
        assert res.accumulated_rate_bps[0] == pytest.approx(r * res.measured_slots)

    def test_determinism_same_seed(self):
        a = run(tiny_scenario())
        b = run(tiny_scenario())
        assert np.array_equal(a.throughput_bps, b.throughput_bps)
        assert np.array_equal(a.avg_power_w, b.avg_power_w)
        assert a.gat_bps == b.gat_bps
        c = run(tiny_scenario(seed=6))
        assert not np.array_equal(a.throughput_bps, c.throughput_bps)

    def test_metric_ordering(self):
        for algo in ("eq", "wf", "refim"):
            res = run(tiny_scenario(algorithm=algo))
            assert res.aet_bps <= res.aat_bps + 1e-12
            assert res.gat_bps <= res.aat_bps + 1e-12
            assert res.aet_bps <= res.gat_bps + 1e-12  # generated data, all > 0

    def test_no_constraint_violations_and_iter_bound(self):
        for algo in ("eq", "wf", "refim"):
            res = run(tiny_scenario(algorithm=algo))
            assert res.constraint_violations == 0
            assert res.bisection_iter_max <= res.bisection_iter_bound

    def test_bisection_budget_misses(self):
        assert run(tiny_scenario(algorithm="eq")).summary()["bisection_budget_misses"] == 0
        for algo in ("refim", "general"):
            a = run(tiny_scenario(algorithm=algo, slots=15, warmup_slots=5)).summary()
            b = run(tiny_scenario(algorithm=algo, slots=15, warmup_slots=5)).summary()
            assert a["bisection_budget_misses"] == b["bisection_budget_misses"]
            assert 0 <= a["bisection_budget_misses"] <= 15 * a["base_stations"]

    def test_general_algorithm_runs(self):
        res = run(tiny_scenario(algorithm="general", sched_loops=2, power_loops=2,
                                slots=10, warmup_slots=2))
        assert res.constraint_violations == 0
        assert res.gat_bps > 0
        assert 1 <= res.bisection_iter_max <= res.bisection_iter_bound

    def test_initial_power_rules_run(self):
        for rule in ("uniform", "random", "previous"):
            res = run(tiny_scenario(initial_power_rule=rule, slots=10, warmup_slots=2))
            assert res.constraint_violations == 0

    def test_minimal_hetnet_runs(self):
        sc = Scenario(kind="hetnet", rings=0, femtos_per_macro=1,
                      macro_users_per_cell=1, femto_users_per_cell=1,
                      slots=5, warmup_slots=1)
        res = run(sc)
        assert res.constraint_violations == 0

    def test_only_refim_builds_candidate_tables(self, monkeypatch):
        def refuse(self, network):
            raise AssertionError("candidate tables built")

        monkeypatch.setattr(reference.CandidateTables, "__init__", refuse)
        for algo in ("eq", "wf", "general"):
            run(tiny_scenario(algorithm=algo, slots=6, warmup_slots=1))
        with pytest.raises(AssertionError, match="candidate tables built"):
            run(tiny_scenario(algorithm="refim", slots=6, warmup_slots=1))

    def test_mobile_users_run_and_differ_from_nomadic(self):
        still = run(tiny_scenario(user_speed_kmh=3.0))
        moving = run(tiny_scenario(mobile_users=True, user_speed_kmh=60.0))
        assert not np.array_equal(still.throughput_bps, moving.throughput_bps)


class TestSpectrumSplitting:
    def _hetnet(self, **over):
        base = Scenario(kind="hetnet", rings=0, femtos_per_macro=2,
                        macro_users_per_cell=4, femto_users_per_cell=2,
                        subchannels=8, slots=20, warmup_slots=5, seed=2)
        return dataclasses.replace(base, **over)

    def test_orthogonality_of_committed_powers(self):
        sc = self._hetnet(spectrum_policy="splitting", macro_subchannels=5)
        res = run(sc)
        net = build_network(sc)
        for n, bs in enumerate(net.base_stations):
            if bs.tier == topology.TIER_FEMTO:
                assert np.all(res.avg_power_w[n, :5] == 0.0)
            else:
                assert np.all(res.avg_power_w[n, 5:] == 0.0)
        assert res.constraint_violations == 0

    def test_full_macro_split_starves_femtos(self):
        sc = self._hetnet(spectrum_policy="splitting", macro_subchannels=8)
        with pytest.warns(UserWarning):
            res = run(sc)
        net = build_network(sc)
        femto_users = [u.id for u in net.users
                       if net.base_stations[u.serving_bs].tier == topology.TIER_FEMTO]
        assert np.all(res.throughput_bps[femto_users] == 0.0)
        assert res.gat_bps == 0.0


class TestConservationReplay:
    def test_accumulated_equals_replayed_service(self):
        sc = tiny_scenario(slots=25, warmup_slots=8)
        res = run(sc, record=True)

        chan = channel.Channel(sc, build_network(sc))
        gap, bw_sub = chan.sinr_gap, sc.bandwidth_hz / sc.subchannels
        accum = np.zeros(chan.noise.shape[0])
        for t, (powers, sched) in enumerate(zip(res.powers, res.schedules)):
            chan.advance()
            index = scheduling.scheduled_index(sched)
            served = scheduling.served_rates(chan.gains(), powers, index, chan.noise, gap, bw_sub)
            if t >= sc.warmup_slots:
                accum += served
        assert np.array_equal(accum, res.accumulated_rate_bps)


class TestRecord:
    def test_record_keeps_results_and_fills_arrays(self):
        sc = tiny_scenario(slots=12, warmup_slots=4)
        plain, rec = run(sc), run(sc, record=True)
        assert plain.powers is None and plain.published_users is None
        assert rec.summary() == plain.summary()
        assert np.array_equal(rec.accumulated_rate_bps, plain.accumulated_rate_bps)
        N, K = rec.network.n_bs, rec.network.n_users
        assert rec.powers.shape == rec.schedules.shape == (12, N, sc.subchannels)
        assert np.allclose(rec.powers[sc.warmup_slots:].mean(axis=0), rec.avg_power_w)
        # period-1 feedback: every user is published every slot, by its own BS
        cell_sizes = np.bincount(rec.serving_bs, minlength=N)
        assert (rec.published_users == cell_sizes).all() and cell_sizes.sum() == K


class TestSweep:
    def test_results_keyed_by_value(self):
        base = tiny_scenario(slots=12, warmup_slots=4)
        results = sweep(base, "ref_count", [0, 1])
        assert [v for v, _ in results] == [0, 1]
        assert all(r.constraint_violations == 0 for _, r in results)

    def test_same_seed_reproduces_across_sweep_order(self, monkeypatch):
        # long enough to fork a fading worker and post blocks to it
        monkeypatch.setattr(channel, "_cpu_count", lambda: 2)
        base = Scenario(kind="hetnet", rings=0, femtos_per_macro=10, macro_users_per_cell=20,
                        femto_users_per_cell=4, subchannels=16, seed=5, slots=12,
                        warmup_slots=0, algorithm="refim")
        forward = dict(sweep(base, "ref_count", [0, 2]))
        backward = dict(sweep(base, "ref_count", [2, 0]))
        for value in (0, 2):
            a, b = forward[value], backward[value]
            assert a.summary() == b.summary()
            for name, array in vars(a).items():
                if isinstance(array, np.ndarray):
                    assert np.array_equal(getattr(b, name), array), (value, name)
        assert forward[0].summary() != forward[2].summary()

    def test_ref_count_zero_equals_wf(self):
        # REFIM and the general step at caps (1, 1) with no references are
        # water-filling, bit for bit; the splitting hetnet puts femto rows and
        # NO_USER entries in every schedule
        base = Scenario(kind="hetnet", rings=0, femtos_per_macro=2, macro_users_per_cell=4,
                        femto_users_per_cell=2, subchannels=8, slots=15, warmup_slots=5,
                        seed=2, spectrum_policy="splitting", macro_subchannels=5)
        wf = run(dataclasses.replace(base, algorithm="wf"), record=True)
        assert (wf.schedules == scheduling.NO_USER).any()
        for sc in (scenario_for_axis(base, "ref_count", 0),
                   dataclasses.replace(base, algorithm="general", sched_loops=1, power_loops=1,
                                       ref_count=0)):
            got = run(sc, record=True)
            for name in ("powers", "schedules", "throughput_bps", "serve_counts",
                         "avg_power_w"):
                assert np.array_equal(getattr(got, name), getattr(wf, name)), name

    def test_axis_derivations(self):
        base = tiny_scenario()
        assert scenario_for_axis(base, "feedback_period", 50).feedback_period_slots == 50
        split = scenario_for_axis(base, "split_ratio", 3)
        assert split.spectrum_policy == "splitting" and split.macro_subchannels == 3
        caps = scenario_for_axis(base, "loop_caps", "2x3")
        assert caps.algorithm == "general"
        assert (caps.sched_loops, caps.power_loops) == (2, 3)
        pair = scenario_for_axis(base, "loop_caps", (4, 1))
        assert (pair.sched_loops, pair.power_loops) == (4, 1)
        for bad in (3, "3", "2x3x4", (1, 2, 3)):  # a ValueError, so the CLI reports it as config
            with pytest.raises(ValueError):
                scenario_for_axis(base, "loop_caps", bad)
        frac = scenario_for_axis(base, "deployment_fraction", 0.5)
        assert frac.deployment_fraction == 0.5
        assert scenario_for_axis(base, "femto_density", 4).femtos_per_macro == 4
        with pytest.raises(ValueError):
            scenario_for_axis(base, "carrier", [1])

    def test_partial_deployment_between_wf_and_full(self):
        base = tiny_scenario(slots=20, warmup_slots=5)
        half = run(scenario_for_axis(base, "deployment_fraction", 0.5))
        assert half.constraint_violations == 0
