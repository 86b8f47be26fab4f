import itertools

import numpy as np
import pytest

from refimsim.oracle import (
    InstanceTooLarge, brute_force, combination_count, compare_to_oracle,
    enumerate_schedules, evaluate_objective, settle_algorithm,
)
from refimsim.scheduling import NO_USER


def hand_example():
    """2 BSs, 1 user each, S=1, direct gain 1, cross gain 0.5, noise 0.5."""
    gains = np.zeros((2, 2, 1))
    gains[0, 0, 0] = 1.0
    gains[0, 1, 0] = 0.5
    gains[1, 1, 0] = 1.0
    gains[1, 0, 0] = 0.5
    noise = np.full((2, 1), 0.5)
    cells = [[0], [1]]
    weights = np.ones(2)
    budgets = np.ones(2)
    masks = np.ones((2, 1))
    return gains, noise, cells, weights, budgets, masks


def random_toy(seed, n_bs=2, n_sub=2):
    rng = np.random.default_rng(seed)
    K = n_bs
    cells = [[n] for n in range(n_bs)]
    gains = np.zeros((K, n_bs, n_sub))
    for k in range(K):
        for m in range(n_bs):
            base = 1.0 if m == k else 0.3
            gains[k, m, :] = base * rng.lognormal(-0.3, 0.6, size=n_sub)
    noise = np.full((K, n_sub), float(rng.uniform(0.05, 0.3)))
    weights = np.ones(K)
    budgets = np.ones(n_bs)
    masks = np.ones((n_bs, n_sub))
    nbrs = [[m for m in range(n_bs) if m != n] for n in range(n_bs)]
    return gains, noise, cells, weights, budgets, masks, nbrs


def looped_objective(gains, noise_w, weights, powers, sched, subchannel_bw_hz=1.0,
                     sinr_gap=1.0):
    """Per-(bs, subchannel) loop that evaluate_objective replaced (reference)."""
    total = np.einsum("kms,ms->ks", gains, powers)
    h = 0.0
    for n in range(sched.shape[0]):
        for s in range(sched.shape[1]):
            k = sched[n, s]
            if k < 0:
                continue
            signal = gains[k, n, s] * powers[n, s]
            gamma = signal / (total[k, s] - signal + noise_w[k, s])
            h += weights[k] * subchannel_bw_hz * np.log2(1.0 + gamma / sinr_gap)
    return float(h)


class TestObjective:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_looped_objective(self, seed):
        rng = np.random.default_rng(seed)
        n_bs, n_sub, upc = 3, 4, 3
        K = n_bs * upc
        gains = rng.lognormal(-1.0, 1.0, size=(K, n_bs, n_sub))
        noise = rng.uniform(0.05, 0.3, size=(K, n_sub))
        weights = rng.uniform(0.2, 3.0, size=K)
        powers = rng.uniform(0.0, 1.0, size=(n_bs, n_sub))
        sched = np.stack([rng.choice(np.arange(n * upc, (n + 1) * upc), size=n_sub)
                          for n in range(n_bs)])
        sched[rng.random(sched.shape) < 0.25] = NO_USER
        bw, gap = float(rng.uniform(1e4, 1e6)), float(rng.uniform(1.0, 4.0))
        got = evaluate_objective(gains, noise, weights, powers, sched, bw, gap)
        want = looped_objective(gains, noise, weights, powers, sched, bw, gap)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestBruteForce:
    def test_hand_checked_optimum(self):
        gains, noise, cells, weights, budgets, masks = hand_example()
        res = brute_force(gains, noise, cells, weights, budgets, masks,
                          levels=2)
        # candidates: (1,1) -> 2*log2(1 + 1/(0.5+0.5)) = 2.0; (1,0) -> log2(3) = 1.585
        assert res.objective == pytest.approx(2.0)
        assert np.allclose(res.powers, [[1.0], [1.0]])
        assert res.schedule[0, 0] == 0 and res.schedule[1, 0] == 1

    def test_single_bs_matches_independent_grid_search(self):
        rng = np.random.default_rng(5)
        gains = rng.lognormal(0.0, 0.5, size=(1, 1, 2))
        noise = np.full((1, 2), 0.2)
        res = brute_force(gains, noise, [[0]], np.ones(1), np.ones(1), np.ones((1, 2)),
                          levels=9)
        # independent exhaustive search written out longhand
        levels = np.linspace(0.0, 1.0, 9)
        best = -np.inf
        for p0, p1 in itertools.product(levels, levels):
            if p0 + p1 > 1.0 + 1e-12:
                continue
            h = (np.log2(1 + gains[0, 0, 0] * p0 / noise[0, 0])
                 + np.log2(1 + gains[0, 0, 1] * p1 / noise[0, 1]))
            best = max(best, h)
        assert res.objective == pytest.approx(best, rel=1e-12)

    def test_zero_cross_gain_decomposes_per_bs(self):
        gains, noise, cells, weights, budgets, masks, _ = random_toy(7)
        gains[0, 1, :] = 1e-30
        gains[1, 0, :] = 1e-30
        joint = brute_force(gains, noise, cells, weights, budgets, masks,
                            levels=7)
        total = 0.0
        for n in (0, 1):
            solo = brute_force(gains[n:n + 1, n:n + 1, :], noise[n:n + 1],
                               [[0]], weights[n:n + 1], budgets[n:n + 1],
                               masks[n:n + 1], levels=7)
            total += solo.objective
        assert joint.objective == pytest.approx(total, rel=1e-6)

    @pytest.mark.parametrize("seed", range(5))
    def test_refining_grid_never_decreases_optimum(self, seed):
        gains, noise, cells, weights, budgets, masks, _ = random_toy(seed)
        hs = [brute_force(gains, noise, cells, weights, budgets, masks,
                          levels=L).objective for L in (5, 9, 17)]
        assert hs[0] <= hs[1] + 1e-12 <= hs[2] + 2e-12

    def test_deterministic(self):
        gains, noise, cells, weights, budgets, masks, _ = random_toy(3)
        a = brute_force(gains, noise, cells, weights, budgets, masks)
        b = brute_force(gains, noise, cells, weights, budgets, masks)
        assert a.objective == b.objective
        assert np.array_equal(a.powers, b.powers)
        assert np.array_equal(a.schedule, b.schedule)

    def test_emitted_powers_feasible(self):
        gains, noise, cells, weights, budgets, masks, _ = random_toy(11)
        res = brute_force(gains, noise, cells, weights, budgets, masks)
        assert np.all(res.powers.sum(axis=1) <= budgets * (1 + 1e-9))
        assert np.all(res.powers <= masks + 1e-12)


class TestSizeGuards:
    def test_combination_count(self):
        assert combination_count(2, 2, [[0], [1]], 9) == 9 ** 4
        assert combination_count(2, 1, [[0, 1], [2]], 2) == 2 ** 2 * 2 * 1

    def test_cap_refusal_with_size_report(self):
        gains = np.full((6, 3, 2), 0.1)
        noise = np.full((6, 2), 0.1)
        cells = [[0, 1], [2, 3], [4, 5]]
        with pytest.raises(InstanceTooLarge, match="combinations"):
            brute_force(gains, noise, cells, np.ones(6), np.ones(3), np.ones((3, 2)),
                        levels=17)

    def test_instance_limit_refusal(self):
        gains = np.full((4, 4, 1), 0.1)
        noise = np.full((4, 1), 0.1)
        with pytest.raises(InstanceTooLarge, match="limits"):
            brute_force(gains, noise, [[0], [1], [2], [3]], np.ones(4), np.ones(4),
                        np.ones((4, 1)))

    def test_too_few_levels_rejected(self):
        gains, noise, cells, weights, budgets, masks, _ = random_toy(0)
        with pytest.raises(ValueError, match="levels"):
            brute_force(gains, noise, cells, weights, budgets, masks, levels=1)

    def test_nonpositive_weights_rejected(self):
        gains, noise, cells, weights, budgets, masks, _ = random_toy(0)
        with pytest.raises(ValueError):
            brute_force(gains, noise, cells, np.zeros(2), budgets, masks)


class TestScheduleEnumeration:
    def test_counts(self):
        maps = list(enumerate_schedules([[0, 1], [2]], 2))
        assert len(maps) == 2 ** 2 * 1

    def test_lexicographic_order(self):
        maps = list(enumerate_schedules([[1, 0]], 1))
        assert maps[0][0, 0] == 0 and maps[1][0, 0] == 1


class TestAlgorithmVsOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_dominates_up_to_grid_resolution(self, seed):
        gains, noise, cells, weights, budgets, masks, nbrs = random_toy(seed)
        h9 = brute_force(gains, noise, cells, weights, budgets, masks,
                         levels=9).objective
        h17 = brute_force(gains, noise, cells, weights, budgets, masks,
                          levels=17).objective
        assert h17 >= h9 - 1e-12
        # snapping continuous powers to the grid moves each p_{n,s} by at most
        # half a step; |dh/dp| is bounded by the zero-interference slope
        step = masks.max() / 16.0
        slope = (weights[:, None, None] * gains / (noise[:, None, :] * np.log(2))).max(axis=0)
        eps_grid = 0.5 * step * slope.sum() + 1e-9
        for algo in ("eq", "wf", "refim"):
            h_algo, p, sched = settle_algorithm(algo, gains, noise, cells, weights,
                                                budgets, masks, nbrs)
            assert h17 >= h_algo - eps_grid

    def test_compare_scores_all_algorithms(self):
        gains, noise, cells, weights, budgets, masks, nbrs = random_toy(2)
        scores = compare_to_oracle(gains, noise, cells, weights, budgets, masks, nbrs)
        assert set(scores) == {"oracle", "eq", "wf", "refim"}
        assert scores["oracle"] > 0

    def test_single_bs_waterfilling_is_grid_optimal(self):
        # no interference: the settled WF allocation is the continuous optimum,
        # so the discrete oracle can only fall short of it by grid resolution
        rng = np.random.default_rng(9)
        gains = rng.lognormal(0.0, 0.5, size=(1, 1, 2))
        noise = np.full((1, 2), 0.1)
        cells, weights = [[0]], np.ones(1)
        budgets, masks = np.ones(1), np.ones((1, 2))
        h_wf, _, _ = settle_algorithm("wf", gains, noise, cells, weights, budgets,
                                      masks, [[]])
        h17 = brute_force(gains, noise, cells, weights, budgets, masks,
                          levels=17).objective
        assert h17 <= h_wf + 1e-9
        assert h17 >= h_wf * 0.995
