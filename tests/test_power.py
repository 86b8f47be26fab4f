import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refimsim import power
from refimsim.oracle import evaluate_objective, serving_of
from refimsim.power import (
    BISECTION_ITER_BOUND, PowerMatrix, allocate, allocate_bisection_batch,
    general_algorithm, initial_power, measured_interference, scheduled_arrays,
    taxation_from_feedback,
)
from refimsim.reference import ReferenceSelection
from refimsim.scheduling import (
    NO_USER, link_state, rate, schedule_at, schedule_users, scheduled_index,
)
from refimsim.topology import pad_index_lists
from scalar_oracles import kkt_power, taxation_term


def random_alloc_inputs(seed, n_sub=8):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 5.0, size=n_sub)
    taxes = rng.uniform(0.0, 2.0, size=n_sub) * rng.integers(0, 2, size=n_sub)
    intf = rng.uniform(0.05, 2.0, size=n_sub)
    gains = rng.lognormal(-0.5, 1.0, size=n_sub)
    budget = float(rng.uniform(0.5, 4.0))
    masks = np.full(n_sub, rng.uniform(0.3, 2.0))
    return weights, taxes, intf, gains, budget, masks


class TestEqualPower:
    """The equal split, initial_power("uniform", ...), on one BS."""

    @staticmethod
    def _split(budget, masks):
        return initial_power("uniform", [budget], [masks])[0]

    def test_even_split(self):
        assert np.allclose(self._split(2.0, np.full(4, np.inf)), 0.5)

    def test_mask_binds_without_redistribution(self):
        assert np.allclose(self._split(2.0, np.full(4, 0.3)), 0.3)

    def test_single_subchannel_full_budget(self):
        assert np.allclose(self._split(2.0, np.array([np.inf])), 2.0)

    def test_disallowed_subchannels_excluded(self):
        p = self._split(2.0, np.array([1.0, 0.0, 1.0, 0.0]))
        assert np.allclose(p, [1.0, 0.0, 1.0, 0.0])


class TestTaxation:
    def test_arithmetic_example(self):
        # victim: serving signal 1, other interference 0.2, noise 0.8
        t = taxation_from_feedback(weight=1.0, cross_gain=0.2, signal_w=1.0,
                                   intf_noise_w=1.0)
        assert t == pytest.approx(0.1)

    def test_linear_in_cross_gain(self):
        t1 = taxation_from_feedback(1.0, 0.2, 1.0, 1.0)
        t2 = taxation_from_feedback(1.0, 0.4, 1.0, 1.0)
        assert t2 == pytest.approx(2 * t1)

    def test_ground_truth_matches_feedback_fields(self):
        rng = np.random.default_rng(0)
        gains = rng.lognormal(-1, 1, size=(3, 2, 2))
        powers = rng.uniform(0.1, 1.0, size=(2, 2))
        noise = np.full((3, 2), 0.2)
        ref_user, serving, taxed, s = 2, 1, 0, 1
        t = taxation_term(1.7, ref_user, taxed, serving, gains, powers, noise, s)
        signal = gains[ref_user, serving, s] * powers[serving, s]
        intf = gains[ref_user, 0, s] * powers[0, s] + noise[ref_user, s]
        assert t == pytest.approx(taxation_from_feedback(1.7, gains[ref_user, taxed, s],
                                                         signal, intf))


def kkt(weight, lam, tax, intf_noise_w, own_gain, mask):
    """power._kkt, the bisection's KKT evaluation, on the arguments of the
    scalar oracle kkt_power. _kkt takes its output shape from lam*ln2 + tax,
    so every argument is broadcast and flattened first; scalars give a 0-d
    array."""
    args = [np.asarray(a, dtype=float) for a in (weight, tax, intf_noise_w, own_gain, mask)]
    shape = np.broadcast_shapes(*(a.shape for a in args))
    weight, tax, intf_noise_w, own_gain, mask = (np.broadcast_to(a, shape).ravel() for a in args)
    return power._kkt(lam, weight, tax, intf_noise_w / own_gain, mask).reshape(shape)


class TestKktPower:
    def test_interior_value(self):
        # lam*ln2 + t = 2 via tax alone
        assert kkt(1.0, 0.0, 2.0, 0.1, 1.0, 10.0) == pytest.approx(0.4)

    def test_upper_clamp(self):
        assert kkt(1.0, 0.0, 0.05, 0.1, 1.0, 10.0) == pytest.approx(10.0)

    def test_lower_clamp(self):
        assert kkt(1.0, 0.0, 2.0, 5.0, 1.0, 10.0) == 0.0

    def test_zero_denominator_hits_mask(self):
        assert kkt(1.0, 0.0, 0.0, 0.1, 1.0, 7.0) == pytest.approx(7.0)

    def test_monotone_nonincreasing_in_tax(self):
        taxes = np.linspace(0.0, 5.0, 40)
        p = kkt(1.0, 0.3, taxes, 0.1, 1.0, 10.0)
        assert np.all(np.diff(p) <= 1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_scalar_oracle_equals_kernel(self, seed):
        weights, taxes, intf, gains, _, masks = random_alloc_inputs(seed)
        for lam in (0.0, 0.05, 0.7, 3.0):
            assert np.array_equal(kkt_power(weights, lam, taxes, intf, gains, masks),
                                  kkt(weights, lam, taxes, intf, gains, masks))


def one_row(weights, taxes, intf_noise, own_gains, budget, masks):
    """allocate_bisection_batch on a single BS; returns (p (S,), lam, iters)."""
    p, lam, iters = allocate_bisection_batch(
        weights[None, :], taxes[None, :], intf_noise[None, :], own_gains[None, :],
        np.array([budget]), masks[None, :], intf_noise[None, :])
    return p[0], float(lam[0]), int(iters[0])


class TestBisection:
    def test_closed_form_waterfilling(self):
        # water level mu solves sum(mu - a_s) = budget: mu = 2, p = [1.5, 1.0]
        p, lam, iters = one_row(
            weights=np.array([1.0, 1.0]), taxes=np.zeros(2),
            intf_noise=np.array([0.5, 1.0]), own_gains=np.ones(2),
            budget=2.5, masks=np.full(2, np.inf))
        assert np.allclose(p, [1.5, 1.0], atol=1e-5)
        assert abs(p.sum() - 2.5) < power.BUDGET_RTOL * 2.5
        assert lam == pytest.approx(1.0 / (2.0 * np.log(2)), rel=1e-4)

    def test_symmetric_split(self):
        p, _, _ = one_row(np.ones(2), np.zeros(2), np.full(2, 0.4),
                          np.ones(2), 2.0, np.full(2, np.inf))
        assert np.allclose(p, [1.0, 1.0], atol=1e-5)

    def test_budget_exceeds_masks(self):
        p, lam, iters = one_row(np.ones(3), np.zeros(3), np.full(3, 0.1),
                                np.ones(3), 100.0, np.full(3, 0.5))
        assert np.allclose(p, 0.5)
        assert lam == 0.0 and iters == 0

    @pytest.mark.parametrize("seed", range(30))
    def test_feasible_and_bounded(self, seed):
        weights, taxes, intf, gains, budget, masks = random_alloc_inputs(seed)
        p, lam, iters = one_row(weights, taxes, intf, gains, budget, masks)
        assert PowerMatrix(p[None, :], np.array([budget]), masks[None, :]).violations() == 0
        assert iters <= BISECTION_ITER_BOUND
        # complementary slackness: positive multiplier only when budget is tight
        if lam > 0:
            assert p.sum() == pytest.approx(budget, rel=1e-3)

    @pytest.mark.parametrize("seed", range(10))
    def test_power_sum_nonincreasing_in_lambda(self, seed):
        weights, taxes, intf, gains, budget, masks = random_alloc_inputs(seed)
        lams = np.linspace(0.0, 5.0, 60)
        sums = [kkt(weights, l, taxes, intf, gains, masks).sum() for l in lams]
        assert np.all(np.diff(sums) <= 1e-12)

    def test_taxation_never_raises_power_at_fixed_lambda(self):
        weights, _, intf, gains, budget, masks = random_alloc_inputs(4)
        base = kkt(weights, 0.7, np.zeros_like(weights), intf, gains, masks)
        taxed = kkt(weights, 0.7, np.full_like(weights, 0.5), intf, gains, masks)
        assert np.all(taxed <= base + 1e-15)

    def test_batch_matches_single(self):
        rows = [random_alloc_inputs(s) for s in range(5)]
        W = np.stack([r[0] for r in rows]); T = np.stack([r[1] for r in rows])
        I = np.stack([r[2] for r in rows]); G = np.stack([r[3] for r in rows])
        B = np.array([r[4] for r in rows]); M = np.stack([r[5] for r in rows])
        P, lams, iters = allocate_bisection_batch(W, T, I, G, B, M, I)
        for i, (w, t, f, g, b, m) in enumerate(rows):
            p1, l1, it1 = one_row(w, t, f, g, b, m)
            assert np.allclose(P[i], p1, atol=1e-12)


def reference_bisection(weights, taxes, intf_noise, own_gains, budgets, masks, noise_w):
    """The lockstep bisection as written before the lean loop: every row is
    evaluated every iteration and p is copied out at each hit."""
    N = weights.shape[0]

    def eval_p(lam):
        return kkt_power(weights, lam[:, None], taxes, intf_noise, own_gains, masks)

    delta = power.BUDGET_RTOL * budgets
    p = eval_p(np.zeros(N))
    lam = np.zeros(N)
    iters = np.zeros(N, dtype=int)
    active = p.sum(axis=1) > budgets + delta
    if not active.any():
        return p, lam, iters
    with np.errstate(divide="ignore"):
        hi = np.max(weights * own_gains / (noise_w * power.LN2), axis=1)
    for _ in range(60):
        over = active & (eval_p(hi).sum(axis=1) > budgets)
        if not over.any():
            break
        hi = np.where(over, hi * 2.0, hi)
    else:
        raise RuntimeError("bracket")
    lo = np.zeros(N)
    for it in range(1, BISECTION_ITER_BOUND + 1):
        mid = 0.5 * (lo + hi)
        pm = eval_p(mid)
        sm = pm.sum(axis=1)
        hit = active & (np.abs(sm - budgets) < delta)
        p[hit] = pm[hit]
        lam[hit] = mid[hit]
        iters[hit] = it
        active &= ~hit
        if not active.any():
            return p, lam, iters
        go_up = active & (sm > budgets)
        lo = np.where(go_up, mid, lo)
        hi = np.where(active & ~go_up, mid, hi)
    pend = eval_p(hi)
    p[active] = pend[active]
    lam[active] = hi[active]
    iters[active] = BISECTION_ITER_BOUND
    return p, lam, iters


def random_batch(seed, n_bs, n_sub, inf_masks, slack, with_noise):
    """(N, S) bisection inputs: some zero taxes, some unscheduled (zero-mask,
    zero-weight) entries and whole rows, optionally infinite masks, a noise
    floor below the interference (else equal to it), or budgets no row can
    reach."""
    rng = np.random.default_rng(seed)
    shape = (n_bs, n_sub)
    weights = rng.uniform(0.01, 10.0, size=shape)
    taxes = rng.uniform(0.0, 3.0, size=shape) * (rng.uniform(size=shape) < 0.6)
    intf = rng.uniform(1e-3, 2.0, size=shape)
    gains = 10.0 ** rng.uniform(-2.0, 2.0, size=shape)
    masks = np.full(shape, np.inf) if inf_masks else rng.uniform(0.05, 5.0, size=shape)
    unscheduled = rng.uniform(size=shape) < 0.2
    unscheduled[rng.uniform(size=n_bs) < 0.2] = True
    weights[unscheduled] = 0.0
    masks[unscheduled] = 0.0
    budgets = rng.uniform(0.1, 20.0, size=n_bs)
    if slack:
        budgets = np.where(np.isinf(masks), 0.0, masks).sum(axis=1) * 2.0 + 1.0
        masks[np.isinf(masks)] = 1.0
    noise = intf * rng.uniform(0.1, 1.0, size=shape) if with_noise else intf
    return weights, taxes, intf, gains, budgets, masks, noise


def assert_matches_reference(*args):
    """allocate_bisection_batch(*args), checked bit for bit against the oracle."""
    got = allocate_bisection_batch(*args)
    for g, w in zip(got, reference_bisection(*args)):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
    return got


def spine_rows(n_bs):
    """(N, 8) inputs with interior water levels along every row's spine: no
    masks and some zero taxes, so every row searches, and the largest w g /
    noise of each row sits on an untaxed subchannel."""
    weights = np.outer(1 + 0.3 * np.arange(n_bs), [1.0, 2.0, 3.0, 0.5, 1.5, 2.5, 0.8, 1.2])
    taxes = np.tile([0.0, 0.1, 0.0, 0.2, 0.0, 0.05, 0.3, 0.0], (n_bs, 1))
    intf = np.tile(0.01 * (1 + np.arange(8) / 8), (n_bs, 1))
    return weights, taxes, intf, np.ones_like(weights), np.full_like(weights, np.inf)


def first_bracket(weights, gains, noise):
    """The first upper bracket, computed as allocate_bisection_batch does."""
    return np.max(weights * gains / (noise * power.LN2), axis=1)


def row_sum(weights, taxes, intf, gains, masks, lam):
    """Per-row power sum of the KKT formula at lam (N,)."""
    return kkt_power(weights, lam[:, None], taxes, intf, gains, masks).sum(axis=1)


def count_kernel_passes(monkeypatch):
    """Record the output shape of every in-place KKT kernel pass."""
    passes = []
    kernel = power._kkt_into

    def counted(out, *args):
        passes.append(out.shape)
        return kernel(out, *args)

    monkeypatch.setattr(power, "_kkt_into", counted)
    return passes


class TestLeanBisection:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1), n_bs=st.integers(1, 7),
           n_sub=st.sampled_from([1, 2, 3, 7, 8, 9, 16, 17, 40]),
           inf_masks=st.booleans(), slack=st.booleans(), with_noise=st.booleans())
    def test_bit_identical_to_reference(self, seed, n_bs, n_sub, inf_masks, slack,
                                        with_noise):
        args = random_batch(seed, n_bs, n_sub, inf_masks, slack, with_noise)
        try:
            want = reference_bisection(*args)
        except RuntimeError:
            with pytest.raises(RuntimeError):
                allocate_bisection_batch(*args)
            return
        got = allocate_bisection_batch(*args)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    def test_bracket_doubling_and_all_slack_batch(self):
        # bracket doubling: a noise floor 1e6 times the interference puts the
        # first upper bracket, max_s w g/(noise ln2), below lambda* on every
        # searching row, so each row's lambda ends above it
        weights, taxes, intf, gains, budgets, masks, _ = random_batch(4, 4, 16, False,
                                                                      False, False)
        noise = intf * 1e6
        with np.errstate(divide="ignore"):
            first_hi = np.max(weights * gains / (noise * power.LN2), axis=1)
        p, lam, iters = allocate_bisection_batch(weights, taxes, intf, gains, budgets,
                                                 masks, noise)
        searched = iters > 0
        assert searched.sum() >= 2 and np.all(lam[searched] > first_hi[searched])
        assert np.array_equal(lam, reference_bisection(weights, taxes, intf, gains, budgets,
                                                       masks, noise)[1])
        # all rows slack: nothing is searched, lambda stays 0
        p, lam, iters = allocate_bisection_batch(*random_batch(3, 4, 16, False, True, False))
        assert not lam.any() and not iters.any()

    @pytest.mark.parametrize("k", [1, 2, 5, 6, 13, 14, 29, BISECTION_ITER_BOUND])
    def test_budget_met_exactly_at_spine_point(self, k):
        # row 0's budget is its own power sum at the k-th spine midpoint
        # hi*2^-k; row 1 searches on for a budget it meets near the bound
        weights, taxes, intf, gains, masks = spine_rows(2)
        hi = first_bracket(weights, gains, intf)
        budgets = np.array([row_sum(weights, taxes, intf, gains, masks, hi * 2.0 ** -k)[0],
                            row_sum(weights, taxes, intf, gains, masks, hi * 2.0 ** -27)[1]
                            * (1 + 1e-3)])
        p, lam, iters = assert_matches_reference(weights, taxes, intf, gains, budgets, masks,
                                                 intf)
        assert iters[0] == k and lam[0] == hi[0] * 2.0 ** -k

    def test_spine_never_steps_up_empty_loop(self, monkeypatch):
        # every budget lies above the sum at the last spine point hi*2^-30:
        # the spine pass skips every halving, and the kernel runs only for
        # lam = 0, the bracket check, the spine and the final p
        weights, taxes, intf, gains, masks = spine_rows(3)
        hi = first_bracket(weights, gains, intf)
        budgets = row_sum(weights, taxes, intf, gains, masks,
                          hi * 2.0 ** -BISECTION_ITER_BOUND) * 10.0
        passes = count_kernel_passes(monkeypatch)
        p, lam, iters = assert_matches_reference(weights, taxes, intf, gains, budgets, masks,
                                                 intf)
        assert len(passes) == 4
        assert np.all(iters == BISECTION_ITER_BOUND)
        assert np.array_equal(lam, hi * 2.0 ** -BISECTION_ITER_BOUND)

    def test_step_up_at_first_halving_skips_nothing(self, monkeypatch):
        # row 1's sum at hi/2 overshoots its budget, so no halving is skipped
        # and the loop makes all BISECTION_ITER_BOUND passes
        weights, taxes, intf, gains, masks = spine_rows(2)
        hi = first_bracket(weights, gains, intf)
        budgets = row_sum(weights, taxes, intf, gains, masks, hi / 2.0) * np.array([4.0, 0.5])
        passes = count_kernel_passes(monkeypatch)
        assert_matches_reference(weights, taxes, intf, gains, budgets, masks, intf)
        assert len(passes) == 4 + BISECTION_ITER_BOUND

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 8, 9, 10])
    def test_single_row(self, seed):
        # seeds whose one row searches
        args = random_batch(seed, 1, 16, seed % 2 == 0, False, seed % 3 == 0)
        _, _, iters = assert_matches_reference(*args)
        assert iters[0] > 0

    def test_rows_bisect_on_after_their_hit(self):
        # rows 0-2 meet their budgets at halvings 3, 8 and 15, then keep
        # bisecting in lockstep with row 3, which meets its budget nowhere
        weights, taxes, intf, gains, masks = spine_rows(4)
        hi = first_bracket(weights, gains, intf)
        ks = np.array([3, 8, 15, 40])
        budgets = row_sum(weights, taxes, intf, gains, masks, hi * 2.0 ** -ks)
        budgets[3] *= 0.999
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p, lam, iters = assert_matches_reference(weights, taxes, intf, gains, budgets,
                                                     masks, intf)
        assert list(iters) == [3, 8, 15, BISECTION_ITER_BOUND]

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), n_bs=st.integers(1, 7),
           n_sub=st.sampled_from([1, 2, 3, 7, 8, 9, 16, 17, 40]), inf_masks=st.booleans(),
           lams=st.lists(st.floats(1e-9, 1e9), min_size=2, max_size=40))
    def test_row_sum_never_rises_with_lambda(self, seed, n_bs, n_sub, inf_masks, lams):
        # the fact the spine pass relies on: the kernel's computed row sum,
        # one (N, S) evaluation per lambda as the loop makes it, never rises
        # along a sorted grid, and one (N, G, S) evaluation of the whole grid
        # gives the same sums bit for bit; zero weights and zero taxes included
        weights, taxes, intf, gains, _, masks, _ = random_batch(seed, n_bs, n_sub, inf_masks,
                                                                False, False)
        grid = np.sort(np.array(lams))
        floor = intf / gains
        sums = np.stack([np.add.reduce(power._kkt_into(lam * power.LN2 + taxes, weights,
                                                       floor, masks), axis=1)
                         for lam in grid], axis=1)
        assert np.all(np.diff(sums, axis=1) <= 0)
        den = (grid * power.LN2)[None, :, None] + taxes[:, None]
        batched = np.add.reduce(power._kkt_into(den, weights[:, None], floor[:, None],
                                                masks[:, None]), axis=2)
        assert np.array_equal(batched, sums)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(seed=st.integers(0, 2**32 - 1), n_bs=st.integers(1, 7),
           n_sub=st.sampled_from([1, 2, 3, 7, 8, 9, 16, 17, 40]),
           inf_masks=st.booleans(), slack=st.booleans(), with_noise=st.booleans())
    def test_output_invariants(self, seed, n_bs, n_sub, inf_masks, slack, with_noise):
        weights, taxes, intf, gains, budgets, masks, noise = random_batch(
            seed, n_bs, n_sub, inf_masks, slack, with_noise)
        try:
            p, lam, iters = allocate_bisection_batch(weights, taxes, intf, gains, budgets,
                                                     masks, noise)
        except RuntimeError:
            return
        assert np.array_equal(p, kkt_power(weights, lam[:, None], taxes, intf, gains,
                                               masks))
        assert np.all(p.sum(axis=1) <= budgets + power.BUDGET_RTOL * budgets)
        assert np.array_equal(lam == 0, iters == 0)
        assert np.all(iters <= BISECTION_ITER_BOUND)

    @pytest.mark.parametrize("bad", [-1e-12, -1.0])
    def test_negative_taxes_rejected(self, bad):
        weights, taxes, intf, gains, budgets, masks, _ = random_batch(0, 3, 4, False,
                                                                      False, False)
        taxes[1, 2] = bad
        with pytest.raises(ValueError):
            allocate_bisection_batch(weights, taxes, intf, gains, budgets, masks, intf)

    def test_budget_misses_counts_only_positive_lambda_off_budget(self):
        budgets = np.array([1.0, 2.0, 4.0])
        p = np.array([[0.5, 0.5], [0.9, 0.9], [1.0, 1.0]])
        lam = np.array([0.3, 0.2, 0.0])
        # row 0 meets its budget, row 1 misses it with lambda > 0, row 2 is slack
        assert power.budget_misses(p, lam, budgets) == 1


class TestInitialPower:
    def test_uniform(self):
        p = initial_power("uniform", np.array([2.0]), np.full((1, 4), np.inf))
        assert np.allclose(p, 0.5)

    def test_random_sums_to_budget(self):
        rng = np.random.default_rng(0)
        budgets = np.array([2.0, 5.0])
        p = initial_power("random", budgets, np.full((2, 4), np.inf), rng=rng)
        assert np.allclose(p.sum(axis=1), budgets, rtol=1e-12)
        assert np.all(p >= 0)

    def test_previous_identity(self):
        prev = np.array([[0.3, 0.7]])
        p = initial_power("previous", np.array([1.0]), np.ones((1, 2)), prev=prev)
        assert np.array_equal(p, prev)

    def test_previous_slot0_falls_back_to_uniform(self):
        p = initial_power("previous", np.array([1.0]), np.ones((1, 2)), prev=None)
        assert np.allclose(p, 0.5)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            initial_power("warm", np.array([1.0]), np.ones((1, 2)))


def make_step_instance(seed, n_bs=2, n_sub=4, upc=2):
    rng = np.random.default_rng(seed)
    K = n_bs * upc
    cells = [list(range(n * upc, (n + 1) * upc)) for n in range(n_bs)]
    gains = rng.lognormal(-1.0, 1.0, size=(K, n_bs, n_sub))
    noise = np.full((K, n_sub), 0.1)
    weights = rng.uniform(0.3, 3.0, size=K)
    prev = rng.uniform(0.05, 0.5, size=(n_bs, n_sub))
    sched = np.stack([rng.choice(ids, size=n_sub) for ids in cells])
    budget = 1.5
    masks = np.full(n_sub, 1.5)
    return cells, gains, noise, weights, prev, sched, budget, masks


def step_powers(sched, taxes, prev, gains, weights, noise, budget, masks):
    """Every BS's power step at one shared budget and (S,) mask."""
    N, S = sched.shape
    p, _, _ = allocate(gains, prev, scheduled_index(sched), weights, noise, taxes,
                       np.full(N, budget), np.broadcast_to(masks, (N, S)))
    return p


class TestRefimStep:
    @pytest.mark.parametrize("seed", range(10))
    def test_no_references_reduces_to_waterfilling(self, seed):
        cells, gains, noise, weights, prev, sched, budget, masks = make_step_instance(seed)
        empty = ReferenceSelection(
            ref_bs=np.full((2, 4, 1), -1), ref_user=np.full((2, 4, 1), NO_USER),
            f0=np.zeros((2, 4, 1)), f1=np.zeros((2, 4, 1)),
            f2=np.ones((2, 4, 1)), f3=np.ones((2, 4, 1)))
        p_ref = step_powers(sched, empty.taxes(), prev, gains, weights, noise, budget, masks)[0]
        p_wf = step_powers(sched, np.zeros((2, 4)), prev, gains, weights, noise, budget,
                           masks)[0]
        assert np.array_equal(p_ref, p_wf)

    def test_disabled_bs_ignores_references(self, ):
        cells, gains, noise, weights, prev, sched, budget, masks = make_step_instance(3)
        refs = ReferenceSelection(
            ref_bs=np.ones((2, 4, 1), dtype=int), ref_user=np.full((2, 4, 1), 3),
            f0=np.full((2, 4, 1), 0.8), f1=np.ones((2, 4, 1)),
            f2=np.ones((2, 4, 1)), f3=np.ones((2, 4, 1)))
        taxes_off = refs.taxes()
        taxes_off[~np.array([False, True])] = 0.0  # BS 0 disabled, as in engine.run
        p_off = step_powers(sched, taxes_off, prev, gains, weights, noise, budget, masks)[0]
        p_wf = step_powers(sched, np.zeros((2, 4)), prev, gains, weights, noise, budget,
                           masks)[0]
        assert np.array_equal(p_off, p_wf)
        p_on = step_powers(sched, refs.taxes(), prev, gains, weights, noise, budget, masks)[0]
        assert not np.array_equal(p_on, p_wf)

    def test_isolated_flat_channel_equal_split(self):
        n_sub = 4
        gains = np.full((1, 1, n_sub), 0.8)
        noise = np.full((1, n_sub), 0.1)
        sched = np.zeros((1, n_sub), dtype=int)
        prev = np.full((1, n_sub), 0.25)
        p = step_powers(sched, np.zeros((1, n_sub)), prev, gains, np.array([1.0]), noise, 2.0,
                        np.full(n_sub, 2.0))[0]
        assert np.allclose(p, 0.5, atol=1e-5)


class TestMeasuredArrays:
    def test_interference_excludes_own_signal(self):
        cells, gains, noise, weights, prev, sched, budget, masks = make_step_instance(1)
        intf = measured_interference(gains, prev, scheduled_index(sched), noise)
        k = sched[0, 0]
        expected = (gains[k, :, 0] @ prev[:, 0] - gains[k, 0, 0] * prev[0, 0]
                    + noise[k, 0])
        assert intf[0, 0] == pytest.approx(expected)

    def test_scheduled_arrays_gather(self):
        cells, gains, noise, weights, prev, sched, budget, masks = make_step_instance(2)
        w, g, sig = scheduled_arrays(gains, scheduled_index(sched), weights, noise)
        k = sched[1, 2]
        assert w[1, 2] == weights[k]
        assert g[1, 2] == gains[k, 1, 2]
        assert sig[1, 2] == noise[k, 2]

    def test_unscheduled_slots_inert(self):
        gains = np.ones((1, 1, 2))
        sched = np.array([[0, NO_USER]])
        w, g, sig = scheduled_arrays(gains, scheduled_index(sched), np.array([2.0]),
                                     np.ones((1, 2)))
        assert w[0, 1] == 0.0 and g[0, 1] == 1.0


def general_instance(seed, n_bs=2, n_sub=2, upc=2):
    rng = np.random.default_rng(seed)
    K = n_bs * upc
    cells = [list(range(n * upc, (n + 1) * upc)) for n in range(n_bs)]
    gains = np.zeros((K, n_bs, n_sub))
    for n, ids in enumerate(cells):
        for k in ids:
            for m in range(n_bs):
                base = 1.0 if m == n else 0.25
                gains[k, m, :] = base * rng.lognormal(-0.5, 0.7, size=n_sub)
    noise = np.full((K, n_sub), 0.1)
    weights = rng.uniform(0.5, 2.0, size=K)
    budgets = np.full(n_bs, 1.0)
    masks = np.ones((n_bs, n_sub))
    nbrs = [[m for m in range(n_bs) if m != n] for n in range(n_bs)]
    return cells, gains, noise, weights, budgets, masks, nbrs


def general_step(cells, gains, weights, noise, nbrs, budgets, masks, p0, sched_iters=1,
                 power_iters=1, ref_count=1):
    """general_algorithm with the general algorithm's ground-truth tax source."""
    nbr = pad_index_lists(nbrs)

    def taxes(sched, p, total, *_):
        return power.ground_truth_taxes(sched, gains, weights, noise, nbr, p, total, ref_count)

    return general_algorithm(pad_index_lists(cells), serving_of(cells, gains.shape[0]), gains,
                             weights, noise, taxes, budgets, masks, p0, sched_iters, power_iters)


def looped_ground_truth_taxes(sched, gains, weights, noise, neighbor_sets, powers,
                              ref_count):
    """N x S x neighbor ground-truth taxation loop the batch kernel replaced."""
    N, S = sched.shape
    taxes = np.zeros((N, S))
    if ref_count == 0:
        return taxes
    for n in range(N):
        for s in range(S):
            cands = []
            for m in neighbor_sets[n]:
                k = sched[m, s]
                if k == NO_USER:
                    continue
                cands.append((gains[k, n, s], m, k))
            cands.sort(key=lambda c: -c[0])
            for cross, m, k in cands[:ref_count]:
                taxes[n, s] += taxation_term(weights[k], k, n, m, gains, powers, noise, s)
    return taxes


class TestGroundTruthReferences:
    """ground_truth_taxes against the loop it replaced."""

    def _instance(self, seed, ties):
        from refimsim.engine import Scenario, build_network, power_limits
        # macros and femtos split the spectrum, so every BS has NO_USER entries
        sc = Scenario(kind="hetnet", rings=1, femtos_per_macro=2, macro_users_per_cell=3,
                      femto_users_per_cell=2, subchannels=6, seed=seed,
                      spectrum_policy="splitting", macro_subchannels=3)
        net = build_network(sc)
        rng = np.random.default_rng(seed)
        K, N, S = net.n_users, net.n_bs, sc.subchannels
        if ties:  # three gain levels: many candidates tie on cross gain
            gains = rng.integers(1, 4, size=(K, N, S)) / 3.0
        else:
            gains = rng.lognormal(-2.0, 1.0, size=(K, N, S))
        noise = np.full((K, S), 0.05)
        weights = rng.uniform(0.2, 2.0, size=K)
        powers = rng.uniform(0.1, 1.0, size=(N, S))
        cells = net.cells()
        sched = schedule_at(gains, powers, noise, net.serving, net.member_index, weights,
                            allowed=power_limits(net, sc)[2])[0]
        assert np.all((sched == NO_USER).any(axis=1))
        return cells, sched, gains, weights, noise, net.neighbor_sets, powers

    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_loop(self, seed, ties):
        cells, sched, gains, weights, noise, nbrs, powers = self._instance(seed, ties)
        nbr = pad_index_lists(nbrs)
        total = np.einsum("kms,ms->ks", gains, powers)
        for ref_count in range(4):
            got = power.ground_truth_taxes(sched, gains, weights, noise, nbr, powers, total,
                                           ref_count)
            want = looped_ground_truth_taxes(sched, gains, weights, noise, nbrs, powers,
                                             ref_count)
            assert got.shape == want.shape
            assert np.array_equal(got == 0.0, want == 0.0)
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)


class TestGeneralAlgorithm:
    def test_caps_validated(self):
        cells, gains, noise, weights, budgets, masks, nbrs = general_instance(0)
        with pytest.raises(ValueError):
            general_step(cells, gains, weights, noise, nbrs, budgets, masks,
                         np.full((2, 2), 0.5), sched_iters=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_objective_nondecreasing_across_outer_iterations(self, seed):
        cells, gains, noise, weights, budgets, masks, nbrs = general_instance(seed)
        p0 = initial_power("uniform", budgets, masks)
        hs = []
        for i in (1, 2, 3, 4):
            sched, _, p, _, _ = general_step(cells, gains, weights, noise, nbrs, budgets,
                                          masks, p0, sched_iters=i, power_iters=2)
            hs.append(evaluate_objective(gains, noise, weights, p, sched))
        assert all(hs[j + 1] >= hs[j] - 1e-9 for j in range(len(hs) - 1))

    @pytest.mark.parametrize("seed", range(8))
    def test_more_loops_never_hurt_from_uniform_start(self, seed):
        cells, gains, noise, weights, budgets, masks, nbrs = general_instance(seed)
        p0 = initial_power("uniform", budgets, masks)
        s1, _, p1, _, _ = general_step(cells, gains, weights, noise, nbrs, budgets,
                                    masks, p0, 1, 1)
        s3, _, p3, _, _ = general_step(cells, gains, weights, noise, nbrs, budgets,
                                    masks, p0, 3, 3)
        h1 = evaluate_objective(gains, noise, weights, p1, s1)
        h3 = evaluate_objective(gains, noise, weights, p3, s3)
        assert h3 >= h1 - 1e-9

    def test_degenerate_caps_equal_one_pass_pipeline(self):
        cells, gains, noise, weights, budgets, masks, nbrs = general_instance(2)
        p0 = initial_power("uniform", budgets, masks)
        sched_g, _, p_g, _, _ = general_step(cells, gains, weights, noise, nbrs, budgets,
                                          masks, p0, 1, 1)
        signal, intf = link_state(gains, p0, noise, np.arange(4), np.array([0, 0, 1, 1]),
                                  slice(None))
        sched = schedule_users(pad_index_lists(cells), weights, rate(signal / intf))
        assert np.array_equal(sched_g, sched)
        total = np.einsum("kms,ms->ks", gains, p0)
        taxes = power.ground_truth_taxes(sched, gains, weights, noise, pad_index_lists(nbrs),
                                         p0, total, 1)
        w, g, sig = scheduled_arrays(gains, scheduled_index(sched), weights, noise)
        intf = measured_interference(gains, p0, scheduled_index(sched), noise)
        p_manual, _, _ = allocate_bisection_batch(w, taxes, intf, g, budgets, masks,
                                                  noise_w=sig)
        assert np.allclose(p_g, p_manual, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_emitted_powers_feasible(self, seed):
        cells, gains, noise, weights, budgets, masks, nbrs = general_instance(seed, n_bs=2)
        p0 = initial_power("uniform", budgets, masks)
        _, _, p, _, _ = general_step(cells, gains, weights, noise, nbrs, budgets, masks,
                                  p0, 3, 3)
        assert PowerMatrix(p, budgets, masks).violations() == 0
