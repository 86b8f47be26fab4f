import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refimsim import power
from refimsim.oracle import evaluate_objective, serving_of
from refimsim.power import (
    BISECTION_ITER_BOUND, PowerMatrix, allocate, allocate_bisection_batch,
    general_algorithm, initial_power, kkt_power, measured_interference, scheduled_arrays,
    taxation_from_feedback, taxation_term,
)
from refimsim.reference import ReferenceSelection
from refimsim.scheduling import NO_USER, link_state, rate, schedule_at, schedule_users
from refimsim.topology import pad_index_lists


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


class TestKktPower:
    def test_interior_value(self):
        # lam*ln2 + t = 2 via tax alone
        assert kkt_power(1.0, 0.0, 2.0, 0.1, 1.0, 10.0) == pytest.approx(0.4)

    def test_upper_clamp(self):
        assert kkt_power(1.0, 0.0, 0.05, 0.1, 1.0, 10.0) == pytest.approx(10.0)

    def test_lower_clamp(self):
        assert kkt_power(1.0, 0.0, 2.0, 5.0, 1.0, 10.0) == 0.0

    def test_zero_denominator_hits_mask(self):
        assert kkt_power(1.0, 0.0, 0.0, 0.1, 1.0, 7.0) == pytest.approx(7.0)

    def test_monotone_nonincreasing_in_tax(self):
        taxes = np.linspace(0.0, 5.0, 40)
        p = kkt_power(1.0, 0.3, taxes, 0.1, 1.0, 10.0)
        assert np.all(np.diff(p) <= 1e-15)


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
        sums = [kkt_power(weights, l, taxes, intf, gains, masks).sum() for l in lams]
        assert np.all(np.diff(sums) <= 1e-12)

    def test_taxation_never_raises_power_at_fixed_lambda(self):
        weights, _, intf, gains, budget, masks = random_alloc_inputs(4)
        base = kkt_power(weights, 0.7, np.zeros_like(weights), intf, gains, masks)
        taxed = kkt_power(weights, 0.7, np.full_like(weights, 0.5), intf, gains, masks)
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


def reference_kkt(weight, lam, tax, intf_noise_w, own_gain, mask):
    """The KKT evaluation as written before the in-place kernel."""
    weight = np.asarray(weight, dtype=float)
    denom = lam * power.LN2 + np.asarray(tax, dtype=float)
    with np.errstate(divide="ignore"):
        level = np.where(denom > 0, weight / np.where(denom > 0, denom, 1.0), np.inf)
    p = level - np.asarray(intf_noise_w, dtype=float) / np.asarray(own_gain, dtype=float)
    return np.clip(p, 0.0, mask)


def reference_bisection(weights, taxes, intf_noise, own_gains, budgets, masks, noise_w):
    """The lockstep bisection as written before the lean loop: every row is
    evaluated every iteration and p is copied out at each hit."""
    N = weights.shape[0]

    def eval_p(lam):
        return reference_kkt(weights, lam[:, None], taxes, intf_noise, own_gains, masks)

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
    p, _, _ = allocate(gains, prev, sched, weights, noise, taxes, np.full(N, budget),
                       np.broadcast_to(masks, (N, S)))
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
        intf = measured_interference(gains, prev, sched, noise)
        k = sched[0, 0]
        expected = (gains[k, :, 0] @ prev[:, 0] - gains[k, 0, 0] * prev[0, 0]
                    + noise[k, 0])
        assert intf[0, 0] == pytest.approx(expected)

    def test_scheduled_arrays_gather(self):
        cells, gains, noise, weights, prev, sched, budget, masks = make_step_instance(2)
        w, g, sig = scheduled_arrays(gains, sched, weights, noise)
        k = sched[1, 2]
        assert w[1, 2] == weights[k]
        assert g[1, 2] == gains[k, 1, 2]
        assert sig[1, 2] == noise[k, 2]

    def test_unscheduled_slots_inert(self):
        gains = np.ones((1, 1, 2))
        sched = np.array([[0, NO_USER]])
        w, g, sig = scheduled_arrays(gains, sched, np.array([2.0]), np.ones((1, 2)))
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
            sched, p, _, _ = general_step(cells, gains, weights, noise, nbrs, budgets,
                                          masks, p0, sched_iters=i, power_iters=2)
            hs.append(evaluate_objective(gains, noise, weights, p, sched))
        assert all(hs[j + 1] >= hs[j] - 1e-9 for j in range(len(hs) - 1))

    @pytest.mark.parametrize("seed", range(8))
    def test_more_loops_never_hurt_from_uniform_start(self, seed):
        cells, gains, noise, weights, budgets, masks, nbrs = general_instance(seed)
        p0 = initial_power("uniform", budgets, masks)
        s1, p1, _, _ = general_step(cells, gains, weights, noise, nbrs, budgets,
                                    masks, p0, 1, 1)
        s3, p3, _, _ = general_step(cells, gains, weights, noise, nbrs, budgets,
                                    masks, p0, 3, 3)
        h1 = evaluate_objective(gains, noise, weights, p1, s1)
        h3 = evaluate_objective(gains, noise, weights, p3, s3)
        assert h3 >= h1 - 1e-9

    def test_degenerate_caps_equal_one_pass_pipeline(self):
        cells, gains, noise, weights, budgets, masks, nbrs = general_instance(2)
        p0 = initial_power("uniform", budgets, masks)
        sched_g, p_g, _, _ = general_step(cells, gains, weights, noise, nbrs, budgets,
                                          masks, p0, 1, 1)
        signal, intf = link_state(gains, p0, noise, np.arange(4), np.array([0, 0, 1, 1]),
                                  slice(None))
        sched = schedule_users(pad_index_lists(cells), weights, rate(signal / intf))
        assert np.array_equal(sched_g, sched)
        total = np.einsum("kms,ms->ks", gains, p0)
        taxes = power.ground_truth_taxes(sched, gains, weights, noise, pad_index_lists(nbrs),
                                         p0, total, 1)
        w, g, sig = scheduled_arrays(gains, sched, weights, noise)
        intf = measured_interference(gains, p0, sched, noise)
        p_manual, _, _ = allocate_bisection_batch(w, taxes, intf, g, budgets, masks,
                                                  noise_w=sig)
        assert np.allclose(p_g, p_manual, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_emitted_powers_feasible(self, seed):
        cells, gains, noise, weights, budgets, masks, nbrs = general_instance(seed, n_bs=2)
        p0 = initial_power("uniform", budgets, masks)
        _, p, _, _ = general_step(cells, gains, weights, noise, nbrs, budgets, masks,
                                  p0, 3, 3)
        assert PowerMatrix(p, budgets, masks).violations() == 0
