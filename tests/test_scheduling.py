import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refimsim.oracle import enumerate_schedules, evaluate_objective, serving_of
from refimsim.power import taxation_from_feedback, taxation_term
from refimsim.scheduling import (
    NO_USER, UserStates, link_state, rate, schedule_at, schedule_users,
    scheduled_index, served_rates, sinr,
)
from refimsim.topology import pad_index_lists


def random_instance(seed, n_bs=2, n_sub=2, users_per_cell=3):
    rng = np.random.default_rng(seed)
    K = n_bs * users_per_cell
    cells = [list(range(n * users_per_cell, (n + 1) * users_per_cell)) for n in range(n_bs)]
    gains = rng.lognormal(mean=-1.0, sigma=1.0, size=(K, n_bs, n_sub))
    noise = rng.uniform(0.05, 0.3, size=(K, n_sub))
    weights = rng.uniform(0.2, 3.0, size=K)
    powers = rng.uniform(0.0, 1.0, size=(n_bs, n_sub))
    return cells, gains, noise, weights, powers


class TestSinr:
    def test_direct_arithmetic(self):
        gains = np.zeros((1, 2, 1))
        gains[0, 0, 0] = 2.0
        gains[0, 1, 0] = 0.5
        powers = np.array([[3.0], [2.0]])
        noise = np.array([[0.5]])
        assert sinr(gains, powers, 0, 0, 0, noise) == pytest.approx(6.0 / 1.5)

    def test_zero_power_zero_sinr(self):
        gains = np.ones((1, 1, 1))
        assert sinr(gains, np.zeros((1, 1)), 0, 0, 0, np.ones((1, 1))) == 0.0

    def test_single_bs_no_interference(self):
        gains = np.ones((1, 1, 1))
        assert sinr(gains, np.ones((1, 1)), 0, 0, 0, np.ones((1, 1))) == pytest.approx(1.0)

    def test_matrix_agrees_with_scalar(self):
        cells, gains, noise, weights, powers = random_instance(0)
        serving = np.array([0, 0, 0, 1, 1, 1])
        _, total, signal, intf = schedule_at(gains, powers, noise, serving,
                                             pad_index_lists(cells), weights)
        mat = signal / intf
        for k in range(6):
            for s in range(2):
                assert mat[k, s] == pytest.approx(sinr(gains, powers, k, serving[k], s, noise))
        assert np.array_equal(total, np.einsum("kms,ms->ks", gains, powers))


class TestLinkState:
    """link_state in the three index forms its callers use, against the
    scalar references sinr and taxation_term."""

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), n_bs=st.integers(1, 4), n_sub=st.integers(1, 4),
           upc=st.integers(1, 3), with_total=st.booleans())
    def test_forms_match_scalar_references(self, seed, n_bs, n_sub, upc, with_total):
        cells, gains, noise, weights, powers = random_instance(seed, n_bs, n_sub, upc)
        rng = np.random.default_rng([seed, 1])
        powers[rng.random(powers.shape) < 0.2] = 0.0
        K = gains.shape[0]
        serving = serving_of(cells, K)
        total = np.einsum("kms,ms->ks", gains, powers) if with_total else None

        # per user, toward its serving BS (schedule_at, CandidateTables.accumulate)
        signal, intf = link_state(gains, powers, noise, np.arange(K), serving, slice(None),
                                  total)
        assert signal.shape == intf.shape == (K, n_sub)
        for k in range(K):
            for s in range(n_sub):
                want = sinr(gains, powers, k, serving[k], s, noise)
                assert signal[k, s] / intf[k, s] == pytest.approx(want, rel=1e-12)

        # per scheduled user of each (bs, subchannel) (served_rates, measured_interference)
        sched = np.stack([rng.choice(ids, size=n_sub) for ids in cells])
        sched[rng.random(sched.shape) < 0.2] = NO_USER
        scheduled, user, bs, sub = scheduled_index(sched)
        signal, intf = link_state(gains, powers, noise, user, bs, sub, total)
        assert signal.shape == intf.shape == (n_bs, n_sub)
        for n in range(n_bs):
            for s in range(n_sub):
                if scheduled[n, s]:
                    want = sinr(gains, powers, sched[n, s], n, s, noise)
                    assert signal[n, s] / intf[n, s] == pytest.approx(want, rel=1e-12)

        # per reference, flat index arrays (the general algorithm's ground truth)
        refs = rng.integers(0, K, size=8)
        subs = rng.integers(0, n_sub, size=8)
        signal, intf = link_state(gains, powers, noise, refs, serving[refs], subs, total)
        for i, (k, s) in enumerate(zip(refs, subs)):
            for n in range(n_bs):
                if n == serving[k]:
                    continue
                got = taxation_from_feedback(weights[k], gains[k, n, s], signal[i], intf[i])
                want = taxation_term(weights[k], k, n, serving[k], gains, powers, noise, s)
                assert got == pytest.approx(want, rel=1e-12)


class TestRate:
    def test_log2_of_two(self):
        assert rate(1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_zero(self):
        assert rate(0.0) == 0.0

    def test_log2_of_four(self):
        assert rate(3.0, 1.0, 1.0) == pytest.approx(2.0)

    def test_monotone_in_gamma(self):
        g = np.linspace(0.0, 10.0, 50)
        r = rate(g, 1.0, 625e3)
        assert np.all(np.diff(r) >= 0)


def states_at(avg_bps, beta=1e-3, alpha=1.0):
    """UserStates whose EWMA throughputs are avg_bps."""
    st = UserStates(len(avg_bps), beta=beta, alpha=alpha)
    st.avg_throughput_bps = np.array(avg_bps, dtype=float)
    return st


class TestWeights:
    def test_reciprocal(self):
        assert UserStates(1, initial_throughput_bps=2.0).weights()[0] == pytest.approx(0.5)

    def test_alpha_one_is_log_case(self):
        r = np.array([0.5, 2.0, 7.0])
        assert np.allclose(states_at(r, alpha=1.0).weights(), 1.0 / r)

    def test_other_alpha_is_power_law(self):
        r = np.array([0.5, 2.0, 7.0])
        assert np.allclose(states_at(r, alpha=2.0).weights(), r ** -2.0)
        assert np.array_equal(states_at(r, alpha=0.0).weights(), np.ones(3))

    def test_equal_throughputs_equal_weights(self):
        w = UserStates(5, initial_throughput_bps=3.3).weights()
        assert np.all(w == w[0])

    def test_zero_throughput_rejected(self):
        with pytest.raises(ValueError):
            states_at([1.0, 0.0]).weights()


class TestScheduleUsers:
    def test_argmax(self):
        members = np.array([[0, 1]])
        weights = np.array([0.3, 0.7])
        rates = np.ones((2, 1))
        sched = schedule_users(members, weights, rates)
        assert sched[0, 0] == 1

    def test_single_user_cell(self):
        sched = schedule_users(np.array([[4]]), np.ones(5), np.ones((5, 3)))
        assert np.all(sched[0] == 4)

    def test_exact_tie_lowest_index(self):
        members = np.array([[2, 5]])
        weights = np.array([0, 0, 1.0, 0, 0, 1.0])
        rates = np.ones((6, 2))
        sched = schedule_users(members, weights, rates)
        assert np.all(sched[0] == 2)

    def test_scale_invariance(self):
        for seed in range(20):
            cells, gains, noise, weights, powers = random_instance(seed)
            serving = np.array([0, 0, 0, 1, 1, 1])
            a = schedule_at(gains, powers, noise, serving, pad_index_lists(cells), weights)[0]
            b = schedule_at(gains, powers, noise, serving, pad_index_lists(cells),
                            weights * 37.5)[0]
            assert np.array_equal(a, b)

    def test_allowed_mask(self):
        allowed = np.array([[True, False]])
        sched = schedule_users(np.array([[0]]), np.ones(1), np.ones((1, 2)), allowed=allowed)
        assert sched[0, 0] == 0 and sched[0, 1] == NO_USER


def looped_schedule_users(cells, weights, rate_ks, allowed=None):
    """Per-cell argmax loop the padded-member argmax replaced (reference)."""
    sched = np.full((len(cells), rate_ks.shape[1]), NO_USER, dtype=int)
    for n, ids in enumerate(cells):
        if not ids:
            continue
        ids = np.asarray(ids, dtype=int)
        row = ids[np.argmax(weights[ids, None] * rate_ks[ids, :], axis=0)]
        sched[n] = row if allowed is None else np.where(allowed[n], row, NO_USER)
    return sched


class TestPaddedArgmax:
    @settings(max_examples=200, deadline=None)
    @given(sizes=st.lists(st.integers(0, 4), min_size=1, max_size=5),
           n_sub=st.integers(1, 4), levels=st.none() | st.integers(1, 3),
           masked=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_equals_per_cell_loop(self, sizes, n_sub, levels, masked, seed):
        """Random cells, empty ones included; with `levels`, weights and
        rates take few distinct values, so scores tie often."""
        rng = np.random.default_rng(seed)
        K = sum(sizes)
        owner = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        cells = [np.flatnonzero(owner == n).tolist() for n in range(len(sizes))]
        if levels is None:
            weights, rates = rng.uniform(0.1, 3.0, size=K), rng.uniform(0.0, 5.0, (K, n_sub))
        else:
            weights = rng.integers(1, levels + 1, size=K).astype(float)
            rates = rng.integers(0, levels + 1, size=(K, n_sub)).astype(float)
        allowed = rng.random((len(sizes), n_sub)) < 0.6 if masked else None
        got = schedule_users(pad_index_lists(cells, width=1), weights, rates, allowed)
        assert np.array_equal(got, looped_schedule_users(cells, weights, rates, allowed))


class TestLemma1Decomposition:
    """Per-(bs, subchannel) argmax attains the exhaustive scheduling optimum
    for any fixed power matrix."""

    @pytest.mark.parametrize("seed", range(25))
    def test_argmax_equals_enumeration(self, seed):
        rng = np.random.default_rng(seed + 1000)
        n_bs = int(rng.integers(1, 3))
        n_sub = int(rng.integers(1, 3))
        upc = int(rng.integers(1, 4))
        cells, gains, noise, weights, powers = random_instance(seed, n_bs, n_sub, upc)
        serving = serving_of(cells, gains.shape[0])
        sched = schedule_at(gains, powers, noise, serving, pad_index_lists(cells), weights)[0]
        h_argmax = evaluate_objective(gains, noise, weights, powers, sched)
        h_best = max(evaluate_objective(gains, noise, weights, powers, sm)
                     for sm in enumerate_schedules(cells, n_sub))
        assert h_argmax == pytest.approx(h_best, rel=1e-12, abs=1e-12)


class TestThroughputTracking:
    def test_ewma_arithmetic(self):
        st = states_at([1.0], beta=0.5)
        st.update(np.array([3.0]))
        assert st.avg_throughput_bps[0] == pytest.approx(2.0)

    def test_beta_one_instantaneous(self):
        st = states_at([5.0], beta=1.0)
        st.update(np.array([3.0]))
        assert st.avg_throughput_bps[0] == pytest.approx(3.0)

    def test_geometric_decay_when_unserved(self):
        st = states_at([4.0], beta=0.001)
        for _ in range(10):
            st.update(np.zeros(1))
        assert st.avg_throughput_bps[0] == pytest.approx(4.0 * 0.999 ** 10)
        assert st.avg_throughput_bps[0] > 0

    def test_bad_beta_rejected(self):
        for beta in (0.0, 1.5, -0.1, float("nan")):
            with pytest.raises(ValueError):
                UserStates(1, beta=beta)

    def test_user_states_weights(self):
        st = UserStates(3, initial_throughput_bps=1e-3, beta=0.5)
        assert np.allclose(st.weights(), 1000.0)
        st.update(np.array([1.0, 2.0, 4.0]))
        assert np.allclose(st.avg_throughput_bps, [0.5005, 1.0005, 2.0005])


class TestServedRates:
    def test_matches_manual_sum(self):
        cells, gains, noise, weights, powers = random_instance(3)
        serving = np.array([0, 0, 0, 1, 1, 1])
        sched, _, signal, intf = schedule_at(gains, powers, noise, serving,
                                             pad_index_lists(cells), weights)
        rates = rate(signal / intf)
        served = served_rates(gains, powers, sched, noise)
        expected = np.zeros(6)
        for n in range(2):
            for s in range(2):
                k = sched[n, s]
                expected[k] += rates[k, s]
        assert np.allclose(served, expected)
