import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refimsim.engine import Scenario, build_network
from refimsim.presets import get_preset
from refimsim.reference import (
    CandidateTables, ReferenceSelection, exchange_scheduled_indices,
    protocol_rows, rank_references, refresh_candidate_tables, representative_users,
    select_references, viewer_index,
)
from refimsim.scheduling import NO_USER, link_state
from refimsim.topology import (
    TIER_FEMTO, BaseStation, Network, User, classify_edge_users, pad_index_lists,
)
from scalar_oracles import taxation_term


def protocol_network(n_sub=2):
    """Two macros plus one femto; femto users 6,7 live in home 0."""
    stations = [
        BaseStation(id=0, tier="macro", position=(0.0, 0.0), max_power_w=20.0, mask_w=20.0),
        BaseStation(id=1, tier="macro", position=(1000.0, 0.0), max_power_w=20.0, mask_w=20.0),
        BaseStation(id=2, tier="femto", position=(500.0, 300.0), max_power_w=0.03,
                    mask_w=0.03, home_id=0),
    ]
    users = [User(id=k, position=(100.0 * k, 0.0), serving_bs=0) for k in range(3)]
    users += [User(id=k, position=(900.0 + 10 * k, 0.0), serving_bs=1) for k in range(3, 6)]
    users += [User(id=k, position=(500.0, 295.0 + k), serving_bs=2, indoor=True, home_id=0)
              for k in range(6, 8)]
    return Network(base_stations=stations, users=users,
                   neighbor_sets=[[1, 2], [0, 2], [0, 1]],
                   subchannel_count=n_sub, bandwidth_hz=10e6)


def random_slot(net, seed):
    rng = np.random.default_rng(seed)
    K, N, S = net.n_users, net.n_bs, net.subchannel_count
    gains = rng.lognormal(-2.0, 1.0, size=(K, N, S))
    powers = rng.uniform(0.1, 1.0, size=(N, S))
    noise = np.full((K, S), 0.05)
    weights = rng.uniform(0.2, 2.0, size=K)
    serving = np.array([u.serving_bs for u in net.users])
    return gains, powers, noise, weights, serving


def viewers_of(network):
    """Each BS's viewers, the BSs that list it as a neighbor, ascending."""
    return [[n for n, nbrs in enumerate(network.neighbor_sets) if m in nbrs]
            for m in range(network.n_bs)]


def viewer_table(network, full):
    """F0 table of a full (K, N, S) array: for each user in turn, one row
    per viewer of its cell, in viewer order."""
    viewers = viewers_of(network)
    rows = [full[k, viewers[u.serving_bs]] for k, u in enumerate(network.users)]
    return np.concatenate(rows).reshape(-1, full.shape[2])


def accumulate(tables, gains, powers, noise, weights, serving):
    """Feed one slot to the tables with the serving-link state the engine
    computes for them."""
    signal, intf_noise = link_state(gains, powers, noise, np.arange(gains.shape[0]),
                                    serving, slice(None))
    tables.accumulate(gains, weights, signal, intf_noise)


class TestExchange:
    def test_macros_see_exact_indices(self):
        net = protocol_network()
        sched = np.array([[0, 1], [4, 3], [7, 6]])
        views = exchange_scheduled_indices(sched, representative_users(net), Scenario())
        assert np.array_equal(views.macro_view[0], sched[0])
        assert np.array_equal(views.macro_view[1], sched[1])

    def test_femto_target_replaced_by_representative(self):
        net = protocol_network()
        assert representative_users(net)[2] == 6
        sched = np.array([[0, 1], [4, 3], [7, 7]])  # femto really schedules 7
        views = exchange_scheduled_indices(sched, representative_users(net), Scenario())
        assert np.all(views.macro_view[2] == 6)
        assert np.all(views.femto_view[2] == 6)

    def test_overhearing_flag_hides_macros_from_femtos(self):
        net = protocol_network()
        sched = np.array([[0, 1], [4, 3], [6, 7]])
        rep = representative_users(net)
        views_on = exchange_scheduled_indices(sched, rep, Scenario(femto_overhear=True))
        assert np.array_equal(views_on.femto_view[0], sched[0])
        views_off = exchange_scheduled_indices(sched, rep, Scenario(femto_overhear=False))
        assert np.all(views_off.femto_view[0] == NO_USER)
        assert np.all(views_off.femto_view[1] == NO_USER)

    def test_no_overhear_yields_no_references_for_femto(self):
        # femto with only macro neighbors falls back to selfish water-filling
        net = protocol_network()
        gains, powers, noise, weights, serving = random_slot(net, 0)
        tables = CandidateTables(net)
        accumulate(tables, gains, powers, noise, weights, serving)
        refresh_candidate_tables(net, tables, 0, Scenario())
        net2 = Network(base_stations=net.base_stations, users=net.users,
                       neighbor_sets=[[1, 2], [0, 2], [0, 1]],
                       subchannel_count=2, bandwidth_hz=10e6)
        sched = np.array([[0, 1], [4, 3], [6, 7]])
        cfg = Scenario(femto_overhear=False)
        views = exchange_scheduled_indices(sched, representative_users(net2), cfg)
        sel = select_one(net2, 2, views, tables, count=1)
        assert not sel.valid().any()
        assert np.all(sel.taxes()[2] == 0.0)


def select_one(network, bs, views, tables, count):
    """Reference selection with only `bs` enabled; the other rows stay empty."""
    return select_references(views, tables, count,
                             enabled=np.arange(network.n_bs) == bs)


class TestCandidateTables:
    def test_fresh_tables_match_ground_truth_taxation(self):
        # T=1: table-based taxation equals taxation from current gains/powers
        net = protocol_network()
        gains, powers, noise, weights, serving = random_slot(net, 1)
        tables = CandidateTables(net)
        accumulate(tables, gains, powers, noise, weights, serving)
        refresh_candidate_tables(net, tables, 0, Scenario(feedback_period_slots=1))
        sched = np.array([[0, 1], [4, 3], [6, 7]])
        views = exchange_scheduled_indices(sched, representative_users(net), Scenario())
        sel = select_references(views, tables, count=1)
        taxes = sel.taxes()
        for n in range(3):
            for s in range(2):
                m = int(sel.ref_bs[n, s, 0])
                k = int(sel.ref_user[n, s, 0])
                expected = taxation_term(weights[k], k, n, m, gains, powers, noise, s)
                assert taxes[n, s] == pytest.approx(expected, rel=1e-12)

    def test_time_average_is_arithmetic_mean(self):
        net = protocol_network()
        cfg = Scenario(feedback_period_slots=3)
        tables = CandidateTables(net)
        slabs = []
        for t in range(3):
            gains, powers, noise, weights, serving = random_slot(net, 10 + t)
            accumulate(tables, gains, powers, noise, weights, serving)
            slabs.append(gains)
        refresh_candidate_tables(net, tables, 3, cfg)
        mean, viewers = np.mean(slabs, axis=0), viewers_of(net)
        for k, u in enumerate(net.users):
            assert np.allclose(tables.pub_f0[tables.f0_user == k], mean[k, viewers[u.serving_bs]])

    def test_staleness_bounded_by_period(self):
        net = protocol_network()
        cfg = Scenario(feedback_period_slots=5)
        tables = CandidateTables(net)
        for t in range(23):
            gains, powers, noise, weights, serving = random_slot(net, t)
            accumulate(tables, gains, powers, noise, weights, serving)
            refresh_candidate_tables(net, tables, t, cfg)
            if t >= 5:
                stale = (t - tables.last_update)[tables.pub_valid]
                assert stale.max() <= cfg.feedback_period_slots

    def test_between_refreshes_values_stay_stale(self):
        net = protocol_network()
        cfg = Scenario(feedback_period_slots=10)
        tables = CandidateTables(net)
        gains, powers, noise, weights, serving = random_slot(net, 2)
        accumulate(tables, gains, powers, noise, weights, serving)
        refresh_candidate_tables(net, tables, 0, cfg)
        frozen = tables.pub_f0.copy()
        for t in range(1, 10):
            g2, p2, n2, w2, sv = random_slot(net, 100 + t)
            accumulate(tables, g2, p2, n2, w2, sv)
            refresh_candidate_tables(net, tables, t, cfg)
            assert np.array_equal(tables.pub_f0, frozen)

    def test_edge_only_filters_macro_users(self):
        net = protocol_network()
        gains, powers, noise, weights, serving = random_slot(net, 3)
        # craft mean gains: user 0 is deep-center, user 1 is edge
        mean_gains = np.full((net.n_users, net.n_bs), 1e-12)
        for u in net.users:
            mean_gains[u.id, u.serving_bs] = 1e-6
        mean_gains[1, 1] = 0.9e-6  # within 6 dB of serving -> edge
        tables = CandidateTables(net)
        accumulate(tables, gains, powers, noise, weights, serving)
        cfg = Scenario(edge_only_feedback=True, edge_threshold_db=6.0)
        refresh_candidate_tables(net, tables, 0, cfg, mean_gains=mean_gains)
        assert not tables.pub_valid[0]
        assert tables.pub_valid[1]
        # femto cells publish everyone regardless
        assert tables.pub_valid[6] and tables.pub_valid[7]

    def test_edge_only_with_infinite_threshold_matches_full(self):
        net = protocol_network()
        gains, powers, noise, weights, serving = random_slot(net, 4)
        mean_gains = gains.mean(axis=2)
        t_full = CandidateTables(net)
        accumulate(t_full, gains, powers, noise, weights, serving)
        refresh_candidate_tables(net, t_full, 0, Scenario(edge_only_feedback=False))
        t_edge = CandidateTables(net)
        accumulate(t_edge, gains, powers, noise, weights, serving)
        refresh_candidate_tables(net, t_edge, 0,
                                 Scenario(edge_only_feedback=True, edge_threshold_db=1e9),
                                 mean_gains=mean_gains)
        assert np.array_equal(t_full.pub_valid, t_edge.pub_valid)
        assert np.array_equal(t_full.pub_f0, t_edge.pub_f0)

    def test_disabled_bs_publishes_nothing(self):
        net = protocol_network()
        gains, powers, noise, weights, serving = random_slot(net, 5)
        tables = CandidateTables(net)
        accumulate(tables, gains, powers, noise, weights, serving)
        refresh_candidate_tables(net, tables, 0, Scenario(),
                                 enabled=np.array([False, True, True]))
        assert not tables.pub_valid[[0, 1, 2]].any()
        assert tables.pub_valid[[3, 4, 5, 6, 7]].all()

    def test_record_view(self):
        net = protocol_network()
        gains, powers, noise, weights, serving = random_slot(net, 6)
        tables = CandidateTables(net)
        accumulate(tables, gains, powers, noise, weights, serving)
        refresh_candidate_tables(net, tables, 0, Scenario())
        assert tables.pub_valid[3] and tables.last_update[3] == 0
        assert tables.pub_f1[3] == pytest.approx(weights[3])
        assert tables.pub_f2[3].shape == (2,)
        assert np.all(tables.pub_f2[3] > 0) and np.all(tables.pub_f3[3] > 0)


class TestSelection:
    def _tables_with_cross_gains(self, net, cross):
        """Publish records where user k's gain toward BS 0 is cross[k]."""
        gains = np.full((net.n_users, net.n_bs, net.subchannel_count), 1e-9)
        for k, g in cross.items():
            gains[k, 0, :] = g
        powers = np.full((net.n_bs, net.subchannel_count), 0.5)
        noise = np.full((net.n_users, net.subchannel_count), 0.05)
        weights = np.ones(net.n_users)
        serving = np.array([u.serving_bs for u in net.users])
        tables = CandidateTables(net)
        accumulate(tables, gains, powers, noise, weights, serving)
        refresh_candidate_tables(net, tables, 0, Scenario())
        return tables

    def test_argmax_across_neighbors(self):
        net = protocol_network()
        tables = self._tables_with_cross_gains(net, {4: 0.5, 6: 0.9})
        sched = np.array([[0, 0], [4, 4], [6, 6]])
        views = exchange_scheduled_indices(sched, representative_users(net), Scenario())
        sel = select_one(net, 0, views, tables, count=1)
        assert np.all(sel.ref_bs[0, :, 0] == 2)
        assert np.all(sel.ref_user[0, :, 0] == 6)

    def test_count_zero_selects_nothing(self):
        net = protocol_network()
        tables = self._tables_with_cross_gains(net, {4: 0.5, 6: 0.9})
        sched = np.array([[0, 0], [4, 4], [6, 6]])
        views = exchange_scheduled_indices(sched, representative_users(net), Scenario())
        sel = select_one(net, 0, views, tables, count=0)
        assert not sel.valid().any()
        assert np.all(sel.taxes()[0] == 0.0)

    def test_multi_reference_sums_taxations(self):
        net = protocol_network()
        tables = self._tables_with_cross_gains(net, {4: 0.5, 6: 0.9})
        sched = np.array([[0, 0], [4, 4], [6, 6]])
        views = exchange_scheduled_indices(sched, representative_users(net), Scenario())
        one = select_one(net, 0, views, tables, count=1)
        both = select_one(net, 0, views, tables, count=2)
        assert both.valid()[0].sum() == 4  # two refs on each of two subchannels
        per_ref = []
        for m in range(2):
            v = both.valid()[0, 0, m]
            assert v
        assert both.taxes()[0, 0] > one.taxes()[0, 0]

    def test_six_references_on_hex_center_cell(self):
        from refimsim.power import taxation_from_feedback
        from refimsim.topology import build_hex_grid, place_users
        net = place_users(build_hex_grid(1, 1000.0, subchannels=2), {"macro": 1},
                          rng_seed=0)
        rng = np.random.default_rng(4)
        gains = rng.lognormal(-2.0, 1.0, size=(7, 7, 2))
        powers = np.full((7, 2), 0.5)
        noise = np.full((7, 2), 0.05)
        weights = np.ones(7)
        serving = np.array([u.serving_bs for u in net.users])
        tables = CandidateTables(net)
        accumulate(tables, gains, powers, noise, weights, serving)
        refresh_candidate_tables(net, tables, 0, Scenario())
        sched = np.tile(np.arange(7)[:, None], (1, 2))  # one user per cell
        views = exchange_scheduled_indices(sched, representative_users(net), Scenario())
        sel = select_one(net, 0, views, tables, count=6)
        assert sel.valid()[0].sum() == 6 * 2  # all six neighbors, both subchannels
        for s in range(2):
            expected = sum(
                taxation_from_feedback(tables.pub_f1[k], gains[k, 0, s],
                                       tables.pub_f2[k, s], tables.pub_f3[k, s])
                for k in net.neighbor_sets[0])
            assert sel.taxes()[0, s] == pytest.approx(expected, rel=1e-12)

    def test_unpublished_candidates_skipped(self):
        net = protocol_network()
        tables = self._tables_with_cross_gains(net, {4: 0.5, 6: 0.9})
        tables.pub_valid[[6, 7]] = False  # femto record vanishes
        sched = np.array([[0, 0], [4, 4], [6, 6]])
        views = exchange_scheduled_indices(sched, representative_users(net), Scenario())
        sel = select_one(net, 0, views, tables, count=1)
        assert np.all(sel.ref_bs[0, :, 0] == 1)  # falls back to the other macro

    def test_reference_always_in_neighbor_set(self):
        net = protocol_network()
        for seed in range(10):
            gains, powers, noise, weights, serving = random_slot(net, seed)
            tables = CandidateTables(net)
            accumulate(tables, gains, powers, noise, weights, serving)
            refresh_candidate_tables(net, tables, 0, Scenario())
            sched = np.array([[0, 1], [4, 5], [6, 7]])
            views = exchange_scheduled_indices(sched, representative_users(net), Scenario())
            sel = select_references(views, tables, count=1)
            for n in range(net.n_bs):
                for s in range(net.subchannel_count):
                    if sel.ref_bs[n, s, 0] >= 0:
                        assert sel.ref_bs[n, s, 0] in net.neighbor_sets[n]


def looped_select_references(network, views, tables, full_f0, count, enabled=None):
    """Per-BS reference selection loop the batch kernel replaced (reference),
    reading F0 from the full (K, N, S) `full_f0`."""
    N, S = network.n_bs, network.subchannel_count
    M = max(count, 1)
    out = {"ref_bs": np.full((N, S, M), -1), "ref_user": np.full((N, S, M), NO_USER),
           "f0": np.zeros((N, S, M)), "f1": np.zeros((N, S, M)),
           "f2": np.ones((N, S, M)), "f3": np.ones((N, S, M))}
    for n in range(N):
        nbrs = network.neighbor_sets[n]
        if count == 0 or not nbrs or (enabled is not None and not enabled[n]):
            continue
        femto = network.base_stations[n].tier == TIER_FEMTO
        cand = (views.femto_view if femto else views.macro_view)[nbrs, :]
        present = cand != NO_USER
        ksafe = np.where(present, cand, 0)
        valid = present & tables.pub_valid[ksafe]
        cross = full_f0[ksafe, n, np.arange(S)[None, :]]
        cross = np.where(valid, cross, -np.inf)
        top = np.argsort(-cross, axis=0, kind="stable")[:count]
        scols = np.arange(S)[None, :]
        chosen_valid = np.take_along_axis(valid, top, axis=0)
        nbr_ids = np.asarray(nbrs)[top]
        users = ksafe[top, scols]
        for m in range(top.shape[0]):
            ok = chosen_valid[m]
            u, sc = users[m, ok], scols[0, ok]
            out["ref_bs"][n, ok, m] = nbr_ids[m, ok]
            out["ref_user"][n, ok, m] = u
            out["f0"][n, ok, m] = full_f0[u, n, sc]
            out["f1"][n, ok, m] = tables.pub_f1[u]
            out["f2"][n, ok, m] = tables.pub_f2[u, sc]
            out["f3"][n, ok, m] = tables.pub_f3[u, sc]
    return out


def random_tables(net, rng, tie_levels=None):
    """(tables, full_f0): published tables with random records, F0 drawn as
    a full (K, N, S) array and kept toward viewers only; with tie_levels,
    cross gains take only that many distinct values, so rankings tie often."""
    K, N, S = net.n_users, net.n_bs, net.subchannel_count
    tables = CandidateTables(net)
    if tie_levels is None:
        full_f0 = rng.lognormal(-2.0, 1.0, size=(K, N, S))
    else:
        full_f0 = rng.integers(1, tie_levels + 1, size=(K, N, S)) / tie_levels
    tables.pub_f0 = viewer_table(net, full_f0)
    tables.pub_f1 = rng.uniform(0.2, 2.0, size=K)
    tables.pub_f2 = rng.uniform(0.1, 1.0, size=(K, S))
    tables.pub_f3 = rng.uniform(0.1, 1.0, size=(K, S))
    tables.pub_valid = rng.random(K) < 0.8
    return tables, full_f0


def random_schedule(net, rng, idle_frac=0.2):
    """(N, S) random cell member per (bs, subchannel); some idle (NO_USER)."""
    cells = net.cells()
    sched = np.array([rng.choice(ids, size=net.subchannel_count) for ids in cells])
    return np.where(rng.random(sched.shape) < idle_frac, NO_USER, sched)


class TestBatchSelection:
    """select_references against the per-BS loop it replaced, field by field."""

    FIELDS = ("ref_bs", "ref_user", "f0", "f1", "f2", "f3")

    def _check(self, net, fb, seed, tie_levels=None):
        rng = np.random.default_rng(seed)
        tables, full_f0 = random_tables(net, rng, tie_levels)
        sched = random_schedule(net, rng)
        views = exchange_scheduled_indices(sched, representative_users(net), fb)
        for enabled in (None, rng.random(net.n_bs) < 0.7):
            for count in range(4):
                got = select_references(views, tables, count, enabled=enabled)
                want = looped_select_references(net, views, tables, full_f0, count, enabled)
                for name in self.FIELDS:
                    assert np.array_equal(getattr(got, name), want[name]), (name, count)

    @pytest.mark.parametrize("seed", range(3))
    def test_hex19_matches_loop(self, seed):
        net = build_network(get_preset("hex19"))
        self._check(net, Scenario(), seed)

    @pytest.mark.parametrize("seed", range(2))
    def test_hetnet10_without_overhearing_matches_loop(self, seed):
        net = build_network(get_preset("hetnet10"))
        self._check(net, Scenario(femto_overhear=False), seed)

    @pytest.mark.parametrize("net_name", ["hex19", "hetnet10"])
    def test_tied_cross_gains_keep_neighbor_order(self, net_name):
        net = build_network(get_preset(net_name))
        self._check(net, Scenario(femto_overhear=False), 7, tie_levels=2)

    def test_bs_without_neighbors(self):
        base = protocol_network(n_sub=3)
        net = asymmetric_network()
        for seed in range(4):
            self._check(net, Scenario(), seed, tie_levels=3)
        lonely = Network(base_stations=base.base_stations, users=base.users,
                         neighbor_sets=[[], [], []], subchannel_count=3,
                         bandwidth_hz=10e6)
        self._check(lonely, Scenario(), 0)



def argsort_ranking(nbr, cand, cross, count):
    """The ranking as a stable argsort of the negated key over all neighbors
    (reference): (n, s, m) of every kept entry in C order and its neighbor
    position b."""
    valid = (cand != NO_USER) & (nbr >= 0)[:, :, None]
    key = np.where(valid, cross, -np.inf)
    order = np.argsort(-key, axis=1, kind="stable")[:, :count]   # (N, M, S)
    n, s, m = np.nonzero(np.take_along_axis(valid, order, axis=1).transpose(0, 2, 1))
    return (n, s, m), order[n, m, s]


@st.composite
def ranking_inputs(draw):
    """Padded neighbor ids, candidates and cross gains of N viewers with B
    neighbor slots on S subchannels. Gains come from a few levels, so ties
    are common; -1 padding and NO_USER candidates are mixed in."""
    N, B, S = draw(st.integers(0, 4)), draw(st.integers(0, 5)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    nbr = rng.integers(0, max(N, 1), size=(N, B))
    nbr[rng.random((N, B)) < draw(st.sampled_from([0.0, 0.3]))] = -1
    cand = rng.integers(0, 50, size=(N, B, S))
    cand[rng.random((N, B, S)) < draw(st.sampled_from([0.0, 0.3, 0.8]))] = NO_USER
    levels = draw(st.sampled_from([1, 2, 3, 1000]))
    cross = rng.integers(0, levels, size=(N, B, S)) / levels
    return nbr, cand, cross, draw(st.integers(0, 3))


class TestRanking:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(ranking_inputs())
    def test_equals_stable_argsort(self, inputs):
        nbr, cand, cross, count = inputs
        present = (cand != NO_USER) & (nbr >= 0)[:, :, None]
        sel, idx, users = rank_references(nbr, cand, cross, count, present)
        want_idx, b = argsort_ranking(nbr, cand, cross, count)
        n, s, m = want_idx
        for got, want in zip(idx, want_idx):
            assert np.array_equal(got, want)
        assert np.array_equal(users, cand[n, b, s])
        N, _, S = cand.shape
        ref_bs = np.full((N, S, max(count, 1)), -1)
        ref_bs[n, s, m] = nbr[n, b]
        f0 = np.zeros((N, S, max(count, 1)))
        f0[n, s, m] = cross[n, b, s]
        assert np.array_equal(sel.ref_bs, ref_bs) and np.array_equal(sel.f0, f0)
        # no (viewer, subchannel) lists one neighbor position twice
        assert len(set(zip(n, s, b))) == n.size


def full_table_select(views, tables, full_f0, count, enabled=None):
    """The batch selection as it ranked a full (K, N, S) F0 table, before F0
    was kept toward viewers only (reference)."""
    nbr = tables.nbr
    cand = views.macro_view[nbr]
    cand[tables.femto] = views.femto_view[nbr[tables.femto]]
    usable = tables.pub_valid[cand]
    if enabled is not None:
        usable &= np.asarray(enabled, dtype=bool)[:, None, None]
    cand = np.where(usable, cand, NO_USER)
    N, _, S = cand.shape
    M = max(count, 1)
    valid = (cand != NO_USER) & (nbr >= 0)[:, :, None]
    ksafe = np.where(valid, cand, 0)
    cross = full_f0[ksafe, np.arange(N)[:, None, None], np.arange(S)]
    (n, s, m), b = argsort_ranking(nbr, cand, cross, count)
    users = ksafe[n, b, s]
    sel = ReferenceSelection(
        ref_bs=np.full((N, S, M), -1, dtype=int), ref_user=np.full((N, S, M), NO_USER, dtype=int),
        f0=np.zeros((N, S, M)), f1=np.zeros((N, S, M)),
        f2=np.ones((N, S, M)), f3=np.ones((N, S, M)))
    sel.ref_bs[n, s, m] = nbr[n, b]
    sel.ref_user[n, s, m] = users
    sel.f0[n, s, m] = cross[n, b, s]
    sel.f1[n, s, m] = tables.pub_f1[users]
    sel.f2[n, s, m] = tables.pub_f2[users, s]
    sel.f3[n, s, m] = tables.pub_f3[users, s]
    return sel


def asymmetric_network():
    """The protocol network with one-way neighbor sets: BS 0 lists nobody."""
    base = protocol_network(n_sub=3)
    return Network(base_stations=base.base_stations, users=base.users,
                   neighbor_sets=[[], [0, 2], [1]], subchannel_count=3, bandwidth_hz=10e6)


VIEWER_NETWORKS = {"hex19": lambda: build_network(get_preset("hex19")),
                   "hetnet10": lambda: build_network(get_preset("hetnet10")),
                   "asymmetric": asymmetric_network}


class TestViewerTables:
    """F0 kept toward viewers only ranks exactly as the full table did."""

    @pytest.mark.parametrize("overhear", [True, False])
    @pytest.mark.parametrize("net_name", sorted(VIEWER_NETWORKS))
    def test_selection_equals_full_table_ranking(self, net_name, overhear):
        net = VIEWER_NETWORKS[net_name]()
        fb = Scenario(femto_overhear=overhear)
        for seed, tie_levels in ((0, None), (1, None), (2, 2)):
            rng = np.random.default_rng(seed)
            tables, full_f0 = random_tables(net, rng, tie_levels)
            views = exchange_scheduled_indices(random_schedule(net, rng),
                                               representative_users(net), fb)
            for enabled in (None, rng.random(net.n_bs) < 0.7):
                for count in range(4):
                    got = select_references(views, tables, count, enabled=enabled)
                    want = full_table_select(views, tables, full_f0, count, enabled)
                    for name in TestBatchSelection.FIELDS:
                        assert np.array_equal(getattr(got, name), getattr(want, name)), \
                            (name, seed, count)

    def test_accumulate_keeps_gains_toward_viewers(self):
        net = asymmetric_network()
        tables = CandidateTables(net)
        gains, powers, noise, weights, serving = random_slot(net, 8)
        accumulate(tables, gains, powers, noise, weights, serving)
        assert np.array_equal(tables.acc_f0, viewer_table(net, gains))

    @settings(max_examples=100, deadline=None)
    @given(sets=st.integers(1, 6).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, n - 1), unique=True), min_size=n, max_size=n)))
    def test_reverse_position_finds_the_viewer(self, sets):
        sets = [sorted(m for m in nbrs if m != n) for n, nbrs in enumerate(sets)]
        nbr = pad_index_lists(sets)
        viewers, pos = viewer_index(nbr)
        want = [[n for n, nbrs in enumerate(sets) if m in nbrs] for m in range(len(sets))]
        assert viewers.shape == (len(sets), max(map(len, want)))
        for m, v in enumerate(want):
            assert viewers[m, :len(v)].tolist() == v and np.all(viewers[m, len(v):] == -1)
        for n, nbrs in enumerate(sets):
            for j, m in enumerate(nbrs):
                assert viewers[m, pos[n, j]] == n

    def test_viewers_equal_neighbors_on_presets(self):
        for name in ("hex19", "two-cell", "hetnet5", "hetnet10", "mixed-density", "toy2"):
            nbr = build_network(get_preset(name)).neighbor_index
            assert np.array_equal(viewer_index(nbr)[0], nbr), name

    def test_hetnet10_tables_hold_at_most_2_mib(self):
        tables = CandidateTables(build_network(get_preset("hetnet10")))
        nbytes = sum(v.nbytes for v in vars(tables).values() if isinstance(v, np.ndarray))
        assert nbytes <= 2 * 2**20


def published_users(tables, slot):
    """(N,) users each BS published at `slot`, as engine.run records them."""
    return np.bincount(tables.serving[tables.last_update == slot], minlength=tables.femto.size)


class TestProtocolDeterminism:
    def test_identical_runs_identical_traces(self):
        net = protocol_network()
        def run_once():
            tables = CandidateTables(net)
            published = []
            cfg = Scenario(feedback_period_slots=2)
            for t in range(6):
                gains, powers, noise, weights, serving = random_slot(net, t)
                accumulate(tables, gains, powers, noise, weights, serving)
                refresh_candidate_tables(net, tables, t, cfg)
                published.append(published_users(tables, t))
            return list(protocol_rows(net, published)), tables.pub_f0.copy()
        t1, f1 = run_once()
        t2, f2 = run_once()
        assert t1 == t2
        assert np.array_equal(f1, f2)

    def test_trace_byte_count_matches_table_ii_form(self):
        # per receiver: published users x 4 items x S subchannels x 4 bytes
        net = protocol_network()
        gains, powers, noise, weights, serving = random_slot(net, 0)
        tables = CandidateTables(net)
        accumulate(tables, gains, powers, noise, weights, serving)
        refresh_candidate_tables(net, tables, 0, Scenario())
        trace = list(protocol_rows(net, [published_users(tables, 0)]))
        from_bs0 = [row for row in trace if row[1] == 0 and row[3] == "table_refresh"]
        assert len(from_bs0) == 2  # two neighbors
        assert from_bs0[0][4] == 3 * 4 * net.subchannel_count * 4

    def test_index_exchange_only_between_macros(self):
        net = protocol_network()
        rows = list(protocol_rows(net, np.zeros((5, net.n_bs), dtype=int)))
        nbytes = 2 * net.subchannel_count
        assert rows == [(t, n, m, "index_exchange", nbytes)
                        for t in range(5) for n, m in ((0, 1), (1, 0))]

    def test_rows_equal_slot_by_slot_rule(self):
        # every slot: each publishing BS's table to each neighbor, then the
        # index exchange between macro neighbors, as Table II counts them
        net = build_network(get_preset("hetnet5"))
        published = np.random.default_rng(3).integers(0, 3, size=(7, net.n_bs))
        S, macro = net.subchannel_count, [b.tier != TIER_FEMTO for b in net.base_stations]
        want = []
        for t, counts in enumerate(published):
            want += [(t, n, m, "table_refresh", int(c) * S * 4 * 4)
                     for n, c in enumerate(counts) if c for m in net.neighbor_sets[n]]
            want += [(t, n, m, "index_exchange", 2 * S) for n in range(net.n_bs) if macro[n]
                     for m in net.neighbor_sets[n] if macro[m]]
        assert list(protocol_rows(net, published)) == want


def looped_refresh(network, tables, slot, config, mean_gains=None, enabled=None):
    """Per-cell publish loop the masked refresh replaced (reference)."""
    def publish(ids):
        ids = np.asarray(ids, dtype=int)
        if ids.size == 0:
            return
        cnt = np.maximum(tables.acc_count[ids], 1).astype(float)
        rows = np.isin(tables.f0_user, ids)   # F0 rows of these users
        row_cnt = np.maximum(tables.acc_count[tables.f0_user[rows]], 1).astype(float)
        tables.pub_f0[rows] = tables.acc_f0[rows] / row_cnt[:, None]
        tables.pub_f1[ids] = tables.acc_f1[ids] / cnt
        tables.pub_f2[ids] = tables.acc_f2[ids] / cnt[:, None]
        tables.pub_f3[ids] = tables.acc_f3[ids] / cnt[:, None]
        tables.pub_valid[ids] = True
        tables.last_update[ids] = slot

    def withdraw(ids):
        tables.pub_valid[np.asarray(ids, dtype=int)] = False

    def reset_window(ids):
        ids = np.asarray(ids, dtype=int)
        tables.acc_f0[np.isin(tables.f0_user, ids)] = 0
        for acc in (tables.acc_f1, tables.acc_f2, tables.acc_f3, tables.acc_count):
            acc[ids] = 0

    cells = network.cells()
    events = 0
    edge_flags = None
    for n, bs in enumerate(network.base_stations):
        ids = cells[n]
        period = config.feedback_period_slots
        if bs.tier == TIER_FEMTO and config.femto_feedback_period_slots:
            period = config.femto_feedback_period_slots
        if slot % period != 0 or not ids:
            continue
        if enabled is not None and not enabled[n]:
            withdraw(ids)
            reset_window(ids)
            continue
        publish_ids = ids
        if config.edge_only_feedback and bs.tier != TIER_FEMTO:
            if edge_flags is None:
                edge_flags = classify_edge_users(network, mean_gains, config.edge_threshold_db)
            publish_ids = [k for k in ids if edge_flags[k]]
            withdraw([k for k in ids if not edge_flags[k]])
        publish(publish_ids)
        reset_window(ids)
        events += 1
    return events


def refresh_networks():
    """A hetnet with femtos, and the protocol network with an empty femto cell."""
    base = protocol_network(n_sub=3)
    empty_femto = Network(base_stations=base.base_stations, users=base.users[:6],
                          neighbor_sets=base.neighbor_sets, subchannel_count=3,
                          bandwidth_hz=10e6)
    hetnet = build_network(Scenario(kind="hetnet", rings=1, femtos_per_macro=2,
                                    macro_users_per_cell=3, femto_users_per_cell=2,
                                    subchannels=3, seed=4))
    return [base, empty_femto, hetnet]


REFRESH_NETWORKS = refresh_networks()


class TestMaskedRefresh:
    """refresh_candidate_tables against the per-cell loop it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(net_index=st.integers(0, len(REFRESH_NETWORKS) - 1),
           period=st.integers(1, 4), femto_period=st.integers(0, 4),
           edge_only=st.booleans(), threshold_db=st.floats(-3.0, 12.0),
           enabled_bits=st.none() | st.integers(0, 2**31 - 1),
           start=st.integers(0, 5), seed=st.integers(0, 2**16))
    def test_matches_per_cell_loop(self, net_index, period, femto_period, edge_only,
                                   threshold_db, enabled_bits, start, seed):
        net = REFRESH_NETWORKS[net_index]
        K, N, S = net.n_users, net.n_bs, net.subchannel_count
        cfg = Scenario(feedback_period_slots=period, femto_feedback_period_slots=femto_period,
                       edge_only_feedback=edge_only, edge_threshold_db=threshold_db)
        enabled = None
        if enabled_bits is not None:
            enabled = (enabled_bits >> np.arange(N)) % 2 == 1
        rng = np.random.default_rng(seed)
        got, want = CandidateTables(net), CandidateTables(net)
        got.pub_valid = rng.random(K) < 0.5   # records left from earlier windows
        want.pub_valid = got.pub_valid.copy()
        for t in range(start, start + 9):
            mean_gains = rng.lognormal(-8.0, 2.0, size=(K, N))   # users move
            slot = (rng.lognormal(-2.0, 1.0, size=(K, N, S)), rng.uniform(0.2, 2.0, size=K),
                    rng.uniform(0.1, 1.0, size=(K, S)), rng.uniform(0.1, 1.0, size=(K, S)))
            got.accumulate(*slot)
            want.accumulate(*slot)
            events = refresh_candidate_tables(net, got, t, cfg, mean_gains=mean_gains,
                                              enabled=enabled)
            assert events == looped_refresh(net, want, t, cfg, mean_gains, enabled)
            for name, value in vars(want).items():
                assert np.array_equal(getattr(got, name), value), (name, t)

