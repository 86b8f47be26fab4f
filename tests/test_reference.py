import numpy as np
import pytest

from refimsim.engine import build_network
from refimsim.power import taxation_term
from refimsim.presets import get_preset
from refimsim.reference import (
    CandidateTables, FeedbackConfig, exchange_scheduled_indices,
    refresh_candidate_tables, representative_users, select_references,
)
from refimsim.scheduling import NO_USER, link_state
from refimsim.topology import TIER_FEMTO, BaseStation, Network, User


def protocol_network(n_sub=2):
    """Two macros plus one femto; femto users 6,7 live in home 0."""
    stations = [
        BaseStation(id=0, tier="macro", position=(0.0, 0.0), max_power_w=20.0, mask_w=20.0),
        BaseStation(id=1, tier="macro", position=(1000.0, 0.0), max_power_w=20.0, mask_w=20.0),
        BaseStation(id=2, tier="femto", position=(500.0, 300.0), max_power_w=0.03,
                    mask_w=0.03, home_id=0, home_center=(500.0, 300.0)),
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
        views = exchange_scheduled_indices(net, sched, 0, FeedbackConfig())
        assert np.array_equal(views.macro_view[0], sched[0])
        assert np.array_equal(views.macro_view[1], sched[1])

    def test_femto_target_replaced_by_representative(self):
        net = protocol_network()
        assert representative_users(net)[2] == 6
        sched = np.array([[0, 1], [4, 3], [7, 7]])  # femto really schedules 7
        views = exchange_scheduled_indices(net, sched, 0, FeedbackConfig())
        assert np.all(views.macro_view[2] == 6)
        assert np.all(views.femto_view[2] == 6)

    def test_overhearing_flag_hides_macros_from_femtos(self):
        net = protocol_network()
        sched = np.array([[0, 1], [4, 3], [6, 7]])
        views_on = exchange_scheduled_indices(net, sched, 0,
                                              FeedbackConfig(femto_overhear=True))
        assert np.array_equal(views_on.femto_view[0], sched[0])
        views_off = exchange_scheduled_indices(net, sched, 0,
                                               FeedbackConfig(femto_overhear=False))
        assert np.all(views_off.femto_view[0] == NO_USER)
        assert np.all(views_off.femto_view[1] == NO_USER)

    def test_no_overhear_yields_no_references_for_femto(self):
        # femto with only macro neighbors falls back to selfish water-filling
        net = protocol_network()
        gains, powers, noise, weights, serving = random_slot(net, 0)
        tables = CandidateTables(net)
        accumulate(tables, gains, powers, noise, weights, serving)
        refresh_candidate_tables(net, tables, 0, FeedbackConfig())
        net2 = Network(base_stations=net.base_stations, users=net.users,
                       neighbor_sets=[[1, 2], [0, 2], [0, 1]],
                       subchannel_count=2, bandwidth_hz=10e6)
        sched = np.array([[0, 1], [4, 3], [6, 7]])
        cfg = FeedbackConfig(femto_overhear=False)
        views = exchange_scheduled_indices(net2, sched, 0, cfg)
        sel = select_one(net2, 2, views, tables, count=1)
        assert not sel.valid().any()
        assert np.all(sel.taxes(2) == 0.0)


def select_one(network, bs, views, tables, count):
    """Reference selection with only `bs` enabled; the other rows stay empty."""
    return select_references(network, views, tables, count,
                             enabled=np.arange(network.n_bs) == bs)


class TestCandidateTables:
    def test_fresh_tables_match_ground_truth_taxation(self):
        # T=1: table-based taxation equals taxation from current gains/powers
        net = protocol_network()
        gains, powers, noise, weights, serving = random_slot(net, 1)
        tables = CandidateTables(net)
        accumulate(tables, gains, powers, noise, weights, serving)
        refresh_candidate_tables(net, tables, 0, FeedbackConfig(period_slots=1))
        sched = np.array([[0, 1], [4, 3], [6, 7]])
        views = exchange_scheduled_indices(net, sched, 0, FeedbackConfig())
        sel = select_references(net, views, tables, count=1)
        taxes = sel.taxes()
        for n in range(3):
            for s in range(2):
                m = int(sel.ref_bs[n, s, 0])
                k = int(sel.ref_user[n, s, 0])
                expected = taxation_term(weights[k], k, n, m, gains, powers, noise, s)
                assert taxes[n, s] == pytest.approx(expected, rel=1e-12)

    def test_time_average_is_arithmetic_mean(self):
        net = protocol_network()
        cfg = FeedbackConfig(period_slots=3)
        tables = CandidateTables(net)
        slabs = []
        for t in range(3):
            gains, powers, noise, weights, serving = random_slot(net, 10 + t)
            accumulate(tables, gains, powers, noise, weights, serving)
            slabs.append(gains)
        refresh_candidate_tables(net, tables, 3, cfg)
        assert np.allclose(tables.pub_f0, np.mean(slabs, axis=0))

    def test_staleness_bounded_by_period(self):
        net = protocol_network()
        cfg = FeedbackConfig(period_slots=5)
        tables = CandidateTables(net)
        for t in range(23):
            gains, powers, noise, weights, serving = random_slot(net, t)
            accumulate(tables, gains, powers, noise, weights, serving)
            refresh_candidate_tables(net, tables, t, cfg)
            if t >= 5:
                stale = (t - tables.last_update)[tables.pub_valid]
                assert stale.max() <= cfg.period_slots

    def test_between_refreshes_values_stay_stale(self):
        net = protocol_network()
        cfg = FeedbackConfig(period_slots=10)
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
        cfg = FeedbackConfig(edge_only=True, edge_threshold_db=6.0)
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
        refresh_candidate_tables(net, t_full, 0, FeedbackConfig(edge_only=False))
        t_edge = CandidateTables(net)
        accumulate(t_edge, gains, powers, noise, weights, serving)
        refresh_candidate_tables(net, t_edge, 0,
                                 FeedbackConfig(edge_only=True, edge_threshold_db=1e9),
                                 mean_gains=mean_gains)
        assert np.array_equal(t_full.pub_valid, t_edge.pub_valid)
        assert np.array_equal(t_full.pub_f0, t_edge.pub_f0)

    def test_disabled_bs_publishes_nothing(self):
        net = protocol_network()
        gains, powers, noise, weights, serving = random_slot(net, 5)
        tables = CandidateTables(net)
        accumulate(tables, gains, powers, noise, weights, serving)
        refresh_candidate_tables(net, tables, 0, FeedbackConfig(),
                                 enabled=np.array([False, True, True]))
        assert not tables.pub_valid[[0, 1, 2]].any()
        assert tables.pub_valid[[3, 4, 5, 6, 7]].all()

    def test_record_view(self):
        net = protocol_network()
        gains, powers, noise, weights, serving = random_slot(net, 6)
        tables = CandidateTables(net)
        accumulate(tables, gains, powers, noise, weights, serving)
        refresh_candidate_tables(net, tables, 0, FeedbackConfig())
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
        refresh_candidate_tables(net, tables, 0, FeedbackConfig())
        return tables

    def test_argmax_across_neighbors(self):
        net = protocol_network()
        tables = self._tables_with_cross_gains(net, {4: 0.5, 6: 0.9})
        sched = np.array([[0, 0], [4, 4], [6, 6]])
        views = exchange_scheduled_indices(net, sched, 0, FeedbackConfig())
        sel = select_one(net, 0, views, tables, count=1)
        assert np.all(sel.ref_bs[0, :, 0] == 2)
        assert np.all(sel.ref_user[0, :, 0] == 6)

    def test_count_zero_selects_nothing(self):
        net = protocol_network()
        tables = self._tables_with_cross_gains(net, {4: 0.5, 6: 0.9})
        sched = np.array([[0, 0], [4, 4], [6, 6]])
        views = exchange_scheduled_indices(net, sched, 0, FeedbackConfig())
        sel = select_one(net, 0, views, tables, count=0)
        assert not sel.valid().any()
        assert np.all(sel.taxes(0) == 0.0)

    def test_multi_reference_sums_taxations(self):
        net = protocol_network()
        tables = self._tables_with_cross_gains(net, {4: 0.5, 6: 0.9})
        sched = np.array([[0, 0], [4, 4], [6, 6]])
        views = exchange_scheduled_indices(net, sched, 0, FeedbackConfig())
        one = select_one(net, 0, views, tables, count=1)
        both = select_one(net, 0, views, tables, count=2)
        assert both.valid()[0].sum() == 4  # two refs on each of two subchannels
        per_ref = []
        for m in range(2):
            v = both.valid()[0, 0, m]
            assert v
        assert both.taxes(0)[0] > one.taxes(0)[0]

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
        refresh_candidate_tables(net, tables, 0, FeedbackConfig())
        sched = np.tile(np.arange(7)[:, None], (1, 2))  # one user per cell
        views = exchange_scheduled_indices(net, sched, 0, FeedbackConfig())
        sel = select_one(net, 0, views, tables, count=6)
        assert sel.valid()[0].sum() == 6 * 2  # all six neighbors, both subchannels
        for s in range(2):
            expected = sum(
                taxation_from_feedback(tables.pub_f1[k], tables.pub_f0[k, 0, s],
                                       tables.pub_f2[k, s], tables.pub_f3[k, s])
                for k in net.neighbor_sets[0])
            assert sel.taxes(0)[s] == pytest.approx(expected, rel=1e-12)

    def test_unpublished_candidates_skipped(self):
        net = protocol_network()
        tables = self._tables_with_cross_gains(net, {4: 0.5, 6: 0.9})
        tables.withdraw([6, 7])  # femto record vanishes
        sched = np.array([[0, 0], [4, 4], [6, 6]])
        views = exchange_scheduled_indices(net, sched, 0, FeedbackConfig())
        sel = select_one(net, 0, views, tables, count=1)
        assert np.all(sel.ref_bs[0, :, 0] == 1)  # falls back to the other macro

    def test_reference_always_in_neighbor_set(self):
        net = protocol_network()
        for seed in range(10):
            gains, powers, noise, weights, serving = random_slot(net, seed)
            tables = CandidateTables(net)
            accumulate(tables, gains, powers, noise, weights, serving)
            refresh_candidate_tables(net, tables, 0, FeedbackConfig())
            sched = np.array([[0, 1], [4, 5], [6, 7]])
            views = exchange_scheduled_indices(net, sched, 0, FeedbackConfig())
            sel = select_references(net, views, tables, count=1)
            for n in range(net.n_bs):
                for s in range(net.subchannel_count):
                    if sel.ref_bs[n, s, 0] >= 0:
                        assert sel.ref_bs[n, s, 0] in net.neighbor_sets[n]


def looped_select_references(network, views, tables, count, enabled=None):
    """Per-BS reference selection loop the batch kernel replaced (reference)."""
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
        cross = tables.pub_f0[ksafe, n, np.arange(S)[None, :]]
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
            out["f0"][n, ok, m] = tables.pub_f0[u, n, sc]
            out["f1"][n, ok, m] = tables.pub_f1[u]
            out["f2"][n, ok, m] = tables.pub_f2[u, sc]
            out["f3"][n, ok, m] = tables.pub_f3[u, sc]
    return out


def random_tables(net, rng, tie_levels=None):
    """Published tables with random records; with tie_levels, cross gains
    take only that many distinct values, so rankings tie often."""
    K, N, S = net.n_users, net.n_bs, net.subchannel_count
    tables = CandidateTables(net)
    if tie_levels is None:
        tables.pub_f0 = rng.lognormal(-2.0, 1.0, size=(K, N, S))
    else:
        tables.pub_f0 = rng.integers(1, tie_levels + 1, size=(K, N, S)) / tie_levels
    tables.pub_f1 = rng.uniform(0.2, 2.0, size=K)
    tables.pub_f2 = rng.uniform(0.1, 1.0, size=(K, S))
    tables.pub_f3 = rng.uniform(0.1, 1.0, size=(K, S))
    tables.pub_valid = rng.random(K) < 0.8
    return tables


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
        tables = random_tables(net, rng, tie_levels)
        sched = random_schedule(net, rng)
        views = exchange_scheduled_indices(net, sched, 0, fb)
        for enabled in (None, rng.random(net.n_bs) < 0.7):
            for count in range(4):
                got = select_references(net, views, tables, count, enabled=enabled)
                want = looped_select_references(net, views, tables, count, enabled)
                for name in self.FIELDS:
                    assert np.array_equal(getattr(got, name), want[name]), (name, count)

    @pytest.mark.parametrize("seed", range(3))
    def test_hex19_matches_loop(self, seed):
        net = build_network(get_preset("hex19"))
        self._check(net, FeedbackConfig(), seed)

    @pytest.mark.parametrize("seed", range(2))
    def test_hetnet10_without_overhearing_matches_loop(self, seed):
        net = build_network(get_preset("hetnet10"))
        self._check(net, FeedbackConfig(femto_overhear=False), seed)

    @pytest.mark.parametrize("net_name", ["hex19", "hetnet10"])
    def test_tied_cross_gains_keep_neighbor_order(self, net_name):
        net = build_network(get_preset(net_name))
        self._check(net, FeedbackConfig(femto_overhear=False), 7, tie_levels=2)

    def test_bs_without_neighbors(self):
        base = protocol_network(n_sub=3)
        net = Network(base_stations=base.base_stations, users=base.users,
                      neighbor_sets=[[], [0, 2], [1]], subchannel_count=3,
                      bandwidth_hz=10e6)
        for seed in range(4):
            self._check(net, FeedbackConfig(), seed, tie_levels=3)
        lonely = Network(base_stations=base.base_stations, users=base.users,
                         neighbor_sets=[[], [], []], subchannel_count=3,
                         bandwidth_hz=10e6)
        self._check(lonely, FeedbackConfig(), 0)


class TestProtocolDeterminism:
    def test_identical_runs_identical_traces(self):
        net = protocol_network()
        def run_once():
            tables = CandidateTables(net)
            trace = []
            cfg = FeedbackConfig(period_slots=2)
            for t in range(6):
                gains, powers, noise, weights, serving = random_slot(net, t)
                accumulate(tables, gains, powers, noise, weights, serving)
                refresh_candidate_tables(net, tables, t, cfg, trace=trace)
            return trace, tables.pub_f0.copy()
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
        trace = []
        refresh_candidate_tables(net, tables, 0, FeedbackConfig(), trace=trace)
        from_bs0 = [row for row in trace if row[1] == 0]
        assert len(from_bs0) == 2  # two neighbors
        assert from_bs0[0][4] == 3 * 4 * net.subchannel_count * 4


class TestConfigValidation:
    def test_period_positive(self):
        with pytest.raises(ValueError):
            FeedbackConfig(period_slots=0)

    def test_ref_count_nonnegative(self):
        with pytest.raises(ValueError):
            FeedbackConfig(ref_count=-1)

    def test_tier_override(self):
        cfg = FeedbackConfig(period_slots=1, tier_period_overrides={"femto": 50})
        assert cfg.period_for("macro") == 1
        assert cfg.period_for("femto") == 50
