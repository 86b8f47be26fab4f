import math

import numpy as np
import pytest

from refimsim import topology
from refimsim.channel import (
    PropagationConfig, large_scale_linear, path_loss_matrix_db, shadowing_matrix_db,
)
from refimsim.engine import build_network
from refimsim.presets import get_preset
from refimsim.topology import (
    BaseStation, DiscRegion, HexRegion, Network, User,
    build_heterogeneous, build_hex_grid, build_linear_two_cell,
    build_mixed_density, classify_edge_users, dbm_to_watts,
    local_density_rank, place_users, WaypointMobility,
)


class TestHexGrid:
    def test_cell_count_formula(self):
        for rings, expected in ((0, 1), (1, 7), (2, 19), (3, 37), (4, 61)):
            net = build_hex_grid(rings, 1000.0)
            assert net.n_bs == expected

    def test_single_cell_has_no_neighbors(self):
        net = build_hex_grid(0, 1000.0)
        assert net.n_bs == 1
        assert net.neighbor_sets == [[]]

    def test_center_cell_six_neighbors_at_isd(self):
        net = build_hex_grid(1, 2000.0)
        assert net.n_bs == 7
        assert net.base_stations[0].position == (0.0, 0.0)
        nbrs = net.neighbor_sets[0]
        assert len(nbrs) == 6
        for m in nbrs:
            assert math.dist(net.base_stations[m].position, (0, 0)) == pytest.approx(2000.0)

    def test_neighbor_symmetry(self):
        for rings in (1, 2, 3):
            net = build_hex_grid(rings, 500.0)
            for n, nbrs in enumerate(net.neighbor_sets):
                for m in nbrs:
                    assert n in net.neighbor_sets[m]

    def test_wraparound_gives_every_cell_six_neighbors(self):
        net = build_hex_grid(2, 1000.0, wrap=True)
        assert all(len(nbrs) == 6 for nbrs in net.neighbor_sets)
        # wrapped distances never exceed the unwrapped ones
        net_plain = build_hex_grid(2, 1000.0, wrap=False)
        net = place_users(net, {"macro": 3}, rng_seed=0)
        net_plain = place_users(net_plain, {"macro": 3}, rng_seed=0)
        assert np.all(net.distances() <= net_plain.distances() + 1e-9)

    def test_macro_power_default(self):
        net = build_hex_grid(1, 1000.0)
        assert net.base_stations[0].max_power_w == pytest.approx(dbm_to_watts(43.0))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_hex_grid(-1, 1000.0)
        with pytest.raises(ValueError):
            build_hex_grid(1, 0.0)


class TestTwoCell:
    def test_paper_layout(self):
        net = build_linear_two_cell(2000.0, (200.0, 400.0), (700.0, 900.0), 10)
        assert net.n_bs == 2
        assert net.neighbor_sets == [[1], [0]]
        assert net.n_users == 40

    def test_single_user_per_group(self):
        net = build_linear_two_cell(2000.0, (200.0, 400.0), (700.0, 900.0), 1)
        assert net.n_users == 4
        assert len(net.cells()[0]) == 2 and len(net.cells()[1]) == 2

    def test_user_distances_inside_declared_bands(self):
        net = build_linear_two_cell(2000.0, (200.0, 400.0), (700.0, 900.0), 5, rng_seed=3)
        d = net.distances()
        for u in net.users:
            dist = d[u.id, u.serving_bs]
            assert (200.0 <= dist <= 400.0) or (700.0 <= dist <= 900.0)

    def test_bad_bands_rejected(self):
        with pytest.raises(ValueError):
            build_linear_two_cell(2000.0, (400.0, 200.0), (700.0, 900.0), 1)
        with pytest.raises(ValueError):
            build_linear_two_cell(2000.0, (200.0, 800.0), (700.0, 900.0), 1)
        with pytest.raises(ValueError):
            build_linear_two_cell(2000.0, (200.0, 400.0), (700.0, 2100.0), 1)


class TestHeterogeneous:
    def test_femto_count_on_19_cell_grid(self):
        net = build_hex_grid(2, 1000.0)
        het = build_heterogeneous(net, 5, rng_seed=1)
        assert het.n_bs == 19 + 95
        femtos = [b for b in het.base_stations if b.tier == topology.TIER_FEMTO]
        assert len(femtos) == 95
        assert all(b.max_power_w == pytest.approx(dbm_to_watts(15.0)) for b in femtos)

    def test_zero_femtos_identity(self):
        net = build_hex_grid(1, 1000.0)
        assert build_heterogeneous(net, 0) is net

    def test_symmetric_pair_distance_is_home_size(self):
        net = build_hex_grid(0, 1000.0)
        het = build_heterogeneous(net, 2, deployment_mix={"symmetric-pair": 1.0},
                                  home_size_m=24.0, rng_seed=2)
        f1, f2 = het.base_stations[1], het.base_stations[2]
        assert math.dist(f1.position, f2.position) == pytest.approx(24.0)
        assert f1.position == f1.home_center and f2.position == f2.home_center

    def test_asymmetric_pair_bs1_at_border(self):
        net = build_hex_grid(0, 1000.0)
        het = build_heterogeneous(net, 2, deployment_mix={"asymmetric-pair": 1.0},
                                  home_size_m=20.0, rng_seed=2)
        f1, f2 = het.base_stations[1], het.base_stations[2]
        border = ((f1.home_center[0] + f2.home_center[0]) / 2,
                  (f1.home_center[1] + f2.home_center[1]) / 2)
        assert math.dist(f1.position, border) == pytest.approx(0.0, abs=1e-9)
        assert math.dist(f1.position, f2.position) == pytest.approx(10.0)

    def test_neighbor_wiring(self):
        net = build_hex_grid(0, 1000.0)
        het = build_heterogeneous(net, 2, deployment_mix={"symmetric-pair": 1.0},
                                  rng_seed=0)
        assert het.neighbor_sets[0] == [1, 2]          # macro gains its femtos
        assert het.neighbor_sets[1] == [0, 2]          # femto: macro + pair
        assert het.neighbor_sets[2] == [0, 1]

    def test_unknown_case_rejected(self):
        net = build_hex_grid(0, 1000.0)
        with pytest.raises(ValueError):
            build_heterogeneous(net, 1, deployment_mix={"solo": 1.0})


class TestPlaceUsers:
    def test_user_counts(self):
        net = place_users(build_hex_grid(2, 1000.0), {"macro": 20}, rng_seed=0)
        assert net.n_users == 380
        assert all(len(net.cells()[n]) == 20 for n in range(19))

    def test_partition(self):
        net = place_users(build_hex_grid(1, 1000.0), {"macro": 5}, rng_seed=0)
        all_ids = sorted(k for n in range(net.n_bs) for k in net.cells()[n])
        assert all_ids == list(range(net.n_users))

    def test_determinism_byte_identical(self):
        a = place_users(build_hex_grid(1, 800.0), {"macro": 7}, rng_seed=42)
        b = place_users(build_hex_grid(1, 800.0), {"macro": 7}, rng_seed=42)
        assert a == b
        c = place_users(build_hex_grid(1, 800.0), {"macro": 7}, rng_seed=43)
        assert a != c

    def test_femto_users_indoor_inside_home(self):
        het = build_heterogeneous(build_hex_grid(0, 1000.0), 3, rng_seed=5)
        net = place_users(het, {"macro": 20, "femto": 4}, rng_seed=5)
        for bs in net.base_stations:
            if bs.tier != topology.TIER_FEMTO:
                continue
            ids = net.cells()[bs.id]
            assert len(ids) == 4
            region = net.regions[bs.id]
            for k in ids:
                u = net.users[k]
                assert u.indoor and u.home_id == bs.home_id
                assert region.contains(*u.position)

    def test_macro_users_inside_hexagon(self):
        net = place_users(build_hex_grid(1, 600.0), {"macro": 30}, rng_seed=9)
        for u in net.users:
            assert net.regions[u.serving_bs].contains(*u.position)

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            place_users(build_hex_grid(0, 1000.0), {"macro": 0})


class TestSerialization:
    def test_validation_on_construction(self):
        bs = BaseStation(id=0, tier="macro", position=(0, 0), max_power_w=1.0, mask_w=1.0)
        with pytest.raises(ValueError):
            Network(base_stations=[bs], users=[], neighbor_sets=[[0]],
                    subchannel_count=4, bandwidth_hz=1e7)
        with pytest.raises(ValueError):
            Network(base_stations=[bs],
                    users=[User(id=0, position=(0, 0), serving_bs=3)],
                    neighbor_sets=[[]], subchannel_count=4, bandwidth_hz=1e7)
        with pytest.raises(ValueError):
            BaseStation(id=0, tier="macro", position=(0, 0), max_power_w=0.0, mask_w=1.0)


class TestEdgeClassification:
    def _net(self, n_neighbors):
        stations = [BaseStation(id=i, tier="macro", position=(1000.0 * i, 0.0),
                                max_power_w=20.0, mask_w=20.0)
                    for i in range(n_neighbors + 1)]
        nbrs = [[m for m in range(n_neighbors + 1) if m != n] for n in range(n_neighbors + 1)]
        users = [User(id=0, position=(100.0, 0.0), serving_bs=0)]
        return Network(base_stations=stations, users=users, neighbor_sets=nbrs,
                       subchannel_count=4, bandwidth_hz=1e7)

    def test_gap_within_threshold_is_edge(self):
        net = self._net(1)
        gains = np.array([[10 ** (-90 / 10), 10 ** (-93 / 10)]])
        assert classify_edge_users(net, gains, threshold_db=6.0)[0]

    def test_gap_beyond_threshold_not_edge(self):
        net = self._net(1)
        gains = np.array([[10 ** (-90 / 10), 10 ** (-99 / 10)]])
        assert not classify_edge_users(net, gains, threshold_db=6.0)[0]

    def test_isolated_cell_never_edge(self):
        net = self._net(0)
        assert not classify_edge_users(net, np.array([[1e-9]]), threshold_db=6.0)[0]

    def test_infinite_threshold_marks_everyone(self):
        net = self._net(2)
        gains = np.array([[1e-9, 1e-30, 1e-30]])
        assert classify_edge_users(net, gains, threshold_db=1e9).all()


def looped_edge_flags(network, mean_gains, threshold_db):
    """Per-user loop that classify_edge_users replaced (reference)."""
    flags = np.zeros(network.n_users, dtype=bool)
    for u in network.users:
        nbrs = network.neighbor_sets[u.serving_bs]
        if not nbrs:
            continue
        gap_db = 10.0 * np.log10(mean_gains[u.id, nbrs].max() / mean_gains[u.id, u.serving_bs])
        flags[u.id] = gap_db >= -threshold_db
    return flags


class TestEdgeClassificationMatchesLoop:
    def _partly_isolated(self):
        # BS 2 has no neighbors; BSs 0 and 1 see each other.
        stations = [BaseStation(id=i, tier="macro", position=(800.0 * i, 0.0),
                                max_power_w=20.0, mask_w=20.0) for i in range(3)]
        users = [User(id=k, position=(800.0 * (k % 3) + 50.0 * k, 10.0), serving_bs=k % 3)
                 for k in range(9)]
        return Network(base_stations=stations, users=users, neighbor_sets=[[1], [0], []],
                       subchannel_count=2, bandwidth_hz=1e7)

    @pytest.mark.parametrize("layout", ["hex19", "hetnet10", "partly-isolated"])
    def test_flags_equal_loop(self, layout):
        net = self._partly_isolated() if layout == "partly-isolated" \
            else build_network(get_preset(layout))
        cfg = PropagationConfig()
        gains = large_scale_linear(path_loss_matrix_db(net, cfg),
                                   shadowing_matrix_db(net, cfg, np.random.default_rng(3)))
        seen = set()
        for threshold_db in (0.0, 6.0, 20.0):
            flags = classify_edge_users(net, gains, threshold_db)
            assert np.array_equal(flags, looped_edge_flags(net, gains, threshold_db))
            seen.update(flags.tolist())
        assert seen == {False, True}


class TestRegionsAndMobility:
    def test_hex_region_contains_center_not_far(self):
        r = HexRegion(center=(0.0, 0.0), isd_m=1000.0)
        assert r.contains(0.0, 0.0)
        assert not r.contains(1000.0, 0.0)

    def test_disc_sampling_uniformity(self):
        r = DiscRegion(center=(5.0, 5.0), radius_m=10.0)
        rng = np.random.default_rng(0)
        pts = np.array([r.sample(rng) for _ in range(4000)])
        d = np.linalg.norm(pts - [5.0, 5.0], axis=1)
        assert d.max() <= 10.0
        # under uniformity P(d <= r/sqrt(2)) = 1/2
        assert abs((d <= 10.0 / math.sqrt(2)).mean() - 0.5) < 0.05

    def test_waypoint_mobility_stays_in_region_and_moves(self):
        net = place_users(build_hex_grid(0, 500.0), {"macro": 5}, rng_seed=0)
        mob = WaypointMobility(net, np.full(5, 10.0), np.random.default_rng(1))
        start = mob.positions.copy()
        for _ in range(200):
            assert mob.advance(0.1)
        assert np.linalg.norm(mob.positions - start, axis=1).max() > 1.0
        for k in range(5):
            assert net.regions[0].contains(*mob.positions[k])

    @pytest.mark.parametrize("speed,dt", [(10.0, 0.1), (30.0, 1.0), (40.0, 60.0)])
    def test_vectorized_advance_matches_per_user_loop(self, speed, dt):
        # 40 m/s over 60 s is 2.4 km a step in 500 m cells: several arrivals each
        net = place_users(build_hex_grid(1, 500.0), {"macro": 6}, rng_seed=0)
        speeds = np.full(net.n_users, speed)
        speeds[::4] = 0.0
        mob = WaypointMobility(net, speeds, np.random.default_rng(7))
        ref = WaypointMobility(net, speeds, np.random.default_rng(7))

        def reference_advance(m, dt_s):
            """The per-user loop advance replaced by the array step."""
            moved = False
            for u in m.network.users:
                v = m.speeds[u.id]
                if v <= 0:
                    continue
                moved = True
                step = v * dt_s
                while step > 0:
                    delta = m.waypoints[u.id] - m.positions[u.id]
                    dist = float(np.hypot(delta[0], delta[1]))
                    if dist <= step:
                        m.positions[u.id] = m.waypoints[u.id]
                        step -= dist
                        m.waypoints[u.id] = m.network.regions[u.serving_bs].sample(m.rng)
                    else:
                        m.positions[u.id] += delta * (step / dist)
                        step = 0.0
            return moved

        for _ in range(150):
            assert mob.advance(dt) == reference_advance(ref, dt)
            assert np.array_equal(mob.positions, ref.positions)
            assert np.array_equal(mob.waypoints, ref.waypoints)
        assert ref.rng.bit_generator.state == mob.rng.bit_generator.state

    def test_zero_speed_users_never_move(self):
        net = place_users(build_hex_grid(0, 500.0), {"macro": 3}, rng_seed=0)
        mob = WaypointMobility(net, np.zeros(3), np.random.default_rng(1))
        start = mob.positions.copy()
        assert not mob.advance(1.0)
        assert np.array_equal(mob.positions, start)


class TestMixedDensity:
    def test_zone_construction_and_density_rank(self):
        zones = [{"cols": 3, "rows": 2, "spacing_m": 500.0},
                 {"cols": 2, "rows": 2, "spacing_m": 1000.0}]
        net = build_mixed_density(zones, rng_seed=0)
        assert net.n_bs == 10
        rank = local_density_rank(net)
        # densest half should be dominated by the tighter-spaced zone (ids 0-5)
        assert sum(1 for n in rank[:5] if n < 6) >= 4
