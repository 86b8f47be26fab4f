import dataclasses
import gc
import inspect
import mmap
import os
import signal
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import j0

from refimsim import channel, engine, workers
from refimsim.channel import (
    BLOCK_SLOTS, OSCILLATORS, TILE_LINKS, WALL_LOSS_DB, Channel, FadingState, distance_laws,
    large_scale_linear, noise_power_w, path_loss_db, path_loss_matrix_db,
    shadowing_matrix_db, shared_array, wall_mask,
)
from refimsim.engine import Scenario, build_network
from refimsim.presets import get_preset
from refimsim.topology import (
    TIER_FEMTO, BaseStation, Network, User, WaypointMobility, build_hex_grid, place_users,
)


class TestPathLoss:
    def test_macro_spot_value(self):
        assert path_loss_db("macro", 100.0) == pytest.approx(91.82, abs=0.01)

    def test_indoor_spot_value(self):
        assert path_loss_db("indoor", 10.0) == pytest.approx(69.0, abs=0.01)

    def test_wall_adds_10db(self):
        bs = BaseStation(id=0, tier="macro", position=(0.0, 0.0), max_power_w=20.0, mask_w=20.0)
        indoor_user = User(id=0, position=(100.0, 0.0), serving_bs=0, indoor=True, home_id=7)
        net = Network(base_stations=[bs], users=[indoor_user], neighbor_sets=[[]],
                      subchannel_count=1, bandwidth_hz=1e7)
        pl = path_loss_matrix_db(net)
        assert pl[0, 0] == pytest.approx(101.82, abs=0.01)

    def test_wall_rules(self):
        macro = BaseStation(id=0, tier="macro", position=(0, 0), max_power_w=1, mask_w=1)
        femto = BaseStation(id=1, tier="femto", position=(5, 0), max_power_w=1, mask_w=1,
                            home_id=3)
        outdoor = User(id=0, position=(1, 1), serving_bs=0)
        same_home = User(id=1, position=(6, 0), serving_bs=1, indoor=True, home_id=3)
        other_home = User(id=2, position=(9, 0), serving_bs=1, indoor=True, home_id=4)
        net = Network(base_stations=[macro, femto], users=[outdoor, same_home, other_home],
                      neighbor_sets=[[1], [0]], subchannel_count=1, bandwidth_hz=1e7)
        walls = wall_mask(net)
        assert not walls[outdoor.id, macro.id]
        assert walls[same_home.id, macro.id]
        assert not walls[same_home.id, femto.id]
        assert walls[other_home.id, femto.id]
        assert walls[outdoor.id, femto.id]

    def test_monotone_in_distance(self):
        d = np.sort(np.random.default_rng(0).uniform(1.0, 5000.0, size=50))
        for model in ("macro", "indoor"):
            pl = path_loss_db(model, d)
            assert np.all(np.diff(pl) > 0)

    def test_minimum_distance_clamp(self):
        assert path_loss_db("macro", 0.001) == path_loss_db("macro", 1.0)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            path_loss_db("underwater", 10.0)

    @pytest.mark.parametrize("preset", ["hex19", "hetnet5", "two-cell"])
    def test_matrix_equals_per_bs_law(self, preset):
        net = build_network(get_preset(preset, seed=3))
        positions = net.user_positions() + 7.0
        d = net.distances(positions)
        expected = np.stack([path_loss_db("indoor" if bs.tier == TIER_FEMTO else "macro",
                                          d[:, n])
                             for n, bs in enumerate(net.base_stations)], axis=1)
        expected[wall_mask(net)] += WALL_LOSS_DB
        assert np.array_equal(path_loss_matrix_db(net, positions), expected)
        assert np.array_equal(path_loss_matrix_db(net, positions, wall_mask(net)), expected)
        assert np.array_equal(path_loss_matrix_db(net, positions, wall_mask(net),
                                                  distance_laws(net)), expected)

    @pytest.mark.parametrize("wrap", [False, True])
    @pytest.mark.parametrize("preset", ["hex19", "hetnet5"])
    def test_distances_equal_the_norm_per_image(self, preset, wrap):
        # the norm of each wrap image's offset, the smallest kept: one sqrt of
        # the smallest squared distance is bit-identical
        net = build_network(dataclasses.replace(get_preset(preset, seed=3), wrap=wrap))
        assert len(net.wrap_vectors) == (6 if wrap else 0)
        rng = np.random.default_rng(8)
        span = 3000.0 if wrap else 1e4
        for positions in (net.user_positions(),
                          rng.uniform(-span, span, (net.n_users, 2)),
                          net.bs_positions()[rng.integers(0, net.n_bs, net.n_users)]):
            bp = net.bs_positions()
            d = np.linalg.norm(positions[:, None, :] - bp[None, :, :], axis=2)
            for vx, vy in net.wrap_vectors:
                shifted = bp + np.array([vx, vy])
                d = np.minimum(d, np.linalg.norm(positions[:, None, :] - shifted[None, :, :],
                                                 axis=2))
            assert np.array_equal(net.distances(positions), d)


def tier_shadowing(rng, sigma_db, users, n_bs=1, tier="macro"):
    """shadowing_matrix_db on `users` x `n_bs` links to BSs of one tier, with
    sigma_db for both tiers; only the tiers and counts of the network are read."""
    net = SimpleNamespace(base_stations=[SimpleNamespace(tier=tier)] * n_bs,
                          n_users=users, n_bs=n_bs)
    sc = SimpleNamespace(shadowing_sigma_macro_db=sigma_db, shadowing_sigma_femto_db=sigma_db)
    return shadowing_matrix_db(net, sc, rng)


class TestShadowing:
    def test_zero_sigma_degenerate(self):
        rng = np.random.default_rng(0)
        assert np.all(tier_shadowing(rng, 0.0, 100) == 0.0)

    def test_sample_mean_matches_gaussian(self):
        # Monte-Carlo check against the zero-mean Gaussian moments
        rng = np.random.default_rng(1)
        draws = tier_shadowing(rng, 8.0, 1000, n_bs=100)
        assert abs(draws.mean()) < 0.1
        assert draws.std() == pytest.approx(8.0, rel=0.02)

    def test_same_seed_identical(self):
        a = tier_shadowing(np.random.default_rng(5), 8.0, 10)
        b = tier_shadowing(np.random.default_rng(5), 8.0, 10)
        assert np.array_equal(a, b)

    def test_per_tier_sigma(self):
        net = build_hex_grid(0, 1000.0)
        net = place_users(net, {"macro": 200}, rng_seed=0)
        sh = shadowing_matrix_db(net, Scenario(), np.random.default_rng(2))
        assert sh.shape == (200, 1)
        assert sh.std() == pytest.approx(8.0, rel=0.15)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            tier_shadowing(np.random.default_rng(0), -1.0, 10)
        with pytest.raises(ValueError):
            tier_shadowing(np.random.default_rng(0), -1.0, 10, tier="femto")


class TestNoise:
    def test_thermal_noise_derived_value(self):
        # independent dB-arithmetic oracle: -174 dBm/Hz over 625 kHz + 9 dB NF
        expected_w = 10.0 ** ((-174.0 + 10.0 * np.log10(625e3) + 9.0 - 30.0) / 10.0)
        assert noise_power_w(9.0, 625e3) == pytest.approx(expected_w, rel=1e-12)
        assert expected_w == pytest.approx(1.977e-14, rel=1e-3)


class TestJakesFading:
    def _single_link(self, speed, seed=0, dt_s=1e-3):
        rng = np.random.default_rng(seed)
        return FadingState(rng, 1, 1, 1, np.array([speed]), 2e9, dt_s)

    def test_zero_speed_constant(self):
        st = self._single_link(0.0)
        h0 = st.coefficients().copy()
        for _ in range(5):
            st.advance()
            h = st.coefficients()
        assert np.allclose(h, h0)

    def test_unit_mean_power(self):
        # long-horizon Monte Carlo: mean |h|^2 within 3% of 1
        st = self._single_link(3 / 3.6, seed=3, dt_s=20e-3)  # several samples per coherence time
        total, count = 0.0, 0
        for _ in range(100_000):
            st.advance()
            total += float(st.power_gains()[0, 0, 0])
            count += 1
        assert abs(total / count - 1.0) < 0.03

    def test_lag1_autocorrelation_matches_bessel(self):
        # ensemble of independent links, lag-1 ms at 3 km/h, 2 GHz
        rng = np.random.default_rng(7)
        n_links = 400
        dt = 1e-3
        st = FadingState(rng, n_links, 1, 1, np.full(n_links, 3 / 3.6), 2e9, dt)
        f_d = (3 / 3.6) * 2e9 / 299792458.0
        prev = st.coefficients().ravel().copy()
        num, den = 0.0, 0.0
        for _ in range(400):
            st.advance()
            cur = st.coefficients().ravel()
            num += float(np.real(np.vdot(prev, cur)))
            den += float(np.vdot(prev, prev).real)
            prev = cur.copy()
        rho = num / den
        assert rho == pytest.approx(j0(2 * np.pi * f_d * dt), abs=0.02)

    def test_subchannels_decorrelated(self):
        rng = np.random.default_rng(11)
        st = FadingState(rng, 200, 1, 2, np.full(200, 3 / 3.6), 2e9, 1e-3)
        h = st.coefficients()
        a, b = h[:, 0, 0], h[:, 0, 1]
        rho = np.abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert rho < 0.15

    def test_determinism(self):
        a = self._single_link(3 / 3.6, seed=9)
        b = self._single_link(3 / 3.6, seed=9)
        a.advance()
        b.advance()
        assert np.array_equal(a.coefficients(), b.coefficients())


class _UntiledFading:
    """Reference Jakes state: one (K, N, S, O) array, rotated and summed whole."""

    def __init__(self, seed, n_users, n_bs, n_subchannels, speeds_mps, oscillators):
        rng = np.random.default_rng(seed)
        shape = (n_users, n_bs, n_subchannels, oscillators)
        doppler = 2.0 * np.pi * speeds_mps * 2e9 / 299792458.0
        angles = rng.uniform(0.0, 2.0 * np.pi, size=shape)
        self.omegas = doppler[:, None, None, None] * np.cos(angles)
        self.osc = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=shape))
        self.scale = 1.0 / np.sqrt(oscillators)

    def advance(self, dt_s):
        self.osc *= np.exp(1j * self.omegas * dt_s)

    def coefficients(self):
        return self.osc.sum(axis=-1) * self.scale

    def power_gains(self):
        h = self.coefficients()
        return h.real ** 2 + h.imag ** 2


def _owned_nbytes(values):
    """Bytes of the arrays among values that own their data or all of a
    `shared_array`'s, looking into lists and namespaces (views are counted
    with their base)."""
    total = 0
    for v in values:
        if isinstance(v, np.ndarray):
            total += v.nbytes if v.base is None or isinstance(v.base, mmap.mmap) else 0
        elif isinstance(v, list):
            total += _owned_nbytes(v)
        elif isinstance(v, SimpleNamespace):
            total += _owned_nbytes(vars(v).values())
    return total


def _fading_trajectory(K, N, S):
    """Every output of one FadingState through one-step and blocked
    advances, plus the caller's generator's next draws."""
    rng = np.random.default_rng(4)
    speeds = np.random.default_rng(K).uniform(0.0, 30.0, K)
    st = FadingState(rng, K, N, S, speeds, 2e9, 2.5e-3)
    seq = [rng.bit_generator.random_raw(4), st.coefficients(), st.power_gains()]
    for _ in range(12):
        st.advance()
        seq += [st.coefficients(), st.power_gains()]
    scales = np.random.default_rng(5).uniform(0.5, 2.0, (3, K, N))
    for slots in (3, 1, 2):
        out = np.full((slots, K, N, S), np.nan)
        st.advance(out, scales[:slots])
        seq += [out, st.coefficients(), st.power_gains(scales[1])]
    return seq


class TestTiledFading:
    # (K, N, S): 24 links fit in one tile; 8569 links (451 user-BS pairs of
    # 19) need three tiles of 151 pairs, the last padded with two pairs' links.
    SIZES = [(3, 2, 4), (41, 11, 19)]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("oscillators", [OSCILLATORS])
    def test_bit_identical_to_untiled(self, size, oscillators):
        K, N, S = size
        speeds = np.random.default_rng(K).uniform(0.0, 30.0, K)
        for dt in (1e-3, 2.5e-3):
            ref = _UntiledFading(4, K, N, S, speeds, oscillators)
            st = FadingState(np.random.default_rng(4), K, N, S, speeds, 2e9, dt)
            n_tiles, _, width = st.osc.shape
            assert width % S == 0  # tiles hold whole (user, bs) pairs
            if K * N * S < TILE_LINKS:
                assert n_tiles == 1
            else:
                assert n_tiles > 1 and n_tiles * width > K * N * S
            assert np.array_equal(st.coefficients(), ref.coefficients())
            assert np.array_equal(st.power_gains(), ref.power_gains())
            for _ in range(15):
                ref.advance(dt)
                st.advance()
                assert np.array_equal(st.coefficients(), ref.coefficients())
                assert np.array_equal(st.power_gains(), ref.power_gains())

    @pytest.mark.parametrize("slots", [1, 2, 3, 5])
    def test_blocked_advance_equals_slot_by_slot(self, slots):
        K, N, S = 41, 11, 19
        speeds = np.random.default_rng(K).uniform(0.0, 30.0, K)
        ref = _UntiledFading(4, K, N, S, speeds, 8)
        st = FadingState(np.random.default_rng(4), K, N, S, speeds, 2e9, 1e-3)
        scales = np.random.default_rng(5).uniform(0.5, 2.0, (slots, K, N))
        out = np.full((slots, K, N, S), np.nan)
        for _ in range(3):
            st.advance(out, scales)
            for i in range(slots):
                ref.advance(1e-3)
                assert np.array_equal(out[i], ref.power_gains() * scales[i][:, :, None])
            assert np.array_equal(st.coefficients(), ref.coefficients())

    def test_state_holds_no_frequency_tensor(self, monkeypatch):
        K, N, S = 41, 11, 19
        for workers in (1, 2, 3):
            monkeypatch.setattr(channel, "_cpu_count", lambda: workers)
            # the buffers a posted pass writes are the caller's
            out, scale = shared_array((1, K, N, S)), shared_array((1, K, N))
            st = FadingState(np.random.default_rng(2), K, N, S, np.full(K, 20.0), 2e9, 1e-3,
                             [(out, scale)])
            st.advance()
            st.power_gains()
            _, O, width = st.osc.shape
            assert len(st._scratch) == workers  # every thread's scratch is counted below
            # worker processes add no array of the state's own: this process
            # passes its tiles on scratch 0
            st.advance(post=(0, 1))
            st.advance()
            assert len(st._workers) == min(workers, len(st.osc)) - 1
            assert len(st._scratch) == workers
            held = _owned_nbytes(vars(st).values())
            osc_and_step = 2 * st.osc.nbytes
            scratch = width * O * 8 + 6 * width * 16  # one tile's draws and partial sums
            assert held <= osc_and_step + workers * scratch
            st.close()

    @pytest.mark.parametrize("workers", [2, 3, 64])
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("oscillators", [OSCILLATORS])
    def test_bit_identical_at_any_worker_count(self, workers, size, oscillators, monkeypatch):
        K, N, S = size
        monkeypatch.setattr(channel, "_cpu_count", lambda: 1)
        serial = _fading_trajectory(K, N, S)
        # the caller's generator ends past the angles and phases, as if it drew both
        after = np.random.default_rng(4)
        after.bit_generator.advance(2 * K * N * S * oscillators)
        assert np.array_equal(serial[0], after.bit_generator.random_raw(4))
        monkeypatch.setattr(channel, "_cpu_count", lambda: workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to expose shared writes
        try:
            threaded = _fading_trajectory(K, N, S)
        finally:
            sys.setswitchinterval(interval)
        assert len(threaded) == len(serial)
        for a, b in zip(threaded, serial):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("stage", ["init", "step", "advance"])
    def test_worker_error_reaches_the_caller(self, stage, monkeypatch):
        # three tiles in two shares, [0, 1) on the caller and [1, 3) on a thread
        K, N, S = 41, 11, 19
        monkeypatch.setattr(channel, "_cpu_count", lambda: 2)

        def make():
            return FadingState(np.random.default_rng(1), K, N, S, np.full(K, 20.0), 2e9, 1e-3)

        st = None if stage == "init" else make()
        if st is not None:
            st.advance()
            assert st.osc.shape[0] == 3
        tile_pairs = FadingState._tile_pairs
        raised_on = []

        def failing(self, t):
            if t == 2:
                raised_on.append(threading.current_thread())
                raise RuntimeError("tile 2")
            return tile_pairs(self, t)

        monkeypatch.setattr(FadingState, "_tile_pairs", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="tile 2"):
            if stage == "init":
                make()
            elif stage == "step":
                st.advance()
            else:
                st.advance(np.empty((2, K, N, S)), np.ones((2, K, N)))
        assert raised_on and raised_on[0] is not threading.main_thread()
        assert threading.active_count() == before

    def test_engine_run_leaves_no_threads(self, monkeypatch):
        monkeypatch.setattr(channel, "_cpu_count", lambda: 2)
        sc, _ = TestChannelBlocks()._hetnet(20, mobile_users=True, user_speed_kmh=60.0)
        before = threading.active_count()
        result = engine.run(sc)
        assert result.constraint_violations == 0
        assert threading.active_count() == before

    def test_dt_must_be_finite_and_positive(self):
        for dt in (-1e-3, 0.0, -0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="dt_s"):
                FadingState(np.random.default_rng(1), 2, 2, 2, np.full(2, 1.0), 2e9, dt)

    def test_returned_arrays_do_not_alias_state(self):
        st = FadingState(np.random.default_rng(1), 5, 3, 4, np.full(5, 20.0), 2e9, 1e-3)
        st.advance()
        h, g = st.coefficients(), st.power_gains()
        h0, g0 = h.copy(), g.copy()
        h[...] = 0.0
        g[...] = -1.0
        assert np.array_equal(st.coefficients(), h0)
        assert np.array_equal(st.power_gains(), g0)


class TestSnapshot:
    """The slot-0 gains (before any advance), as the oracle command reads them."""

    def _setup(self):
        sc = Scenario(rings=0, macro_users_per_cell=3, subchannels=4, seed=7)
        net = build_network(sc)
        return sc, net, Channel(sc, net)

    def test_db_conversion(self):
        assert large_scale_linear(90.0, 0.0) == pytest.approx(1e-9, rel=1e-12)

    def test_composition_and_linearity(self):
        # shadowing and fading come from the seed's children 1 and 2
        sc, net, chan = self._setup()
        _, sh_seed, fad_seed, _, _, _ = np.random.SeedSequence(sc.seed).spawn(6)
        shadow = shadowing_matrix_db(net, sc, np.random.default_rng(sh_seed))
        fading = FadingState(np.random.default_rng(fad_seed), 3, 1, 4,
                             np.full(3, sc.user_speed_kmh / 3.6), sc.carrier_freq_hz,
                             sc.slot_duration_s)
        expected = large_scale_linear(path_loss_matrix_db(net), shadow)[:, :, None] \
            * fading.power_gains()
        gains = chan.gains()
        assert np.array_equal(gains, expected)
        assert np.all(gains > 0)
        assert np.all(chan.noise == noise_power_w(sc.noise_figure_db, sc.bandwidth_hz / 4))

    def test_pure_function_of_inputs(self):
        _, _, chan = self._setup()
        a = chan.gains()
        b = chan.gains()
        assert np.array_equal(a, b)
        with pytest.raises(ValueError):  # a read-only view: the channel cannot be written
            a[...] = 0.0
        assert np.array_equal(chan.gains(), b)


class TestChannel:
    def _hetnet(self, **overrides):
        sc = Scenario(kind="hetnet", rings=0, femtos_per_macro=2, macro_users_per_cell=4,
                      femto_users_per_cell=2, subchannels=3, seed=5, **overrides)
        return sc, build_network(sc)

    def test_same_seed_same_gains(self):
        sc, net = self._hetnet(mobile_users=True, user_speed_kmh=60.0)
        a, b = Channel(sc, net), Channel(sc, net)
        for _ in range(20):
            a.advance()
            b.advance()
            assert np.array_equal(a.gains(), b.gains())

    def test_gains_compose_large_scale_and_fading(self):
        sc, net = self._hetnet()
        chan = Channel(sc, net)
        pl = path_loss_matrix_db(net)
        expected = large_scale_linear(pl, chan.shadow_db)[:, :, None] \
            * chan.fading.power_gains()
        assert np.array_equal(chan.gains(), expected)

    def test_gains_are_a_read_only_view_without_copy(self):
        sc, net = self._hetnet()
        chan = Channel(sc, net)
        chan.advance()
        a, b = chan.gains(), chan.gains()
        assert a.shape == (net.n_users, net.n_bs, net.subchannel_count)
        assert np.shares_memory(a, b) and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0, 0] = 1.0

    def test_mobility_moves_large_scale(self):
        # one slot: the block, and the users' positions, hold that slot only
        sc, net = self._hetnet(mobile_users=True, user_speed_kmh=360.0, slot_duration_s=0.1,
                               slots=1, warmup_slots=0)
        chan = Channel(sc, net)
        before = chan.large_scale.copy()
        chan.advance()
        pl = path_loss_matrix_db(net, chan.mobility.positions)
        assert np.array_equal(chan.large_scale, large_scale_linear(pl, chan.shadow_db))
        assert not np.array_equal(chan.large_scale, before)


def _slot_by_slot(sc, net, slots):
    """(large_scale, gains) of each slot, from the channel's parts stepped one
    slot at a time."""
    streams = sc.seed_streams()
    speeds = np.full(net.n_users, sc.user_speed_kmh / 3.6)
    shadow = shadowing_matrix_db(net, sc, np.random.default_rng(streams["shadowing"]))
    fading = FadingState(np.random.default_rng(streams["fading"]), net.n_users, net.n_bs,
                         net.subchannel_count, speeds, sc.carrier_freq_hz, sc.slot_duration_s)
    mobility = None
    if sc.mobile_users:
        mobility = WaypointMobility(net, speeds, np.random.default_rng(streams["mobility"]))
    for _ in range(slots):
        if mobility is not None:
            mobility.advance(sc.slot_duration_s)
        positions = None if mobility is None else mobility.positions
        large = large_scale_linear(path_loss_matrix_db(net, positions), shadow)
        fading.advance()
        yield large, large[:, :, None] * fading.power_gains()


class TestChannelBlocks:
    """The channel computes its gains BLOCK_SLOTS slots per pass."""

    def _hetnet(self, slots, **overrides):
        # 60 users x 11 BSs x 8 subchannels: two tiles of 330 (user, bs) pairs
        sc = Scenario(kind="hetnet", rings=0, femtos_per_macro=10, macro_users_per_cell=20,
                      femto_users_per_cell=4, subchannels=8, seed=5, slots=slots,
                      warmup_slots=0, **overrides)
        return sc, build_network(sc)

    @pytest.mark.parametrize("mobile", [False, True], ids=["static", "mobile"])
    @pytest.mark.parametrize("slots", [1, 2, 3, 4, 7])
    def test_gains_equal_slot_by_slot(self, slots, mobile):
        sc, net = self._hetnet(slots, mobile_users=mobile, user_speed_kmh=60.0)
        chan = Channel(sc, net)
        # two slots past the run: the channel goes on one slot at a time
        for large, gains in _slot_by_slot(sc, net, slots + 2):
            chan.advance()
            assert np.array_equal(chan.large_scale, large)
            assert np.array_equal(chan.gains(), gains)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mobile_gains_at_any_worker_count(self, workers, monkeypatch):
        sc, net = self._hetnet(7, mobile_users=True, user_speed_kmh=60.0)
        monkeypatch.setattr(channel, "_cpu_count", lambda: 1)
        expected = [(large, gains) for large, gains in _slot_by_slot(sc, net, 9)]
        monkeypatch.setattr(channel, "_cpu_count", lambda: workers)
        chan = Channel(sc, net)
        assert chan.fading.osc.shape[0] == 2
        for large, gains in expected:
            chan.advance()
            assert np.array_equal(chan.large_scale, large)
            assert np.array_equal(chan.gains(), gains)

    @pytest.mark.parametrize("slots, rotations", [(1, 1), (2, 2), (3, 3), (7, BLOCK_SLOTS)])
    def test_block_stops_at_the_run_length(self, slots, rotations, monkeypatch):
        sc, net = self._hetnet(slots)
        streams = sc.seed_streams()

        def rotated(times):
            ref = FadingState(np.random.default_rng(streams["fading"]), net.n_users, net.n_bs,
                              net.subchannel_count, np.full(net.n_users, sc.user_speed_kmh / 3.6),
                              sc.carrier_freq_hz, sc.slot_duration_s)
            for _ in range(times):
                ref.advance()
            return ref.coefficients()

        # in this process, the first advance rotates through one block
        monkeypatch.setattr(channel, "_cpu_count", lambda: 1)
        chan = Channel(sc, net)
        assert chan.fading.osc.shape[0] == 2
        chan.advance()
        assert np.array_equal(chan.fading.coefficients(), rotated(rotations))
        # with a worker, the block after it is posted too; the last stops at the run
        monkeypatch.setattr(channel, "_cpu_count", lambda: 2)
        chan = Channel(sc, net)
        for _ in range(slots):
            chan.advance()
        assert np.array_equal(chan.fading.coefficients(), rotated(slots))
        chan.close()

    def test_two_cell_is_one_tile(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a one-tile state started a thread")

        monkeypatch.setattr(channel, "_cpu_count", lambda: 8)
        monkeypatch.setattr(channel.threading, "Thread", no_thread)
        sc = get_preset("two-cell")
        chan = Channel(sc, build_network(sc))
        assert chan.fading.osc.shape == (1, 8, 1280)
        chan.gains()
        chan.advance()


def _no_child_left():
    """Whether this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestWorkerProcesses:
    """Tile passes posted to forked worker processes, one block ahead."""

    K, N, S = 41, 11, 19  # three tiles: [0, 1) here and [1, 3) on one worker, at 2 CPUs

    @pytest.fixture(autouse=True)
    def deadline(self):
        """Fail, rather than hang, a test whose wait for a worker never ends."""
        def expire(*_):
            raise TimeoutError("a worker process did not end")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def _forked(self, workers, monkeypatch, slots=3):
        """A state given one buffer pair of `slots` slots, whose workers, if
        any, were forked by a first posted pass."""
        monkeypatch.setattr(channel, "_cpu_count", lambda: workers)
        K, N, S = self.K, self.N, self.S
        out, scale = shared_array((slots, K, N, S)), shared_array((slots, K, N))
        scale[...] = np.random.default_rng(5).uniform(0.5, 2.0, scale.shape)
        st = FadingState(np.random.default_rng(4), K, N, S,
                         np.random.default_rng(K).uniform(0.0, 30.0, K), 2e9, 1e-3,
                         [(out, scale)])
        st.advance(post=(0, slots))
        st.advance()
        assert len(st._workers) == channel._worker_processes(len(st.osc))
        return st, out, scale

    @staticmethod
    def _hetnet(slots, **overrides):
        # 60 users x 11 BSs x 16 subchannels: three tiles of 220 (user, bs) pairs
        sc = Scenario(kind="hetnet", rings=0, femtos_per_macro=10, macro_users_per_cell=20,
                      femto_users_per_cell=4, subchannels=16, seed=5, slots=slots,
                      warmup_slots=0, **overrides)
        return sc, build_network(sc)

    def _trajectory(self, workers, monkeypatch):
        """The buffer pair after each posted pass, then the coefficients and
        gains of the state, read while a pass is posted and after more
        advances."""
        st, out, scale = self._forked(workers, monkeypatch)
        seq = [out.copy()]
        for slots in (3, 2, 3, 1):
            out[...] = np.nan
            st.advance(post=(0, slots))
            st.advance()
            seq.append(out[:slots].copy())
        st.advance(post=(0, 3))
        seq += [st.coefficients(), st.power_gains(scale[1])]  # finish the posted pass
        assert len(st._workers) == min(workers, len(st.osc)) - 1
        st.advance()  # takes the finished pass: no more rotations
        seq += [out.copy(), st.coefficients()]
        st.advance()
        seq += [st.coefficients(), st.power_gains(scale[1])]
        st.close()
        assert _no_child_left()
        return seq

    def test_outputs_equal_at_any_cpu_count(self, monkeypatch):
        serial = self._trajectory(1, monkeypatch)
        for workers in (2, 3):
            forked = self._trajectory(workers, monkeypatch)
            assert len(forked) == len(serial)
            for a, b in zip(forked, serial):
                assert np.array_equal(a, b)

    def test_other_pass_finishes_the_posted_one(self, monkeypatch):
        st, out, scale = self._forked(2, monkeypatch)
        ref, ref_out, _ = self._forked(1, monkeypatch)
        for state in (st, ref):
            state.advance(post=(0, 3))
        with pytest.raises(ValueError, match="without out"):  # the posted pass writes the pair
            st.advance(np.empty(out.shape), scale)
        h = st.coefficients()  # finishes the posted pass first
        assert len(st._workers) == 1 and st._posted.done
        ref.advance()
        assert np.array_equal(out, ref_out)
        assert np.array_equal(h, ref.coefficients())
        st.advance()  # takes the finished pass
        assert st._posted is None
        assert np.array_equal(st.coefficients(), ref.coefficients())
        for state in (st, ref):  # the workers take later posts
            state.advance(post=(0, 2))
            state.advance()
        assert np.array_equal(out[:2], ref_out[:2])
        st.close()
        assert _no_child_left()

    def test_worker_error_is_raised_here(self, monkeypatch):
        monkeypatch.setattr(channel, "_cpu_count", lambda: 2)
        K, N, S = self.K, self.N, self.S
        out, scale = shared_array((2, K, N, S)), shared_array((2, K, N))
        st = FadingState(np.random.default_rng(1), K, N, S, np.full(K, 20.0), 2e9, 1e-3,
                         [(out, scale)])
        tile_pairs, here = FadingState._tile_pairs, os.getpid()

        def failing(self, t):
            if t == 2 and os.getpid() != here:
                raise RuntimeError(f"tile 2 in process {os.getpid()}")
            return tile_pairs(self, t)

        monkeypatch.setattr(FadingState, "_tile_pairs", failing)  # the worker forks with it
        st.advance(post=(0, 2))  # tiles [1, 3) go to the worker
        with pytest.raises(RuntimeError, match="tile 2 in process"):
            st.advance()
        st.close()
        assert _no_child_left()

    def test_worker_leaves_when_its_pipe_closes(self, monkeypatch):
        st, _, _ = self._forked(2, monkeypatch)
        (pid, conn), = st._workers
        conn.close()
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        st._stop.detach()

    def test_collected_state_reaps_its_workers(self, monkeypatch):
        st, out, scale = self._forked(3, monkeypatch)
        assert len(st._workers) == 2
        st.advance(post=(0, 3))  # a pass in flight
        del st
        gc.collect()
        assert _no_child_left()

    def test_closed_state_goes_on_here(self, monkeypatch):
        st, out, scale = self._forked(2, monkeypatch)
        ref, ref_out, _ = self._forked(1, monkeypatch)
        for state in (st, ref):
            state.advance(post=(0, 3))
        st.close()  # finishes the posted pass, then ends the worker
        assert _no_child_left() and not st._workers
        for state in (st, ref):
            state.advance()  # st takes the finished pass
        assert np.array_equal(out, ref_out)
        for state in (st, ref):
            state.advance()
        assert np.array_equal(st.coefficients(), ref.coefficients())
        assert np.array_equal(st.power_gains(), ref.power_gains())
        for state in (st, ref):  # without workers a posted pass runs here, whole
            state.advance(post=(0, 3))
            state.advance()
        assert np.array_equal(out, ref_out) and not st._workers
        st.close()  # a second close does nothing

    def test_no_worker_for_one_cpu_or_tile(self, monkeypatch):
        st, out, scale = self._forked(1, monkeypatch)
        assert not st._workers and not st._forks and st.osc.flags.owndata
        monkeypatch.setattr(channel, "_cpu_count", lambda: 8)
        one = FadingState(np.random.default_rng(1), 3, 2, 4, np.full(3, 20.0), 2e9, 1e-3,
                          [(shared_array((1, 3, 2, 4)), shared_array((1, 3, 2)))])
        one.advance(post=(0, 1))
        one.advance()
        assert not one._workers and not one._forks and one.osc.flags.owndata

    def test_no_worker_without_fork(self, monkeypatch):
        monkeypatch.delattr(channel.os, "fork")
        st, _, _ = self._forked(2, monkeypatch)
        assert not st._workers

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_channel_gains_at_any_cpu_count(self, workers, monkeypatch):
        sc, net = self._hetnet(11, mobile_users=True, user_speed_kmh=60.0)
        monkeypatch.setattr(channel, "_cpu_count", lambda: 1)
        expected = [(large, gains) for large, gains in _slot_by_slot(sc, net, 11)]
        monkeypatch.setattr(channel, "_cpu_count", lambda: workers)
        chan = Channel(sc, net)
        assert chan.fading.osc.shape[0] == 3
        # two shared blocks only if it forks
        assert [b.flags.owndata for b in chan._blocks] == ([True] if workers == 1
                                                           else [False, False])
        for large, gains in expected:
            chan.advance()
            # the workers start once the first block is computed
            assert len(chan.fading._workers) == workers - 1
            assert np.array_equal(chan.large_scale, large)
            assert np.array_equal(chan.gains(), gains)
        chan.close()
        assert _no_child_left()

    def test_one_block_run_forks_nothing(self, monkeypatch):
        monkeypatch.setattr(channel, "_cpu_count", lambda: 2)
        sc, net = self._hetnet(BLOCK_SLOTS)
        chan = Channel(sc, net)
        for _ in range(BLOCK_SLOTS + 2):
            chan.advance()
            assert not chan.fading._workers
        # private blocks and oscillators, no shared_array
        assert [b.flags.owndata for b in chan._blocks] == [True]
        assert chan.fading.osc.flags.owndata and not chan.fading._forks

    SPLITS = {"all-on-workers": lambda n, *_: 0, "one-on-workers": lambda n, *_: n - 1,
              "moving": None}

    def _forced_split(self, name, monkeypatch):
        """Force `_split`; "moving" moves the boundary every post, both ways."""
        split = self.SPLITS[name]
        if split is None:
            posts = []

            def split(n_tiles, *_):
                posts.append(1)
                return [1, n_tiles - 1, 0][(len(posts) - 1) % 3]

        monkeypatch.setattr(channel, "_split", split)

    @pytest.mark.parametrize("split", list(SPLITS))
    def test_channel_gains_at_any_split(self, split, monkeypatch):
        # 11 slots: blocks of 3, 3, 3 and 2, then two slots past the run
        sc, net = self._hetnet(11, mobile_users=True, user_speed_kmh=60.0)
        monkeypatch.setattr(channel, "_cpu_count", lambda: 1)
        expected = list(_slot_by_slot(sc, net, 13))
        self._forced_split(split, monkeypatch)
        for workers in (1, 2, 3):
            monkeypatch.setattr(channel, "_cpu_count", lambda: workers)
            chan = Channel(sc, net)
            ref = FadingState(np.random.default_rng(sc.seed_streams()["fading"]), net.n_users,
                              net.n_bs, net.subchannel_count,
                              np.full(net.n_users, sc.user_speed_kmh / 3.6), sc.carrier_freq_hz,
                              sc.slot_duration_s)
            for _ in range(11):
                ref.advance()
            for slot, (large, gains) in enumerate(expected):
                chan.advance()
                assert np.array_equal(chan.large_scale, large)
                assert np.array_equal(chan.gains(), gains)
                if slot >= 10:  # the run's last slot and past it: nothing posted,
                    if slot >= 11:  # and one slot per advance
                        ref.advance()
                    assert chan.fading._posted is None
                    assert np.array_equal(chan.fading.coefficients(), ref.coefficients())
            chan.close()
            assert _no_child_left()

    def test_run_results_equal_at_any_split(self, monkeypatch):
        sc, _ = self._hetnet(11, algorithm="refim", mobile_users=True, user_speed_kmh=60.0)
        monkeypatch.setattr(channel, "_cpu_count", lambda: 1)
        serial = engine.run(sc, record=True)
        monkeypatch.setattr(channel, "_cpu_count", lambda: 2)
        for split in self.SPLITS:
            self._forced_split(split, monkeypatch)
            got = engine.run(sc, record=True)
            assert got.summary() == serial.summary()
            for name, value in vars(serial).items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(getattr(got, name), value), (split, name)
            assert _no_child_left()

    def test_no_child_after_engine_run(self, monkeypatch):
        monkeypatch.setattr(channel, "_cpu_count", lambda: 3)
        sc, _ = self._hetnet(12)
        forks = []
        fork = channel.fork

        def counted(*args):
            forks.append(1)
            return fork(*args)

        monkeypatch.setattr(channel, "fork", counted)
        assert engine.run(sc).constraint_violations == 0
        assert len(forks) == 2 and _no_child_left()

    def test_no_child_after_engine_run_raises(self, monkeypatch):
        monkeypatch.setattr(channel, "_cpu_count", lambda: 2)
        sc, _ = self._hetnet(12)
        served_rates = engine.scheduling.served_rates
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 8:
                raise RuntimeError("slot 7")
            return served_rates(*args)

        in_flight = []
        close = channel.FadingState.close

        def closing(self):
            in_flight.append(self._posted is not None)
            close(self)

        monkeypatch.setattr(engine.scheduling, "served_rates", failing)
        monkeypatch.setattr(channel.FadingState, "close", closing)
        with pytest.raises(RuntimeError, match="slot 7"):
            engine.run(sc)
        assert in_flight == [True]  # the block of slots 9-11 was posted
        assert _no_child_left()

    def test_states_close_in_any_order(self, monkeypatch):
        # a worker forked later holds no copy of an earlier worker's pipe
        first, _, _ = self._forked(2, monkeypatch)
        second, _, _ = self._forked(3, monkeypatch)
        assert len(first._workers) == 1 and len(second._workers) == 2
        first.close()  # would wait for the second's workers if they kept its pipe open
        assert len(second._workers) == 2
        second.close()
        assert _no_child_left()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_forks_and_posts_only_inside_fading_advance(self, cpus, monkeypatch):
        # every fork and every message to a worker happens inside
        # FadingState.advance, so a tracer that times it times them too
        monkeypatch.setattr(channel, "_cpu_count", lambda: cpus)
        sc, _ = self._hetnet(11, mobile_users=True, user_speed_kmh=60.0)
        depth = {"channel": 0, "fading": 0}
        calls, outside = [], []

        def nested(owner, name, key):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                depth[key] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[key] -= 1

            monkeypatch.setattr(owner, name, wrapper)

        def observed(owner, name, label, only_in_channel):
            fn = getattr(owner, name)

            def wrapper(*args, **kwargs):
                if not only_in_channel or depth["channel"]:
                    calls.append(label)
                    if not depth["fading"]:
                        outside.append(label)
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name, fn in vars(FadingState).items():
            if inspect.isfunction(fn) and name != "advance":
                observed(FadingState, name, name, only_in_channel=True)
        nested(channel.Channel, "advance", "channel")
        nested(FadingState, "advance", "fading")
        observed(channel, "fork", "fork", only_in_channel=False)
        observed(workers.Pipe, "send", "send", only_in_channel=False)
        parent, thread = os.getpid(), threading.Thread

        def no_thread_in_a_worker(*args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError("a fading worker started a thread")
            return thread(*args, **kwargs)

        monkeypatch.setattr(channel.threading, "Thread", no_thread_in_a_worker)
        assert engine.run(sc).constraint_violations == 0
        assert calls.count("fork") == cpus - 1 and "send" in calls
        assert outside == []
        assert _no_child_left()
