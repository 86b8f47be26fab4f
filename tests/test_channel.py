import numpy as np
import pytest
from scipy.special import j0

from refimsim.channel import (
    MAX_OSCILLATORS, TILE_LINKS, Channel, FadingState, PropagationConfig,
    large_scale_linear, noise_power_w, path_loss_db, path_loss_matrix_db,
    sample_shadowing, shadowing_matrix_db, wall_mask,
)
from refimsim.engine import Scenario, build_network
from refimsim.topology import BaseStation, Network, User, build_hex_grid, place_users


class TestPathLoss:
    def test_macro_spot_value(self):
        assert path_loss_db("macro", 100.0) == pytest.approx(91.82, abs=0.01)

    def test_indoor_spot_value(self):
        assert path_loss_db("indoor", 10.0) == pytest.approx(69.0, abs=0.01)

    def test_wall_adds_10db(self):
        cfg = PropagationConfig()
        bs = BaseStation(id=0, tier="macro", position=(0.0, 0.0), max_power_w=20.0, mask_w=20.0)
        indoor_user = User(id=0, position=(100.0, 0.0), serving_bs=0, indoor=True, home_id=7)
        net = Network(base_stations=[bs], users=[indoor_user], neighbor_sets=[[]],
                      subchannel_count=1, bandwidth_hz=1e7)
        pl = path_loss_matrix_db(net, cfg)
        assert pl[0, 0] == pytest.approx(101.82, abs=0.01)

    def test_wall_rules(self):
        macro = BaseStation(id=0, tier="macro", position=(0, 0), max_power_w=1, mask_w=1)
        femto = BaseStation(id=1, tier="femto", position=(5, 0), max_power_w=1, mask_w=1,
                            home_id=3, home_center=(5, 0))
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


class TestShadowing:
    def test_zero_sigma_degenerate(self):
        rng = np.random.default_rng(0)
        assert np.all(sample_shadowing(rng, 0.0, size=100) == 0.0)

    def test_sample_mean_matches_gaussian(self):
        # Monte-Carlo check against the zero-mean Gaussian moments
        rng = np.random.default_rng(1)
        draws = sample_shadowing(rng, 8.0, size=100_000)
        assert abs(draws.mean()) < 0.1
        assert draws.std() == pytest.approx(8.0, rel=0.02)

    def test_same_seed_identical(self):
        a = sample_shadowing(np.random.default_rng(5), 8.0, size=10)
        b = sample_shadowing(np.random.default_rng(5), 8.0, size=10)
        assert np.array_equal(a, b)

    def test_per_tier_sigma(self):
        net = build_hex_grid(0, 1000.0)
        net = place_users(net, {"macro": 200}, rng_seed=0)
        cfg = PropagationConfig()
        sh = shadowing_matrix_db(net, cfg, np.random.default_rng(2))
        assert sh.shape == (200, 1)
        assert sh.std() == pytest.approx(8.0, rel=0.15)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            sample_shadowing(np.random.default_rng(0), -1.0)


class TestNoise:
    def test_thermal_noise_derived_value(self):
        # independent dB-arithmetic oracle: -174 dBm/Hz over 625 kHz + 9 dB NF
        cfg = PropagationConfig()
        expected_w = 10.0 ** ((-174.0 + 10.0 * np.log10(625e3) + 9.0 - 30.0) / 10.0)
        assert noise_power_w(cfg, 625e3) == pytest.approx(expected_w, rel=1e-12)
        assert expected_w == pytest.approx(1.977e-14, rel=1e-3)


class TestJakesFading:
    def _single_link(self, speed_mps, seed=0, subchannels=1):
        rng = np.random.default_rng(seed)
        return FadingState(rng, 1, 1, subchannels, np.array([speed_mps]), 2e9)

    def test_zero_speed_constant(self):
        st = self._single_link(0.0)
        h0 = st.coefficients().copy()
        for _ in range(5):
            st.advance(1e-3)
            h = st.coefficients()
        assert np.allclose(h, h0)

    def test_zero_dt_leaves_state_unchanged(self):
        st = self._single_link(3 / 3.6)
        h0 = st.coefficients().copy()
        st.advance(0.0)
        assert np.allclose(st.coefficients(), h0)

    def test_unit_mean_power(self):
        # long-horizon Monte Carlo: mean |h|^2 within 3% of 1
        st = self._single_link(3 / 3.6, seed=3)
        total, count = 0.0, 0
        for _ in range(100_000):
            st.advance(20e-3)  # several samples per coherence time
            total += float(st.power_gains()[0, 0, 0])
            count += 1
        assert abs(total / count - 1.0) < 0.03

    def test_lag1_autocorrelation_matches_bessel(self):
        # ensemble of independent links, lag-1 ms at 3 km/h, 2 GHz
        rng = np.random.default_rng(7)
        n_links = 400
        st = FadingState(rng, n_links, 1, 1, np.full(n_links, 3 / 3.6), 2e9)
        dt = 1e-3
        f_d = (3 / 3.6) * 2e9 / 299792458.0
        prev = st.coefficients().ravel().copy()
        num, den = 0.0, 0.0
        for _ in range(400):
            st.advance(dt)
            cur = st.coefficients().ravel()
            num += float(np.real(np.vdot(prev, cur)))
            den += float(np.vdot(prev, prev).real)
            prev = cur.copy()
        rho = num / den
        assert rho == pytest.approx(j0(2 * np.pi * f_d * dt), abs=0.02)

    def test_subchannels_decorrelated(self):
        rng = np.random.default_rng(11)
        st = FadingState(rng, 200, 1, 2, np.full(200, 3 / 3.6), 2e9)
        h = st.coefficients()
        a, b = h[:, 0, 0], h[:, 0, 1]
        rho = np.abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))
        assert rho < 0.15

    def test_determinism(self):
        a = self._single_link(3 / 3.6, seed=9)
        b = self._single_link(3 / 3.6, seed=9)
        a.advance(1e-3)
        b.advance(1e-3)
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


class TestTiledFading:
    # (K, N, S): 24 links fit in one tile; 8569 links need three tiles of
    # 2857 with two padding links in the last.
    SIZES = [(3, 2, 4), (41, 11, 19)]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("oscillators", [1, 3, 4, 5, 8, 12])
    def test_bit_identical_to_untiled(self, size, oscillators):
        K, N, S = size
        speeds = np.random.default_rng(K).uniform(0.0, 30.0, K)
        ref = _UntiledFading(4, K, N, S, speeds, oscillators)
        st = FadingState(np.random.default_rng(4), K, N, S, speeds, 2e9, oscillators)
        n_tiles, _, width = st.osc.shape
        if K * N * S < TILE_LINKS:
            assert n_tiles == 1
        else:
            assert n_tiles > 1 and n_tiles * width > K * N * S
        assert np.array_equal(st.coefficients(), ref.coefficients())
        assert np.array_equal(st.power_gains(), ref.power_gains())
        for slot in range(20):
            dt = 1e-3 if slot < 10 else 2.5e-3
            ref.advance(dt)
            st.advance(dt)
            assert np.array_equal(st.coefficients(), ref.coefficients())
            assert np.array_equal(st.power_gains(), ref.power_gains())

    def test_zero_dt_is_a_no_op(self):
        st = FadingState(np.random.default_rng(1), 5, 3, 4, np.full(5, 20.0), 2e9)
        st.advance(1e-3)
        h0, g0 = st.coefficients(), st.power_gains()
        st.advance(0.0)
        assert np.array_equal(st.coefficients(), h0)
        assert np.array_equal(st.power_gains(), g0)

    def test_negative_dt_rejected(self):
        st = FadingState(np.random.default_rng(1), 2, 2, 2, np.full(2, 1.0), 2e9)
        with pytest.raises(ValueError):
            st.advance(-1e-3)

    @pytest.mark.parametrize("oscillators", [0, MAX_OSCILLATORS + 1])
    def test_oscillator_count_out_of_range_rejected(self, oscillators):
        with pytest.raises(ValueError):
            FadingState(np.random.default_rng(1), 2, 2, 2, np.full(2, 1.0), 2e9, oscillators)

    def test_returned_arrays_do_not_alias_state(self):
        st = FadingState(np.random.default_rng(1), 5, 3, 4, np.full(5, 20.0), 2e9)
        st.advance(1e-3)
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
        cfg = sc.propagation()
        _, sh_seed, fad_seed, _, _, _ = np.random.SeedSequence(sc.seed).spawn(6)
        shadow = shadowing_matrix_db(net, cfg, np.random.default_rng(sh_seed))
        fading = FadingState(np.random.default_rng(fad_seed), 3, 1, 4,
                             np.full(3, sc.user_speed_kmh / 3.6), cfg.carrier_freq_hz)
        expected = large_scale_linear(path_loss_matrix_db(net, cfg), shadow)[:, :, None] \
            * fading.power_gains()
        gains = chan.gains()
        assert np.array_equal(gains, expected)
        assert np.all(gains > 0)
        assert np.all(chan.noise == noise_power_w(cfg, sc.bandwidth_hz / 4))

    def test_pure_function_of_inputs(self):
        _, _, chan = self._setup()
        a = chan.gains()
        b = chan.gains()
        assert np.array_equal(a, b)
        a[...] = 0.0  # a fresh array: writing it leaves the channel alone
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
            a.advance(sc.slot_duration_s)
            b.advance(sc.slot_duration_s)
            assert np.array_equal(a.gains(), b.gains())

    def test_gains_compose_large_scale_and_fading(self):
        sc, net = self._hetnet()
        chan = Channel(sc, net)
        pl = path_loss_matrix_db(net, chan.config)
        expected = large_scale_linear(pl, chan.shadow_db)[:, :, None] \
            * chan.fading.power_gains()
        assert np.array_equal(chan.gains(), expected)

    def test_mobility_moves_large_scale(self):
        sc, net = self._hetnet(mobile_users=True, user_speed_kmh=360.0)
        chan = Channel(sc, net)
        before = chan.large_scale.copy()
        chan.advance(0.1)
        pl = path_loss_matrix_db(net, chan.config, chan.mobility.positions)
        assert np.array_equal(chan.large_scale, large_scale_linear(pl, chan.shadow_db))
        assert not np.array_equal(chan.large_scale, before)


class TestConfigValidation:
    def test_gap_below_one_rejected(self):
        with pytest.raises(ValueError):
            PropagationConfig(sinr_gap=0.5)

    def test_bad_slope_rejected(self):
        with pytest.raises(ValueError):
            PropagationConfig(macro_pathloss_b=0.0)
