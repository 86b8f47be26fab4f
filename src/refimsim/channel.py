"""Per-slot channel gains: path loss, shadowing, wall loss, Jakes fading.

Gains are linear power gains; the per-slot tensor is indexed
(user, bs, subchannel). Noise is linear Watts per (user, subchannel).
"""

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .topology import TIER_FEMTO, WaypointMobility

SPEED_OF_LIGHT = 299792458.0


@dataclass
class PropagationConfig:
    macro_pathloss_a: float = 16.62   # dB, outdoor model a + b*log10(d[m])
    macro_pathloss_b: float = 37.6
    indoor_pathloss_a: float = 37.0
    indoor_pathloss_b: float = 32.0
    penetration_loss_db: float = 10.0
    shadowing_sigma_db: dict = field(default_factory=lambda: {"macro": 8.0, "femto": 4.0})
    carrier_freq_hz: float = 2e9
    noise_psd_dbm_hz: float = -174.0
    noise_figure_db: float = 9.0
    sinr_gap: float = 1.0             # linear Gamma >= 1
    min_distance_m: float = 1.0
    oscillators: int = 8

    def __post_init__(self):
        if self.macro_pathloss_b <= 0 or self.indoor_pathloss_b <= 0:
            raise ValueError("path loss slope coefficients must be > 0")
        if self.sinr_gap < 1.0:
            raise ValueError("sinr_gap must be >= 1")


def path_loss_db(model, distance_m, config=None):
    """Distance-law loss in dB; model is 'macro' (outdoor) or 'indoor'."""
    cfg = config or PropagationConfig()
    d = np.maximum(np.asarray(distance_m, dtype=float), cfg.min_distance_m)
    if model == "macro":
        return cfg.macro_pathloss_a + cfg.macro_pathloss_b * np.log10(d)
    if model == "indoor":
        return cfg.indoor_pathloss_a + cfg.indoor_pathloss_b * np.log10(d)
    raise ValueError(f"unknown path loss model {model!r}")


def wall_mask(network):
    """(K, N) bool: links crossing one wall. None cross it inside one home or
    fully outdoors; every other link with an indoor end crosses one."""
    bs_home = [b.home_id if b.tier == TIER_FEMTO else None for b in network.base_stations]
    user_home = [u.home_id if u.indoor else None for u in network.users]
    bs_in = np.array([h is not None for h in bs_home], dtype=bool)
    user_in = np.array([h is not None for h in user_home], dtype=bool)
    bs_ids = np.array([-1 if h is None else h for h in bs_home])
    user_ids = np.array([-1 if h is None else h for h in user_home])
    same_home = bs_in[None, :] & user_in[:, None] & (user_ids[:, None] == bs_ids[None, :])
    return (bs_in[None, :] | user_in[:, None]) & ~same_home


def path_loss_matrix_db(network, config, positions=None):
    """(K, N) path loss incl. wall penetration at the given user positions."""
    d = network.distances(positions)
    pl = np.empty_like(d)
    for n, bs in enumerate(network.base_stations):
        model = "indoor" if bs.tier == TIER_FEMTO else "macro"
        pl[:, n] = path_loss_db(model, d[:, n], config)
    pl[wall_mask(network)] += config.penetration_loss_db
    return pl


def sample_shadowing(rng, sigma_db, size=None):
    """Zero-mean Gaussian shadowing in dB, drawn once per (user, BS) link."""
    if np.any(np.asarray(sigma_db) < 0):
        raise ValueError("sigma_db must be >= 0")
    return rng.normal(0.0, 1.0, size=size) * sigma_db


def shadowing_matrix_db(network, config, rng):
    """(K, N) shadowing; sigma depends on the BS tier of the link."""
    sigma = np.array([config.shadowing_sigma_db[b.tier] for b in network.base_stations])
    return sample_shadowing(rng, sigma, size=(network.n_users, network.n_bs))


def noise_power_w(config, subchannel_bw_hz):
    """Thermal noise + noise figure over one subchannel, in Watts."""
    dbm = config.noise_psd_dbm_hz + 10.0 * np.log10(subchannel_bw_hz) + config.noise_figure_db
    return 10.0 ** ((dbm - 30.0) / 10.0)


# Links per fading tile. At 8 oscillators an oscillator tile and its step tile
# take 2 x 8 x 4096 x 16 B = 1 MB, so one tile is rotated, summed and squared
# while it stays in a 2 MB L2 cache.
TILE_LINKS = 4096
# Up to 64 terms numpy's pairwise sum keeps four running accumulators; above
# that it splits recursively, an order FadingState does not reproduce.
MAX_OSCILLATORS = 64


class FadingState:
    """Jakes sum-of-sinusoids Rayleigh fading, one process per
    (user, bs, subchannel); E[|h|^2] = 1.

    Oscillator arrival angles and phases are randomized per link and
    subchannel, which decorrelates subchannels. Advancing rotates each
    oscillator by its Doppler-dependent step.

    The K*N*S links are stored flattened in tiles of `width` links: `osc`
    and the cached step are (tiles, O, width) arrays, padded to whole tiles.
    The arrival angles are not stored: the generator state before they were
    drawn is kept, and the stream is advanced past them. A new `dt` re-draws
    them tile by tile from that state (chunked draws equal one big draw), so
    `rng`'s bit generator must support `advance`, as default_rng's PCG64
    does. `advance` rotates one tile, sums its O rows and squares the sum
    before it moves to the next. The rows are added in the order numpy's
    pairwise `sum(axis=-1)` uses, so the gains are bit-identical to rotating
    and summing one (K, N, S, O) array.
    """

    def __init__(self, rng, n_users, n_bs, n_subchannels, speeds_mps, carrier_freq_hz,
                 oscillators=8):
        if not 1 <= oscillators <= MAX_OSCILLATORS:
            raise ValueError(f"oscillators must be in [1, {MAX_OSCILLATORS}]")
        self._shape = (n_users, n_bs, n_subchannels)
        self._n_links = links = n_users * n_bs * n_subchannels
        n_tiles = max(1, -(-links // TILE_LINKS))
        self._width = width = max(1, -(-links // n_tiles))
        self._doppler = 2.0 * np.pi * np.asarray(speeds_mps, dtype=float) \
            * carrier_freq_hz / SPEED_OF_LIGHT  # rad/s per user
        bitgen = rng.bit_generator
        self._angle_stream = (type(bitgen), bitgen.state)
        bitgen.advance(links * oscillators)
        self.osc = np.empty((n_tiles, oscillators, width), dtype=complex)
        self.osc[-1] = 1.0  # padding links
        for t, osc in enumerate(self.osc):  # exp of a C-ordered tile, no tiled copy
            ph = self._tile_draw(rng, t).T
            np.exp(np.multiply(1j, ph, order="C"), out=osc[:, :ph.shape[1]])
        self.scale = 1.0 / np.sqrt(oscillators)
        self._step_dt = None
        self._step = None
        self._gains = np.empty((n_tiles, width))
        # Scratch for one tile's sum, with its views made once, not per tile.
        self._acc = np.empty((4, width), dtype=complex)
        self._pair = np.empty((2, width), dtype=complex)
        h, squares = self._pair[0], self._pair[1].view(np.float64)
        self._views = SimpleNamespace(
            acc_even=self._acc[0::2], acc_odd=self._acc[1::2], h=h, p1=self._pair[1],
            h_re_im=h.view(np.float64), squares=squares,
            re2=squares[0::2], im2=squares[1::2])

    def _tile_draw(self, rng, t):
        """(links, O) uniform angles of tile t's links, the next draws of rng."""
        start = t * self._width
        n = min(self._width, self._n_links - start)
        return rng.uniform(0.0, 2.0 * np.pi, size=(n, self.osc.shape[1]))

    def _build_step(self, dt_s):
        """step = exp(1j * omega * dt) per oscillator, omega = Doppler x cos(angle),
        re-drawing the angles tile by tile from the saved generator state."""
        if self._step is None:
            self._step = np.empty_like(self.osc)
        kind, state = self._angle_stream
        bitgen = kind()
        bitgen.state = state
        rng = np.random.Generator(bitgen)
        om = np.zeros(self.osc.shape[1:])  # padding links keep omega 0, so step 1
        per_user = self._shape[1] * self._shape[2]
        for t, step in enumerate(self._step):
            angles = self._tile_draw(rng, t)
            n = angles.shape[0]
            om[:, :n] = angles.T
            np.cos(om[:, :n], out=om[:, :n])
            om[:, :n] *= self._doppler[np.arange(t * self._width, t * self._width + n) // per_user]
            np.multiply(1j, om, out=step)  # exp(1j * om * dt) without temporaries
            np.multiply(step, dt_s, out=step)
            np.exp(step, out=step)
        self._step_dt = dt_s

    def advance(self, dt_s):
        if dt_s < 0:
            raise ValueError("dt_s must be >= 0")
        if dt_s == 0.0:
            return
        if dt_s != self._step_dt:
            self._build_step(dt_s)
        for osc, step, gains in zip(self.osc, self._step, self._gains):
            osc *= step
            self._tile_gains(osc, gains)

    def _tile_gains(self, osc, gains):
        """gains = |h|^2 of one tile of oscillators."""
        v = self._views
        self._tile_coefficients(osc)
        np.square(v.h_re_im, v.squares)
        np.add(v.re2, v.im2, gains)

    def _tile_coefficients(self, osc):
        """Scale x the sum of a tile's rows, added in numpy's sum order.

        The result is a view of scratch that the next call overwrites.
        """
        v = self._views
        n = osc.shape[0]
        if n < 4:  # numpy adds fewer than four terms left to right
            np.copyto(v.h, osc[0])
            rest = 1
        else:  # accumulator j sums rows o = j (mod 4), then (a0 + a1) + (a2 + a3)
            rest = n - n % 4
            if rest == 4:
                np.add(osc[0:4:2], osc[1:4:2], self._pair)
            else:
                np.add(osc[0:4], osc[4:8], self._acc)
                for o in range(8, rest, 4):
                    self._acc += osc[o:o + 4]
                np.add(v.acc_even, v.acc_odd, self._pair)
            np.add(v.h, v.p1, v.h)
        for o in range(rest, n):
            v.h += osc[o]
        # Scaling re and im apart equals numpy's complex * real: its cross
        # terms are exact zeros, which change at most the sign of a zero.
        v.h_re_im *= self.scale
        return v.h

    def _links(self, tiled):
        """(K, N, S) view of the links in a (tiles, width) array."""
        return tiled.reshape(-1)[:self._n_links].reshape(self._shape)

    def coefficients(self):
        """(K, N, S) complex channel coefficients at the current time."""
        h = np.empty(self._gains.shape, dtype=complex)
        for osc, h_tile in zip(self.osc, h):
            h_tile[:] = self._tile_coefficients(osc)
        return self._links(h)

    def power_gains(self, scale=1.0, out=None):
        """(K, N, S) |h|^2 at the current time, times `scale` (a (K, N)
        large-scale gain, say), written into `out` or into a fresh array."""
        if self._step is None:  # advance has not filled the gains yet
            for osc, gains in zip(self.osc, self._gains):
                self._tile_gains(osc, gains)
        return np.multiply(self._links(self._gains), np.asarray(scale)[..., None], out=out)


def large_scale_linear(pl_db, shadow_db):
    """Linear gain 10^(-(PL+SH)/10) from loss and shadowing in dB."""
    return 10.0 ** (-(np.asarray(pl_db) + np.asarray(shadow_db)) / 10.0)


class Channel:
    """A run's channel: shadowing, Jakes fading and optional user mobility,
    each drawn from its own child of the scenario seed.

    `large_scale` is the (K, N) path loss and shadowing gain at the current
    user positions; `noise` is the (K, S) noise power in Watts.
    """

    def __init__(self, scenario, network):
        rng = {name: np.random.default_rng(seed)
               for name, seed in scenario.seed_streams().items()}
        self.network = network
        self.config = cfg = scenario.propagation()
        K, N, S = network.n_users, network.n_bs, network.subchannel_count
        speeds = np.full(K, scenario.user_speed_kmh / 3.6)
        self.shadow_db = shadowing_matrix_db(network, cfg, rng["shadowing"])
        self.fading = FadingState(rng["fading"], K, N, S, speeds,
                                  cfg.carrier_freq_hz, cfg.oscillators)
        self.mobility = None
        if scenario.mobile_users:
            self.mobility = WaypointMobility(network, speeds, rng["mobility"])
        self._update_large_scale()
        self.noise = np.full((K, S), noise_power_w(cfg, network.bandwidth_hz / S))

    def _update_large_scale(self):
        positions = None if self.mobility is None else self.mobility.positions
        pl_db = path_loss_matrix_db(self.network, self.config, positions)
        self.large_scale = large_scale_linear(pl_db, self.shadow_db)

    def advance(self, dt_s):
        """Move the users (path loss is recomputed only if they moved), then
        advance the fading."""
        if self.mobility is not None and self.mobility.advance(dt_s):
            self._update_large_scale()
        self.fading.advance(dt_s)

    def gains(self, out=None):
        """(K, N, S) linear gains at the current time, written into `out`
        (a caller-owned buffer reused across slots) or into a fresh array."""
        return self.fading.power_gains(self.large_scale, out)
