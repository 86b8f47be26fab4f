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


def _distance_law(model, cfg):
    """(a, b) of the loss a + b*log10(d[m]) of a path loss model."""
    if model == "macro":
        return cfg.macro_pathloss_a, cfg.macro_pathloss_b
    if model == "indoor":
        return cfg.indoor_pathloss_a, cfg.indoor_pathloss_b
    raise ValueError(f"unknown path loss model {model!r}")


def path_loss_db(model, distance_m, config=None):
    """Distance-law loss in dB; model is 'macro' (outdoor) or 'indoor'."""
    cfg = config or PropagationConfig()
    a, b = _distance_law(model, cfg)
    return a + b * np.log10(np.maximum(np.asarray(distance_m, dtype=float), cfg.min_distance_m))


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


def path_loss_matrix_db(network, config, positions=None, walls=None):
    """(K, N) path loss incl. wall penetration at the given user positions.

    `walls` is `wall_mask(network)`, which depends on home ids only, so a
    caller that moves the users can build it once.
    """
    a, b = np.array([_distance_law("indoor" if bs.tier == TIER_FEMTO else "macro", config)
                     for bs in network.base_stations]).T
    d = np.maximum(network.distances(positions), config.min_distance_m)
    pl = a + b * np.log10(d)
    np.add(pl, config.penetration_loss_db, out=pl,
           where=wall_mask(network) if walls is None else walls)
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


# Links per fading tile, at most. At 8 oscillators an oscillator tile and its
# step tile take 2 x 8 x 4096 x 16 B = 1 MB, so one tile is rotated, summed
# and squared while it stays in a 2 MB L2 cache.
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

    The K*N*S links are stored flattened in tiles of whole (user, bs)
    pairs, so that a tile's large-scale gains are one slice: as few tiles of
    at most TILE_LINKS links (or one pair) as hold them, balanced. `osc` and
    the cached step are (tiles, O, width) arrays, the last tile padded. The
    arrival angles are not stored: the generator state before they were
    drawn is kept, and the stream is advanced past them. A new `dt` re-draws
    them tile by tile from that state (chunked draws equal one big draw), so
    `rng`'s bit generator must support `advance`, as default_rng's PCG64
    does. `advance` rotates one tile, sums its O rows and squares the sum,
    for every slot asked of it, before it moves to the next tile. The rows
    are added in the order numpy's pairwise `sum(axis=-1)` uses, so the
    gains are bit-identical to rotating and summing one (K, N, S, O) array.
    """

    def __init__(self, rng, n_users, n_bs, n_subchannels, speeds_mps, carrier_freq_hz,
                 oscillators=8):
        if not 1 <= oscillators <= MAX_OSCILLATORS:
            raise ValueError(f"oscillators must be in [1, {MAX_OSCILLATORS}]")
        self._shape = (n_users, n_bs, n_subchannels)
        links = n_users * n_bs * n_subchannels
        n_tiles = max(1, -(-n_users * n_bs // max(1, TILE_LINKS // n_subchannels)))
        self._pairs_per_tile = max(1, -(-n_users * n_bs // n_tiles))
        self._doppler = 2.0 * np.pi * np.asarray(speeds_mps, dtype=float) \
            * carrier_freq_hz / SPEED_OF_LIGHT  # rad/s per user
        bitgen = rng.bit_generator
        self._angle_stream = (type(bitgen), bitgen.state)
        bitgen.advance(links * oscillators)
        self.osc = np.empty((n_tiles, oscillators, self._pairs_per_tile * n_subchannels),
                            dtype=complex)
        self.osc[-1] = 1.0  # padding links
        for t, osc in enumerate(self.osc):  # exp of a C-ordered tile, no tiled copy
            ph = self._tile_draw(rng, t).T
            np.exp(np.multiply(1j, ph, order="C"), out=osc[:, :ph.shape[1]])
        self.scale = 1.0 / np.sqrt(oscillators)
        self._step_dt = None
        self._step = None
        self._make_scratch()

    def _make_scratch(self):
        """Scratch for one tile's sum, with its views made once, not per tile."""
        width = self.osc.shape[2]
        self._acc = np.empty((4, width), dtype=complex)
        self._pair = np.empty((2, width), dtype=complex)
        h, squares = self._pair[0], self._pair[1].view(np.float64)
        S = self._shape[2]
        self._views = SimpleNamespace(
            acc_even=self._acc[0::2], acc_odd=self._acc[1::2], h=h, p1=self._pair[1],
            h_re_im=h.view(np.float64), squares=squares,
            re2=squares[0::2].reshape(-1, S), im2=squares[1::2].reshape(-1, S))

    def __getstate__(self):
        # Copied views would not alias the copied scratch, so neither is kept.
        return {k: v for k, v in vars(self).items() if k not in ("_acc", "_pair", "_views")}

    def __setstate__(self, state):
        vars(self).update(state)
        self._make_scratch()

    def _tile_pairs(self, t):
        """(first, end) (user, bs) pair of tile t, counted in C order."""
        p0 = t * self._pairs_per_tile
        return p0, min(p0 + self._pairs_per_tile, self._shape[0] * self._shape[1])

    def _pair_rows(self, out):
        """(K*N, S) view of a (K, N, S) array, one row per (user, bs) pair."""
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        return out.reshape(-1, self._shape[2])

    def _tile_draw(self, rng, t):
        """(links, O) uniform angles of tile t's links, the next draws of rng."""
        p0, p1 = self._tile_pairs(t)
        n = (p1 - p0) * self._shape[2]
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
        N, S = self._shape[1:]
        for t, step in enumerate(self._step):
            angles = self._tile_draw(rng, t)
            n = angles.shape[0]
            om[:, :n] = angles.T
            np.cos(om[:, :n], out=om[:, :n])
            p0, p1 = self._tile_pairs(t)
            om[:, :n] *= self._doppler[np.arange(p0, p1) // N].repeat(S)
            np.multiply(1j, om, out=step)  # exp(1j * om * dt) without temporaries
            np.multiply(step, dt_s, out=step)
            np.exp(step, out=step)
        self._step_dt = dt_s

    def advance(self, dt_s, out=None, scale=None):
        """Rotate the oscillators by dt_s; with `out`, len(out) times.

        `out` is a C-contiguous (slots, K, N, S) array and `scale` holds one
        (K, N) large-scale gain per slot: after the i-th rotation of a tile,
        scale[i] x |h|^2 of its links is written into out[i] while the tile
        is in cache.
        """
        if dt_s < 0:
            raise ValueError("dt_s must be >= 0")
        if dt_s != self._step_dt and dt_s != 0.0:
            self._build_step(dt_s)
        if out is not None:
            rows = [self._pair_rows(o) for o in out]
            scale_rows = [np.reshape(g, (-1, 1)) for g in scale]
        for t, osc in enumerate(self.osc):
            p0, p1 = self._tile_pairs(t)
            for i in range(1 if out is None else len(out)):
                if dt_s != 0.0:
                    osc *= self._step[t]
                if out is not None:
                    self._tile_gains(osc, rows[i][p0:p1], scale_rows[i][p0:p1])

    def _tile_gains(self, osc, out, scale):
        """out = |h|^2 (times scale, if not None) of one tile's links, as
        (pairs, S) rows."""
        v = self._views
        self._tile_coefficients(osc)
        np.square(v.h_re_im, v.squares)
        np.add(v.re2[:len(out)], v.im2[:len(out)], out)
        if scale is not None:
            np.multiply(out, scale, out)

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

    def coefficients(self):
        """(K, N, S) complex channel coefficients at the current time."""
        h = np.empty(self.osc[:, 0].shape, dtype=complex)
        for osc, h_tile in zip(self.osc, h):
            h_tile[:] = self._tile_coefficients(osc)
        # Only the last tile is padded, at its end: the links come first.
        return h.reshape(-1)[:np.prod(self._shape)].reshape(self._shape)

    def power_gains(self, scale=None, out=None):
        """(K, N, S) |h|^2 at the current time, times `scale` (a (K, N)
        large-scale gain, say) if given, written into `out` (C-contiguous)
        or into a fresh array."""
        out = np.empty(self._shape) if out is None else out
        rows = self._pair_rows(out)
        scale_rows = None if scale is None else np.reshape(scale, (-1, 1))
        for t, osc in enumerate(self.osc):
            p0, p1 = self._tile_pairs(t)
            self._tile_gains(osc, rows[p0:p1], None if scale is None else scale_rows[p0:p1])
        return out


def large_scale_linear(pl_db, shadow_db):
    """Linear gain 10^(-(PL+SH)/10) from loss and shadowing in dB."""
    return 10.0 ** (-(np.asarray(pl_db) + np.asarray(shadow_db)) / 10.0)


# Slots whose gains one pass over the fading state computes. Each slot more
# holds one more (K, N, S) array (4 MB at hetnet10) for a shrinking saving.
BLOCK_SLOTS = 3


class Channel:
    """A run's channel: shadowing, Jakes fading and optional user mobility,
    each drawn from its own child of the scenario seed.

    The gains are computed BLOCK_SLOTS slots at a time, never past
    `scenario.slots`: one `advance` in every block moves the users and
    rotates the fading through the whole block. So `mobility` may stand up to
    BLOCK_SLOTS - 1 slots ahead of the current slot; `large_scale` and
    `gains()` are the current slot's. `noise` is the (K, S) noise power in
    Watts.
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
        self._walls = wall_mask(network)
        self._update_large_scale()
        self.noise = np.full((K, S), noise_power_w(cfg, network.bandwidth_hz / S))
        self._dt = scenario.slot_duration_s
        self._slots_left = scenario.slots
        self._block = np.empty((BLOCK_SLOTS, K, N, S))
        self._block_scales = [self._large_scale]  # each block slot's large-scale gain
        self._slot = 0                            # the current slot's index in the block
        self._filled = False                      # no gains computed yet

    def _update_large_scale(self):
        positions = None if self.mobility is None else self.mobility.positions
        pl_db = path_loss_matrix_db(self.network, self.config, positions, self._walls)
        self._large_scale = large_scale_linear(pl_db, self.shadow_db)

    @property
    def large_scale(self):
        """(K, N) path loss and shadowing gain of the current slot."""
        return self._block_scales[self._slot]

    def advance(self):
        """Step one slot of `scenario.slot_duration_s`; at the end of a
        block, compute the next one."""
        self._slot += 1
        if self._slot < len(self._block_scales):
            return
        slots = min(BLOCK_SLOTS, max(1, self._slots_left))
        self._slots_left -= slots
        scales = []
        for _ in range(slots):  # path loss is recomputed only if the users moved
            if self.mobility is not None and self.mobility.advance(self._dt):
                self._update_large_scale()
            scales.append(self._large_scale)
        self.fading.advance(self._dt, out=self._block[:slots], scale=scales)
        self._block_scales, self._slot, self._filled = scales, 0, True

    def gains(self):
        """(K, N, S) linear gains of the current slot: a read-only view that
        the channel overwrites within BLOCK_SLOTS advances."""
        if not self._filled:  # before the first advance: the slot-0 gains
            self.fading.power_gains(self.large_scale, out=self._block[0])
            self._filled = True
        view = self._block[self._slot].view()
        view.flags.writeable = False
        return view
