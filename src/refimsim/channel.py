"""Per-slot channel gains: path loss, shadowing, wall loss, Jakes fading.

Gains are linear power gains; the per-slot tensor is indexed
(user, bs, subchannel). Noise is linear Watts per (user, subchannel).
"""

import os
import threading
import time
import weakref
from types import SimpleNamespace

import numpy as np

from .topology import TIER_FEMTO, WaypointMobility
from .workers import fork, release, shared_array, stop

SPEED_OF_LIGHT = 299792458.0
# Distance law a + b*log10(d[m]) in dB of each path loss model: outdoor
# macro links and indoor femto links.
PATHLOSS_LAWS = {"macro": (16.62, 37.6), "indoor": (37.0, 32.0)}
WALL_LOSS_DB = 10.0        # one wall between an indoor end and the other end
NOISE_PSD_DBM_HZ = -174.0  # thermal noise density
MIN_DISTANCE_M = 1.0       # shorter distances are clamped to this
OSCILLATORS = 8            # Jakes oscillators per (user, bs, subchannel) link


def _distance_law(model):
    """(a, b) of the loss a + b*log10(d[m]) of a path loss model."""
    if model not in PATHLOSS_LAWS:
        raise ValueError(f"unknown path loss model {model!r}")
    return PATHLOSS_LAWS[model]


def path_loss_db(model, distance_m):
    """Distance-law loss in dB; model is 'macro' (outdoor) or 'indoor'."""
    a, b = _distance_law(model)
    return a + b * np.log10(np.maximum(np.asarray(distance_m, dtype=float), MIN_DISTANCE_M))


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


def distance_laws(network):
    """(a, b): (N,) arrays of each BS's distance law, indoor for femto BSs."""
    return np.array([_distance_law("indoor" if bs.tier == TIER_FEMTO else "macro")
                     for bs in network.base_stations]).T


def path_loss_matrix_db(network, positions=None, walls=None, laws=None):
    """(K, N) path loss incl. wall penetration at the given user positions.

    `walls` is `wall_mask(network)` and `laws` is `distance_laws(network)`.
    They depend on home ids and tiers only, so a caller that moves the users
    can build them once.
    """
    a, b = distance_laws(network) if laws is None else laws
    d = np.maximum(network.distances(positions), MIN_DISTANCE_M)
    pl = a + b * np.log10(d)
    np.add(pl, WALL_LOSS_DB, out=pl,
           where=wall_mask(network) if walls is None else walls)
    return pl


def shadowing_matrix_db(network, scenario, rng):
    """(K, N) zero-mean Gaussian shadowing in dB, drawn once per (user, BS)
    link; sigma is the scenario's one for the BS tier of the link."""
    sigma_db = {"macro": scenario.shadowing_sigma_macro_db,
                "femto": scenario.shadowing_sigma_femto_db}
    sigma = np.array([sigma_db[b.tier] for b in network.base_stations])
    if np.any(sigma < 0):
        raise ValueError("shadowing sigma must be >= 0")
    return rng.normal(0.0, 1.0, size=(network.n_users, network.n_bs)) * sigma


def noise_power_w(noise_figure_db, subchannel_bw_hz):
    """Thermal noise + noise figure over one subchannel, in Watts."""
    dbm = NOISE_PSD_DBM_HZ + 10.0 * np.log10(subchannel_bw_hz) + noise_figure_db
    return 10.0 ** ((dbm - 30.0) / 10.0)


# Links per fading tile, at most. At OSCILLATORS = 8 an oscillator tile and its
# step tile take 2 x 8 x 4096 x 16 B = 1 MB, so one tile is rotated, summed
# and squared while it stays in a 2 MB L2 cache. Each thread or process works
# on its own run of tiles with its own scratch, so its tile stays in its own
# core's L2. A run that draws angles or phases seeks a copy of the saved
# generator state to its first tile with `bit_generator.advance`, which
# counts draws: PCG64 takes one per double.
TILE_LINKS = 4096


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _tiles(n_pairs, n_subchannels):
    """(tiles, pairs per tile) of n_pairs (user, bs) pairs: as few tiles of at
    most TILE_LINKS links (or one pair) as hold them, balanced."""
    n_tiles = max(1, -(-n_pairs // max(1, TILE_LINKS // n_subchannels)))
    return n_tiles, max(1, -(-n_pairs // n_tiles))


def _worker_processes(n_tiles):
    """Worker processes a fading state of n_tiles tiles forks: one per CPU
    but this process's, at most one per tile, and none without os.fork."""
    return min(_cpu_count() - 1, n_tiles) if hasattr(os, "fork") else 0


def _split(n_tiles, workers, own_s, worker_s, step_s):
    """m: this process passes tiles [0, m) of a posted pass, the workers
    share [m, n_tiles) evenly.

    own_s and worker_s are one tile's pass time here and on a worker, None
    before they are measured; step_s is the time this process spends
    between posting the pass and passing its own tiles. m balances the two
    sides, (n_tiles - m) worker_s / workers = step_s + m own_s, so that the
    workers are done when this process wants their tiles; the even split
    before anything is measured. The workers keep at least one tile.
    """
    if own_s is None or worker_s is None:
        m = n_tiles // (workers + 1)
    else:
        share = worker_s / workers
        m = round((n_tiles * share - step_s) / (own_s + share))
    return min(n_tiles - 1, max(0, m))


class FadingState:
    """Jakes sum-of-sinusoids Rayleigh fading, one process per
    (user, bs, subchannel); E[|h|^2] = 1, sampled every `dt_s` seconds.

    Oscillator arrival angles and phases are randomized per link and
    subchannel, which decorrelates subchannels. Each `advance` rotates each
    oscillator by its Doppler-dependent step, exp(1j omega dt_s).

    The K*N*S links are stored flattened in tiles of whole (user, bs)
    pairs, so that a tile's large-scale gains are one slice: as few tiles of
    at most TILE_LINKS links (or one pair) as hold them, balanced. `osc` and
    the step are (tiles, O, width) arrays, O = OSCILLATORS, the last tile
    padded. No angle or phase is stored: one set-up pass draws both tile by
    tile, each run of tiles from a copy of the generator state saved before
    them (chunked draws equal one big draw), so `rng`'s bit generator must
    support `advance`, as default_rng's PCG64 does; `rng` ends past both, as
    if it had drawn them. `advance` rotates one tile, sums its O rows and
    squares the sum, for every slot asked of it, before it moves to the next
    tile. The rows are added in the order numpy's pairwise `sum(axis=-1)`
    uses, so the gains are bit-identical to rotating and summing one
    (K, N, S, O) array.

    Every pass over the tiles in this process is shared among min(CPUs,
    tiles) threads, one contiguous run of tiles each, the calling thread
    taking the first. Each writes only its own tiles and sums into its own
    scratch, and a run that draws starts from its own copy of the saved
    generator state, advanced to its first tile's draws. So the results are
    bit-identical for any number of threads. The threads call only private
    methods, and none outlives the call that started it.

    Short calls, such as a slot's rotations, keep taking the interpreter
    lock back, so threads barely overlap on them. So a state given buffer
    `pairs`, (out, scale) pairs in `shared_array` memory, keeps `osc` in
    MAP_SHARED memory too, if this process would fork any worker, and an
    `advance` with `post` hands the next pass to min(CPUs - 1, tiles) worker
    processes (one for a one-tile state), forked by the first post: they
    rotate tiles [m, n) into a buffer pair while this process does other
    work, and the next `advance` passes this process's tiles [0, m) and
    waits for theirs. m is chosen per post by `_split` from the pass times
    measured on both sides and the time this process spent between the
    last post and its own pass, so that both sides finish together. Each
    tile is still rotated once per slot, in order, by one process, and
    which one changes no arithmetic: the results are bit-identical for any
    split as well as any CPU count. Each process keeps only the oscillators
    of its own tiles mapped: a post releases here only the tiles that this
    process held and now hands on. The step stays private, and the workers
    read the pages they forked with.
    `coefficients`, `power_gains` and `close` first finish a posted pass
    (it stays the next `advance`'s), then run here, while the workers wait;
    `close` ends them.
    """

    def __init__(self, rng, n_users, n_bs, n_subchannels, speeds_mps, carrier_freq_hz, dt_s,
                 pairs=()):
        if not 0.0 < dt_s < np.inf:
            raise ValueError("dt_s must be finite and > 0")
        self._shape = (n_users, n_bs, n_subchannels)
        links = n_users * n_bs * n_subchannels
        n_tiles, self._pairs_per_tile = _tiles(n_users * n_bs, n_subchannels)
        doppler = 2.0 * np.pi * np.asarray(speeds_mps, dtype=float) \
            * carrier_freq_hz / SPEED_OF_LIGHT  # rad/s per user
        self._buffers = tuple(pairs)  # the (out, scale) pairs a posted pass writes and reads
        self._forks = _worker_processes(n_tiles) if self._buffers else 0  # 0 once closed
        self.osc = (shared_array if self._forks else np.empty)(
            (n_tiles, OSCILLATORS, self._pairs_per_tile * n_subchannels), complex)
        self.osc[-1] = 1.0  # padding links
        self._step = np.empty_like(self.osc)
        self.scale = 1.0 / np.sqrt(OSCILLATORS)
        self._scratch = []  # one tile's draws and sums per worker, made on first use
        self._workers = []   # (pid, pipe) per worker process
        self._posted = None  # the pass the workers run, until `advance` takes it
        self._mapped = 0     # tiles [0, _mapped) of osc are mapped in this process
        # seconds per tile-slot here and on a worker, and per post-to-pass wait
        self._costs = SimpleNamespace(own=None, worker=None, step=0.0)
        self._stop = None    # ends the workers, also when the state is collected
        bitgen = rng.bit_generator
        angles = (type(bitgen), bitgen.state)
        bitgen.advance(links * OSCILLATORS)
        phases = (type(bitgen), bitgen.state)
        self._share_tiles(self._set_up, angles, phases, doppler, dt_s)
        bitgen.advance(links * OSCILLATORS)  # past the phases, as if drawn here

    def _worker_pass(self, message):
        """In a worker: pass tiles [first, end) of a posted pass, on the
        worker's copy of scratch 0; return the seconds it took."""
        index, slots, first, end = message
        start = time.perf_counter()
        release(self.osc[:first])
        release(self.osc[end:])
        out, scale = self._buffers[index]
        self._advance_tiles(first, end, self._scratch[0], *self._rows(out[:slots], scale[:slots]))
        return time.perf_counter() - start

    def _post(self, index, slots):
        """Start the pass of `slots` steps into the leading slots of buffer
        pair `index` on the workers, forked first if none run yet. A worker
        leaves with os._exit when its pipe closes (`close`, or this process
        ending) and raises its errors here. Without workers, every tile
        waits for the `advance` that takes the pass."""
        if self._forks and not self._workers:
            forked = []
            try:
                for _ in range(self._forks):
                    forked.append(fork(self._worker_pass))
            except BaseException:
                stop(forked)
                raise
            self._workers, self._stop = forked, weakref.finalize(self, stop, forked)
        n_tiles = m = len(self.osc)
        if self._workers:
            workers, c = len(self._workers), self._costs
            m = _split(n_tiles, workers, None if c.own is None else c.own * slots,
                       None if c.worker is None else c.worker * slots, c.step)
            if m < self._mapped:  # tiles [m, _mapped) leave this process
                release(self.osc[m:self._mapped])
            self._mapped = m
            try:
                for w, (_, pipe) in enumerate(self._workers):
                    pipe.send((index, slots, m + (n_tiles - m) * w // workers,
                               m + (n_tiles - m) * (w + 1) // workers))
            except OSError:
                self._worker_exited()
        self._posted = SimpleNamespace(index=index, slots=slots, m=m, done=False,
                                       at=time.perf_counter())

    def _finish(self):
        """Pass this process's tiles of the posted pass, if any is left to
        finish, then wait for the workers' and update the measured costs."""
        posted, c = self._posted, self._costs
        if posted is None or posted.done:
            return
        posted.done = True
        start = time.perf_counter()
        c.step = start - posted.at
        error = None
        if posted.m:
            out, scale = self._buffers[posted.index]
            try:
                self._advance_tiles(0, posted.m, self._scratch[0],
                                    *self._rows(out[:posted.slots], scale[:posted.slots]))
            except BaseException as exc:  # raised once every worker has replied
                error = exc
            c.own = (time.perf_counter() - start) / (posted.slots * posted.m)
        tile_slots = posted.slots * (len(self.osc) - posted.m)
        busy = 0.0
        for _, pipe in self._workers:
            try:
                reply = pipe.recv()
            except EOFError:
                self._worker_exited()
            if isinstance(reply, BaseException):
                error = reply if error is None else error
            else:
                busy += reply
        if error is not None:
            raise error
        if tile_slots:
            c.worker = busy / tile_slots

    def _worker_exited(self):
        self.close()
        raise RuntimeError("a fading worker process exited") from None

    def close(self):
        """Finish a posted pass, then end the worker processes, if any, for
        good: later passes run in this process."""
        try:
            self._finish()
        finally:
            self._forks = 0
            if self._workers:
                self._stop()
                self._workers = []

    def _share_tiles(self, work, *args):
        """Run work(first, end, scratch, *args) over contiguous runs of tiles,
        one per worker: the first on the calling thread, each other on a
        thread of its own, all joined before this returns. Then re-raises
        the error of the first run, in tile order, that failed. Every tile
        is mapped in this process afterwards."""
        n_tiles = self._mapped = len(self.osc)
        workers = min(_cpu_count(), n_tiles)
        while len(self._scratch) < workers:
            self._scratch.append(self._new_scratch())
        errors = [None] * workers

        def run(w):
            try:
                work(n_tiles * w // workers, n_tiles * (w + 1) // workers,
                     self._scratch[w], *args)
            except BaseException as exc:  # re-raised on the calling thread
                errors[w] = exc

        started = []
        try:
            for w in range(1, workers):
                thread = threading.Thread(target=run, args=(w,))
                thread.start()
                started.append(thread)
            run(0)
        finally:
            for thread in started:
                thread.join()
        for exc in errors:
            if exc is not None:
                raise exc

    def _new_scratch(self):
        """One worker's scratch: a tile's draws and its sum, with the sum's
        views made once, not per tile."""
        _, O, width = self.osc.shape
        acc = np.empty((4, width), dtype=complex)
        pair = np.empty((2, width), dtype=complex)
        h, squares = pair[0], pair[1].view(np.float64)
        S = self._shape[2]
        return SimpleNamespace(
            draws=np.empty((width, O)), acc=acc, pair=pair, acc_even=acc[0::2],
            acc_odd=acc[1::2], h=h, p1=pair[1], h_re_im=h.view(np.float64), squares=squares,
            re2=squares[0::2].reshape(-1, S), im2=squares[1::2].reshape(-1, S))

    def _tile_pairs(self, t):
        """(first, end) (user, bs) pair of tile t, counted in C order."""
        p0 = t * self._pairs_per_tile
        return p0, min(p0 + self._pairs_per_tile, self._shape[0] * self._shape[1])

    def _pair_rows(self, out):
        """(K*N, S) view of a (K, N, S) array, one row per (user, bs) pair."""
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        return out.reshape(-1, self._shape[2])

    def _stream_at(self, stream, t):
        """Generator at a saved (kind, state), advanced to tile t's first draw."""
        kind, state = stream
        bitgen = kind()
        bitgen.state = state
        bitgen.advance(self._tile_pairs(t)[0] * self._shape[2] * self.osc.shape[1])
        return np.random.Generator(bitgen)

    def _tile_draw(self, rng, t, scratch):
        """(links, O) uniform angles in [0, 2 pi) of tile t's links, the next
        draws of rng, in scratch. Bit-identical to rng.uniform(0, 2 pi),
        which computes 0 + 2 pi x each of the same doubles."""
        p0, p1 = self._tile_pairs(t)
        draws = scratch.draws[:(p1 - p0) * self._shape[2]]
        rng.random(out=draws)
        draws *= 2.0 * np.pi
        return draws

    def _set_up(self, first, end, scratch, angles, phases, doppler, dt_s):
        """osc = exp(1j * phase) and step = exp(1j * omega * dt_s) of tiles
        [first, end), omega = Doppler x cos(angle), the angles and phases
        drawn from the streams saved before each.

        Each rotor's real and imaginary parts are the cos and sin of its
        angle, written into them in place. With the step angle omega * dt_s
        formed in float and a zero angle made +0, as the complex product
        1j * omega * dt_s makes it, both rotors equal numpy's complex exp
        bit for bit (`TestTiledFading` checks against it)."""
        angle_rng, phase_rng = self._stream_at(angles, first), self._stream_at(phases, first)
        N, S = self._shape[1:]
        for t in range(first, end):
            ph = self._tile_draw(phase_rng, t, scratch).T
            osc = self.osc[t][:, :ph.shape[1]]
            np.cos(ph, out=osc.real)
            np.sin(ph, out=osc.imag)
            om = self._tile_draw(angle_rng, t, scratch)
            np.cos(om, out=om)
            p0, p1 = self._tile_pairs(t)
            per_pair = om.reshape(p1 - p0, S, -1)  # a view: om is contiguous
            per_pair *= doppler[np.arange(p0, p1) // N, None, None]
            om *= dt_s
            om += 0.0  # -0 -> +0
            step = self._step[t]
            step[:, len(om):] = 1.0  # padding links keep omega 0
            np.cos(om.T, out=step.real[:, :len(om)])
            np.sin(om.T, out=step.imag[:, :len(om)])

    def advance(self, out=None, scale=None, post=None):
        """Rotate the oscillators one step; with `out`, len(out) steps.

        `out` is a C-contiguous (slots, K, N, S) array and `scale` holds one
        (K, N) large-scale gain per slot: after the i-th rotation of a tile,
        scale[i] x |h|^2 of its links is written into out[i] while the tile
        is in cache. If a pass is posted, this call is that pass instead,
        into its buffer pair, and takes no `out`: it passes this process's
        tiles and waits for the workers'. `post` = (i, slots) then posts the
        next pass, `slots` steps into the leading slots of buffer pair i.
        """
        if self._posted is None:
            self._share_tiles(self._advance_tiles, *self._rows(out, scale))
        elif out is not None:
            raise ValueError("the posted pass writes its buffer pair: advance without out")
        else:
            self._finish()
            self._posted = None
        if post is not None:
            self._post(*post)

    def _rows(self, out, scale):
        """(rows, scale_rows) of a pass's out and scale, one (pairs, S) and one
        (pairs, 1) view per slot; (None, None) without out."""
        if out is None:
            return None, None
        return [self._pair_rows(o) for o in out], [np.reshape(g, (-1, 1)) for g in scale]

    def _advance_tiles(self, first, end, scratch, rows, scale_rows, rotate=True):
        """advance for tiles [first, end): per slot, rotate (if `rotate`),
        then write the gains into rows[i] if rows is not None."""
        for t in range(first, end):
            osc = self.osc[t]
            p0, p1 = self._tile_pairs(t)
            for i in range(1 if rows is None else len(rows)):
                if rotate:
                    osc *= self._step[t]
                if rows is not None:
                    self._tile_gains(scratch, osc, rows[i][p0:p1], scale_rows[i][p0:p1])

    def _tile_gains(self, v, osc, out, scale):
        """out = scale x |h|^2 of one tile's links, as (pairs, S) rows,
        summed in scratch v."""
        self._tile_coefficients(v, osc)
        np.square(v.h_re_im, v.squares)
        np.add(v.re2[:len(out)], v.im2[:len(out)], out)
        np.multiply(out, scale, out)

    def _tile_coefficients(self, v, osc):
        """Scale x the sum of a tile's 8 rows, added in numpy's sum order:
        accumulator j sums rows o = j (mod 4), then (a0 + a1) + (a2 + a3).

        The result is a view of scratch v that the next call overwrites.
        """
        np.add(osc[0:4], osc[4:8], v.acc)
        np.add(v.acc_even, v.acc_odd, v.pair)
        np.add(v.h, v.p1, v.h)
        # Scaling re and im apart equals numpy's complex * real: its cross
        # terms are exact zeros, which change at most the sign of a zero.
        v.h_re_im *= self.scale
        return v.h

    def coefficients(self):
        """(K, N, S) complex channel coefficients at the current time, read
        tile by tile on the calling thread."""
        self._finish()
        self._mapped = len(self.osc)
        h = np.empty(self.osc[:, 0].shape, dtype=complex)
        for t, osc in enumerate(self.osc):
            h[t] = self._tile_coefficients(self._scratch[0], osc)
        # Only the last tile is padded, at its end: the links come first.
        return h.reshape(-1)[:np.prod(self._shape)].reshape(self._shape)

    def power_gains(self, scale=None, out=None):
        """(K, N, S) |h|^2 at the current time, times `scale` (a (K, N)
        large-scale gain, say) if given, written into `out` (C-contiguous)
        or into a fresh array."""
        self._finish()
        out = np.empty(self._shape) if out is None else out
        scale = np.ones(self._shape[:2]) if scale is None else scale  # x 1.0 is exact
        self._share_tiles(self._advance_tiles, *self._rows([out], [scale]), False)
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
    `scenario.slots`: one `advance` in every block rotates the fading
    through the whole block. `large_scale` and `gains()` are the current
    slot's. `noise` is the (K, S) noise power in Watts.

    If the fading state would fork worker processes and the run is longer
    than a block, the channel keeps two blocks and their large-scale gains
    in `shared_array`s, gives them to the fading state as its buffer pairs
    and pipelines them. The first block is computed here. When block k
    starts, this process moves the users through block k + 1, then one
    `FadingState.advance` passes its own tiles of block k, collects the
    workers' tiles of block k, which they computed during block k - 1, and
    posts block k + 1 to the workers (forking them on the first post), who
    fade it while the run steps block k. So `mobility` may stand up to
    2 BLOCK_SLOTS - 1 slots ahead of the current slot (BLOCK_SLOTS - 1
    without workers). A one-block run forks nothing and allocates no shared
    memory. `close` ends the workers.
    """

    def __init__(self, scenario, network):
        streams = scenario.seed_streams()
        rng = {name: np.random.default_rng(streams[name])
               for name in ("shadowing", "fading", "mobility")}
        self.network = network
        K, N, S = network.n_users, network.n_bs, network.subchannel_count
        speeds = np.full(K, scenario.user_speed_kmh / 3.6)
        self.shadow_db = shadowing_matrix_db(network, scenario, rng["shadowing"])
        self.mobility = None
        if scenario.mobile_users:
            self.mobility = WaypointMobility(network, speeds, rng["mobility"])
        self._walls, self._laws = wall_mask(network), distance_laws(network)
        self._update_large_scale()
        self.noise = np.full((K, S), noise_power_w(scenario.noise_figure_db,
                                                   network.bandwidth_hz / S))
        self._dt = scenario.slot_duration_s
        self._slots_left = scenario.slots
        forks = scenario.slots > BLOCK_SLOTS and _worker_processes(_tiles(K * N, S)[0]) > 0
        buffer, count = (shared_array, 2) if forks else (np.empty, 1)
        self._blocks = [buffer((BLOCK_SLOTS, K, N, S)) for _ in range(count)]
        # each block's large-scale gains: while the users stand still, one
        # row, read as every slot's of both blocks
        self._scales = ([buffer((BLOCK_SLOTS, K, N)) for _ in range(count)]
                        if self.mobility is not None else [buffer((1, K, N))])
        self._scales[0][0] = self._large_scale
        self._pairs = [(block, np.broadcast_to(self._scales[i % len(self._scales)],
                                               (BLOCK_SLOTS, K, N)))
                       for i, block in enumerate(self._blocks)]
        self.fading = FadingState(rng["fading"], K, N, S, speeds, scenario.carrier_freq_hz,
                                  self._dt, self._pairs if forks else ())
        self._out = self._blocks[0]               # the current block's gains
        self._block_scales = [self._large_scale]  # each current block slot's large-scale gain
        self._next = None                         # the posted block's large-scale gains
        self._slot = 0                            # the current slot's index in the block
        self._filled = False                      # no gains computed yet
        self._count = 0                           # blocks computed

    def _update_large_scale(self):
        positions = None if self.mobility is None else self.mobility.positions
        pl_db = path_loss_matrix_db(self.network, positions, self._walls, self._laws)
        self._large_scale = large_scale_linear(pl_db, self.shadow_db)

    @property
    def large_scale(self):
        """(K, N) path loss and shadowing gain of the current slot."""
        return self._block_scales[self._slot]

    def _move(self, i):
        """Move the users through the next block, BLOCK_SLOTS slots but
        never past the run (past it, one); write its large-scale gains into
        scale buffer i if they move, and return them, one per slot."""
        slots = min(BLOCK_SLOTS, max(1, self._slots_left))
        self._slots_left -= slots
        scales = []
        for s in range(slots):
            if self.mobility is not None:
                if self.mobility.advance(self._dt):  # path loss changes only if they moved
                    self._update_large_scale()
                self._scales[i][s] = self._large_scale
            scales.append(self._large_scale)
        return scales

    def advance(self):
        """Step one slot of `scenario.slot_duration_s`; at the end of a
        block, compute the next one and post the one after it."""
        self._slot += 1
        if self._slot < len(self._block_scales):
            return
        i = self._count % len(self._blocks)
        posted = self._next is not None  # then the fading state holds this block's pass
        scales = self._next if posted else self._move(i)
        out, scale = self._pairs[i]
        self._count += 1
        self._next, post = None, None
        if len(self._blocks) > 1 and self._slots_left > 0:
            j = self._count % len(self._blocks)
            self._next = self._move(j)
            post = (j, len(self._next))
        n = len(scales)
        self.fading.advance(*(() if posted else (out[:n], scale[:n])), post=post)
        self._out, self._block_scales, self._slot, self._filled = out, scales, 0, True

    def gains(self):
        """(K, N, S) linear gains of the current slot: a read-only view that
        the channel overwrites within BLOCK_SLOTS advances."""
        if not self._filled:  # before the first advance: the slot-0 gains
            self.fading.power_gains(self.large_scale, out=self._out[0])
            self._filled = True
        view = self._out[self._slot].view()
        view.flags.writeable = False
        return view

    def close(self):
        """End the fading's worker processes, if any; the channel goes on
        without them."""
        self.fading.close()
