"""Per-slot channel gains: path loss, shadowing, wall loss, Jakes fading.

Gains are linear power gains; the per-slot tensor is indexed
(user, bs, subchannel). Noise is linear Watts per (user, subchannel).
"""

import os
import threading
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


def _worker_processes(n_tiles):
    """Worker processes a fading state of n_tiles tiles forks: one per CPU
    but this process's, at most one per tile but the first, and none
    without os.fork."""
    return max(0, min(_cpu_count(), n_tiles) - 1) if hasattr(os, "fork") else 0


def _leads(a, buffer):
    """Whether array a is buffer[:len(a)]."""
    return (isinstance(a, np.ndarray) and a.shape[1:] == buffer.shape[1:]
            and len(a) <= len(buffer) and a.strides == buffer.strides
            and a.ctypes.data == buffer.ctypes.data)


class FadingState:
    """Jakes sum-of-sinusoids Rayleigh fading, one process per
    (user, bs, subchannel); E[|h|^2] = 1.

    Oscillator arrival angles and phases are randomized per link and
    subchannel, which decorrelates subchannels. Advancing rotates each
    oscillator by its Doppler-dependent step.

    The K*N*S links are stored flattened in tiles of whole (user, bs)
    pairs, so that a tile's large-scale gains are one slice: as few tiles of
    at most TILE_LINKS links (or one pair) as hold them, balanced. `osc` and
    the cached step are (tiles, O, width) arrays, O = OSCILLATORS, the last
    tile padded. The arrival angles are not stored: the generator state
    before they were drawn is kept, and the stream is advanced past them,
    then past the phases, which are drawn from a copy of it. A new `dt`
    re-draws them tile by tile from that state (chunked draws equal one big
    draw), so `rng`'s bit generator must support `advance`, as default_rng's
    PCG64 does. `advance` rotates one tile, sums its O rows and squares the sum,
    for every slot asked of it, before it moves to the next tile. The rows
    are added in the order numpy's pairwise `sum(axis=-1)` uses, so the
    gains are bit-identical to rotating and summing one (K, N, S, O) array.

    Every pass over the tiles is shared among min(CPUs, tiles) threads, one
    contiguous run of tiles each, the calling thread taking the first. Each
    writes only its own tiles and sums into its own scratch, and a run that
    draws starts from its own copy of the saved generator state, advanced to
    its first tile's draws. So the results are bit-identical for any number
    of threads. The threads call only private methods, and none outlives
    the call that started it.

    Short calls, such as a slot's rotations, keep taking the interpreter
    lock back, so threads barely overlap on them. `fork_workers` hands the
    passes to min(CPUs, tiles) - 1 forked worker processes instead, each
    holding its own run of tiles: the same split, so the same results. Each
    process then keeps only its own tiles resident, and a worker writes its
    gains into MAP_SHARED buffers. A pass that no worker can share (the
    coefficients, say) first takes the workers' tiles back and ends them;
    `close` ends them and drops their tiles.
    """

    def __init__(self, rng, n_users, n_bs, n_subchannels, speeds_mps, carrier_freq_hz):
        self._shape = (n_users, n_bs, n_subchannels)
        links = n_users * n_bs * n_subchannels
        n_tiles = max(1, -(-n_users * n_bs // max(1, TILE_LINKS // n_subchannels)))
        self._pairs_per_tile = max(1, -(-n_users * n_bs // n_tiles))
        self._doppler = 2.0 * np.pi * np.asarray(speeds_mps, dtype=float) \
            * carrier_freq_hz / SPEED_OF_LIGHT  # rad/s per user
        bitgen = rng.bit_generator
        self._angle_stream = (type(bitgen), bitgen.state)
        bitgen.advance(links * OSCILLATORS)
        phase_stream = (type(bitgen), bitgen.state)
        self.osc = np.empty((n_tiles, OSCILLATORS, self._pairs_per_tile * n_subchannels),
                            dtype=complex)
        self.osc[-1] = 1.0  # padding links
        self.scale = 1.0 / np.sqrt(OSCILLATORS)
        self._step_dt = None
        self._step = None
        self._scratch = []  # one tile's draws and sums per worker, made on first use
        self._no_workers()
        self._tiles_lost = False  # closed while workers held tiles
        self._share_tiles(self._draw_phases, phase_stream)
        bitgen.advance(links * OSCILLATORS)  # past the phases, as if drawn here

    _PROCESS_STATE = ("_scratch", "_workers", "_run", "_shared", "_stop")

    def __getstate__(self):
        # Copied views would not alias the copied scratch, so it is not kept;
        # the workers' tiles come back first.
        self._join()
        if self._tiles_lost:
            raise ValueError("the fading state was closed while workers held its tiles")
        return {k: v for k, v in vars(self).items() if k not in self._PROCESS_STATE}

    def __setstate__(self, state):
        vars(self).update(state)
        self._scratch = []
        self._no_workers()

    def _no_workers(self):
        self._workers = []   # (pid, pipe, first tile, end tile) per worker process
        self._run = None     # (first, end) tiles of this process while workers run
        self._shared = None  # (out, scale) buffers the workers write and read
        self._stop = None    # ends the workers, also when the state is collected

    def fork_workers(self, out, scale):
        """Share later tile passes with min(CPUs, tiles) - 1 forked worker
        processes; none if that is 0 or they run already.

        `out` (slots, K, N, S) and `scale` (slots, K, N) are `shared_array`s:
        an `advance` that writes nothing, or writes out[:n] with scale[:n],
        runs on the workers too. Each worker takes a contiguous run of tiles,
        this process the first, and from here on each process keeps only its
        own run resident. A worker leaves with os._exit when its pipe closes
        (`close`, or this process ending) and raises its errors here.
        """
        count = 0 if self._workers or self._tiles_lost else _worker_processes(len(self.osc))
        if count == 0:
            return
        n_tiles, procs = len(self.osc), count + 1
        runs = [(n_tiles * w // procs, n_tiles * (w + 1) // procs) for w in range(procs)]
        self._shared = (out, scale)
        forked = []
        try:
            for first, end in runs[1:]:
                forked.append(fork(self._start_worker, first, end) + (first, end))
            for _, pipe, _, _ in forked:
                pipe.recv()  # it has let go of the other tiles
        except BaseException:
            stop(forked)
            self._shared = None
            raise
        for _, _, first, end in forked:
            self._release_tiles(first, end)
        self._workers, self._run = forked, runs[0]
        self._stop = weakref.finalize(self, stop, forked)

    def _start_worker(self, pipe, first, end):
        """In a new worker: let go of the tiles outside [first, end), tell
        the forking process, and return the handler of its passes."""
        self._release_tiles(0, first)
        self._release_tiles(end, len(self.osc))
        scratch = self._new_scratch()
        pipe.send(None)

        def handle(message, pipe):
            kind, arg = message
            if kind == "step":
                if self._step is None:
                    self._step = np.empty_like(self.osc)
                self._step_tiles(first, end, scratch, arg)
            elif kind == "advance":
                dt_s, slots = arg
                rows = scale_rows = None
                if slots is not None:
                    out, scale = self._shared
                    rows = [self._pair_rows(o) for o in out[:slots]]
                    scale_rows = [np.reshape(g, (-1, 1)) for g in scale[:slots]]
                self._advance_tiles(first, end, scratch, dt_s, rows, scale_rows)
            else:  # "fetch": send the tiles back
                step = self._step
                for t in range(first, end):
                    pipe.send((self.osc[t], None if step is None else step[t]))

        return handle

    def _release_tiles(self, first, end):
        """Let go of tiles [first, end) of the oscillators and steps."""
        for a in (self.osc, self._step):
            if a is not None and end > first:
                release(a[first:end])

    def _join(self):
        """Take the workers' tiles back, then end the workers."""
        if not self._workers:
            return
        try:
            for _, pipe, _, _ in self._workers:
                pipe.send(("fetch", None))
            for _, pipe, first, end in self._workers:
                for t in range(first, end):
                    osc, step = pipe.recv()
                    self.osc[t] = osc
                    if step is not None:
                        self._step[t] = step
                pipe.recv()
        except EOFError:
            self.close()
            raise RuntimeError("a fading worker process exited") from None
        self._stop()
        self._no_workers()

    def close(self):
        """End the worker processes, if any. The tiles they hold go with
        them, so a state that had workers cannot be used after this."""
        if self._workers:
            self._stop()
            self._no_workers()
            self._tiles_lost = True

    def _share_tiles(self, work, *args, command=None):
        """Run work(first, end, scratch, *args) over contiguous runs of tiles,
        one per worker: the first on the calling thread, each other on a
        thread of its own, all joined before this returns. Then re-raises
        the error of the first run, in tile order, that failed.

        While worker processes run, this process runs work over its own run
        and each worker runs `command` over its run instead."""
        if self._tiles_lost:
            raise ValueError("the fading state was closed while workers held its tiles")
        if self._workers:
            return self._share_with_workers(command, work, *args)
        n_tiles = len(self.osc)
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

    def _share_with_workers(self, command, work, *args):
        """_share_tiles while worker processes run."""
        for _, pipe, _, _ in self._workers:
            pipe.send(command)
        if not self._scratch:
            self._scratch.append(self._new_scratch())
        error = None
        try:
            work(*self._run, self._scratch[0], *args)
        except BaseException as exc:  # raised once every worker has replied
            error = exc
        for _, pipe, _, _ in self._workers:
            try:
                reply = pipe.recv()
            except EOFError:
                self.close()
                raise RuntimeError("a fading worker process exited") from None
            error = reply if error is None else error
        if error is not None:
            raise error

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

    def _draw_phases(self, first, end, scratch, stream):
        """osc = exp(1j * phase) of tiles [first, end), the phases drawn from
        the stream saved after the angles."""
        rng = self._stream_at(stream, first)
        for t in range(first, end):
            ph = self._tile_draw(rng, t, scratch)
            osc = self.osc[t][:, :len(ph)]
            np.multiply(1j, ph.T, out=osc)
            np.exp(osc, out=osc)

    def _build_step(self, dt_s):
        """step = exp(1j * omega * dt) per oscillator, omega = Doppler x cos(angle),
        re-drawing the angles tile by tile from the saved generator state."""
        if self._step is None:
            self._step = np.empty_like(self.osc)
        self._share_tiles(self._step_tiles, dt_s, command=("step", dt_s))
        self._step_dt = dt_s

    def _step_tiles(self, first, end, scratch, dt_s):
        """_build_step for tiles [first, end)."""
        rng = self._stream_at(self._angle_stream, first)
        N, S = self._shape[1:]
        for t in range(first, end):
            om = self._tile_draw(rng, t, scratch)
            np.cos(om, out=om)
            p0, p1 = self._tile_pairs(t)
            per_pair = om.reshape(p1 - p0, S, -1)  # a view: om is contiguous
            per_pair *= self._doppler[np.arange(p0, p1) // N, None, None]
            step = self._step[t]
            step[:, len(om):] = 0.0  # padding links keep omega 0, so step 1
            np.multiply(1j, om.T, out=step[:, :len(om)])  # exp(1j * om * dt), no temporaries
            np.multiply(step, dt_s, out=step)
            np.exp(step, out=step)

    def advance(self, dt_s, out=None, scale=None):
        """Rotate the oscillators by dt_s; with `out`, len(out) times.

        `out` is a C-contiguous (slots, K, N, S) array and `scale` holds one
        (K, N) large-scale gain per slot: after the i-th rotation of a tile,
        scale[i] x |h|^2 of its links is written into out[i] while the tile
        is in cache. The worker processes share the pass if `out` is None or
        `out` and `scale` lead the buffers given to `fork_workers`;
        otherwise they are ended first.
        """
        if dt_s < 0:
            raise ValueError("dt_s must be >= 0")
        if self._workers and out is not None and not (
                _leads(out, self._shared[0]) and _leads(scale, self._shared[1])
                and len(scale) == len(out)):
            self._join()
        if dt_s != self._step_dt and dt_s != 0.0:
            self._build_step(dt_s)
        rows = scale_rows = None
        if out is not None:
            rows = [self._pair_rows(o) for o in out]
            scale_rows = [np.reshape(g, (-1, 1)) for g in scale]
        self._share_tiles(self._advance_tiles, dt_s, rows, scale_rows,
                          command=("advance", (dt_s, None if out is None else len(out))))

    def _advance_tiles(self, first, end, scratch, dt_s, rows, scale_rows):
        """advance for tiles [first, end): per slot, rotate unless dt_s is 0,
        then write the gains into rows[i] if rows is not None."""
        for t in range(first, end):
            osc = self.osc[t]
            p0, p1 = self._tile_pairs(t)
            for i in range(1 if rows is None else len(rows)):
                if dt_s != 0.0:
                    osc *= self._step[t]
                if rows is not None:
                    s = scale_rows[i]
                    self._tile_gains(scratch, osc, rows[i][p0:p1],
                                     None if s is None else s[p0:p1])

    def _tile_gains(self, v, osc, out, scale):
        """out = |h|^2 (times scale, if not None) of one tile's links, as
        (pairs, S) rows, summed in scratch v."""
        self._tile_coefficients(v, osc)
        np.square(v.h_re_im, v.squares)
        np.add(v.re2[:len(out)], v.im2[:len(out)], out)
        if scale is not None:
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

    def _copy_coefficients(self, first, end, scratch, h):
        """coefficients of tiles [first, end) into h, one (width,) row per tile."""
        for t in range(first, end):
            h[t] = self._tile_coefficients(scratch, self.osc[t])

    def coefficients(self):
        """(K, N, S) complex channel coefficients at the current time."""
        self._join()
        h = np.empty(self.osc[:, 0].shape, dtype=complex)
        self._share_tiles(self._copy_coefficients, h)
        # Only the last tile is padded, at its end: the links come first.
        return h.reshape(-1)[:np.prod(self._shape)].reshape(self._shape)

    def power_gains(self, scale=None, out=None):
        """(K, N, S) |h|^2 at the current time, times `scale` (a (K, N)
        large-scale gain, say) if given, written into `out` (C-contiguous)
        or into a fresh array."""
        self._join()
        out = np.empty(self._shape) if out is None else out
        scale_rows = None if scale is None else np.reshape(scale, (-1, 1))
        self._share_tiles(self._advance_tiles, 0.0, [self._pair_rows(out)], [scale_rows])
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

    If the fading state would fork worker processes and the run is longer
    than a block, the block and its large-scale gains are `shared_array`s,
    and the workers are forked when the run reaches its second block: a
    one-block run pays for neither. `close` ends them.
    """

    def __init__(self, scenario, network):
        rng = {name: np.random.default_rng(seed)
               for name, seed in scenario.seed_streams().items()}
        self.network = network
        self.sinr_gap = 10.0 ** (scenario.sinr_gap_db / 10.0)  # linear Gamma >= 1
        K, N, S = network.n_users, network.n_bs, network.subchannel_count
        speeds = np.full(K, scenario.user_speed_kmh / 3.6)
        self.shadow_db = shadowing_matrix_db(network, scenario, rng["shadowing"])
        self.fading = FadingState(rng["fading"], K, N, S, speeds, scenario.carrier_freq_hz)
        self.mobility = None
        if scenario.mobile_users:
            self.mobility = WaypointMobility(network, speeds, rng["mobility"])
        self._walls, self._laws = wall_mask(network), distance_laws(network)
        self._update_large_scale()
        self.noise = np.full((K, S), noise_power_w(scenario.noise_figure_db,
                                                   network.bandwidth_hz / S))
        self._dt = scenario.slot_duration_s
        self._slots_left = scenario.slots
        self._forks = (scenario.slots > BLOCK_SLOTS
                       and _worker_processes(len(self.fading.osc)) > 0)
        buffer = shared_array if self._forks else np.empty
        self._block = buffer((BLOCK_SLOTS, K, N, S))
        # the block's large-scale gains: while the users stand still, one row
        # read as every slot's
        self._scales = buffer((1 if self.mobility is None else BLOCK_SLOTS, K, N))
        self._scales[0] = self._large_scale
        self._scale_view = np.broadcast_to(self._scales, (BLOCK_SLOTS, K, N))
        self._block_scales = [self._large_scale]  # each block slot's large-scale gain
        self._slot = 0                            # the current slot's index in the block
        self._filled = False                      # no gains computed yet
        self._blocks = 0                          # blocks computed

    def _update_large_scale(self):
        positions = None if self.mobility is None else self.mobility.positions
        pl_db = path_loss_matrix_db(self.network, positions, self._walls, self._laws)
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
        for i in range(slots):
            if self.mobility is not None:
                if self.mobility.advance(self._dt):  # path loss changes only if they moved
                    self._update_large_scale()
                self._scales[i] = self._large_scale
            scales.append(self._large_scale)
        if self._forks and self._blocks:
            self.fading.fork_workers(self._block, self._scale_view)
        self.fading.advance(self._dt, out=self._block[:slots], scale=self._scale_view[:slots])
        self._block_scales, self._slot, self._filled = scales, 0, True
        self._blocks += 1

    def gains(self):
        """(K, N, S) linear gains of the current slot: a read-only view that
        the channel overwrites within BLOCK_SLOTS advances."""
        if not self._filled:  # before the first advance: the slot-0 gains
            self.fading.power_gains(self.large_scale, out=self._block[0])
            self._filled = True
        view = self._block[self._slot].view()
        view.flags.writeable = False
        return view

    def close(self):
        """End the fading's worker processes; the channel cannot advance
        after this if it had any."""
        self.fading.close()
