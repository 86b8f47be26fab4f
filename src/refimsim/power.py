"""Per-BS power allocation: the taxation-augmented KKT fixed point solved by
bisection on the budget multiplier, and the one slot step (schedule -> tax
-> allocate) that every power-allocating algorithm runs.

The KKT water level on subchannel s is w_s / (lambda*ln2 + t_s); the
taxation t_s penalizes power that harms the neighbor cell's most exposed
scheduled user, and t_s = 0 recovers plain water-filling.
"""

import math
from dataclasses import dataclass

import numpy as np

from .scheduling import NO_USER, link_state, schedule_at, scheduled_index

LN2 = math.log(2.0)

# bisection tolerances: budget slack delta = BUDGET_RTOL * P_max,
# lambda interval resolved to LAMBDA_RTOL relative -> ceil(log2(1/LAMBDA_RTOL))
# iterations suffice
BUDGET_RTOL = 1e-6
LAMBDA_RTOL = 1e-9
BISECTION_ITER_BOUND = math.ceil(math.log2(1.0 / LAMBDA_RTOL))
_MAX_BRACKET_DOUBLINGS = 60
# the spine pass samples every _SPINE_STRIDE-th halving, the last at the
# bound; _SPINE_SKIPS[k] is the halvings skipped when the first k sampled
# points step down on every row
_SPINE_STRIDE = 4
_SPINE_POINTS = np.arange(BISECTION_ITER_BOUND, 0, -_SPINE_STRIDE)[::-1]
_SPINE_SKIPS = np.concatenate(([0], _SPINE_POINTS))
# lam*ln2 per unit upper bracket at the bracket hi itself (j = 0) and at
# each sampled point: 2^-j*ln2 is exact, so hi times it is (hi*2^-j)*ln2 bit
# for bit while hi*2^-j is a normal float
_SPINE_LEVELS = np.ldexp(LN2, -_SPINE_SKIPS)
# 0-d array operands for the ufunc calls made once per halving: numpy 2 takes
# a Python float operand on a slower path, about 0.3 us more a call on these
# small arrays
_ZERO, _HALF, _LN2 = (np.array(v) for v in (0.0, 0.5, LN2))
# general_algorithm's inner loop stops once no power moves by this much (W)
P_TOL = 1e-6


@dataclass
class PowerMatrix:
    """(N, S) transmit powers with budget and per-subchannel mask metadata."""
    p: np.ndarray
    budgets: np.ndarray
    masks: np.ndarray

    def violations(self):
        """Count of negative powers and of mask and budget overshoots by > BUDGET_RTOL."""
        v = int(np.count_nonzero(self.p < 0))
        v += int(np.count_nonzero(self.p > self.masks * (1.0 + BUDGET_RTOL) + 1e-300))
        v += int(np.count_nonzero(self.p.sum(axis=1) > self.budgets * (1.0 + BUDGET_RTOL)))
        return v


def taxation_from_feedback(weight, cross_gain, signal_w, intf_noise_w):
    """Taxation from the four fed-back reference-user quantities.

    weight (F1), cross_gain toward the taxed BS (F0), received signal (F2),
    interference-plus-noise (F3). The reference SINR is F2/F3 and the
    denominator is the total received power F2+F3.
    """
    sinr_ref = signal_w / intf_noise_w
    return weight * cross_gain * sinr_ref / (signal_w + intf_noise_w)


def _kkt_into(out, weights, floor, masks):
    """In place: out <- clip(weights/out - floor, 0, masks).

    On entry out holds the denominators lam*ln2 + t, all > 0 since lam > 0
    and t >= 0; floor is (I+sigma)/g. Every bisection pass at lam > 0 runs
    this kernel.
    """
    np.divide(weights, out, out)
    out -= floor
    np.maximum(out, _ZERO, out=out)
    return np.minimum(out, masks, out=out)


def _kkt_at_zero(weights, taxes, floor, masks):
    """KKT powers at lam = 0, clip(weights/taxes - floor, 0, masks). A tax
    that is not > 0 (0 or -0.0) leaves the water level unbounded: it is inf
    there, and the mask clip alone bounds it."""
    p = np.divide(weights, taxes, out=np.full(taxes.shape, np.inf), where=taxes > 0)
    p -= floor
    np.maximum(p, 0.0, out=p)
    return np.minimum(p, masks, out=p)


def allocate_bisection_batch(weights, taxes, intf_noise, own_gains, budgets, masks, noise_w):
    """Lockstep bisection over N base stations at once.

    weights/taxes/intf_noise/own_gains/masks/noise_w: (N, S); budgets: (N,);
    budgets must be > 0 and taxes >= 0 (NaN fails both); weights are >= 0,
    as every caller passes them. A NaN in another input that reaches a
    power or a searching row's first bracket raises ValueError naming that
    input; so do NaN powers at lam = 0 from finite inputs (an unbounded
    level less an infinite floor). The first upper bracket is max_s w g/(noise_w ln2), doubled until
    every row undershoots its budget. Returns (p (N, S), lam (N,), iters
    (N,)): iters is the halving at which a row first meets its budget within
    delta, and lam that midpoint; a row that never does takes its
    undershooting end hi and iters = BISECTION_ITER_BOUND. A row with slack
    at lam = 0 has lam = iters = 0.

    The result is plain lockstep bisection's, bit for bit, in fewer numpy
    calls:
    - bracket and spine pass: while lo = 0 the j-th midpoint is exactly
      hi*2^-j, and the computed row sum never rises with lam, since with
      weights >= 0 every rounded step in it is monotone. One
      (1 + points, rows, S) evaluation at hi and at every _SPINE_STRIDE-th
      spine point checks the bracket and counts the leading halvings that
      step down on every row, and the loop starts after them; only when a
      row overshoots at hi is its bracket doubled and the spine sampled
      again;
    - first hit after the loop: every row runs every remaining halving, and
      its midpoints and sums are kept. The first iteration whose sum is
      within delta of the budget is the row's hit; the halvings after it do
      not change the result.
    With taxes >= 0 and lam > 0 every denominator lam*ln2 + t is positive, so
    only the lam = 0 pass has unbounded levels; p is evaluated once at the
    end from each row's lam.
    """
    weights, taxes, intf_noise, own_gains, masks, noise_w = (
        np.array(a, dtype=float, copy=None, ndmin=2)
        for a in (weights, taxes, intf_noise, own_gains, masks, noise_w))
    budgets = np.array(budgets, dtype=float, copy=None, ndmin=1)
    if not (budgets > 0).all():
        raise ValueError("budgets must be > 0")
    if not (taxes >= 0).all():
        raise ValueError("taxes must be >= 0")
    N, S = weights.shape
    inputs = {"weights": weights, "intf_noise": intf_noise, "own_gains": own_gains,
              "masks": masks, "noise_w": noise_w}   # named by a NaN check
    floor = intf_noise / own_gains

    delta = BUDGET_RTOL * budgets
    p = _kkt_at_zero(weights, taxes, floor, masks)
    lam = np.zeros(N)
    iters = np.zeros(N, dtype=int)
    sums = np.add.reduce(p, 1)
    grand = np.add.reduce(sums)
    if grand != grand:       # NaN: a NaN input reached a power
        _reject_nan(inputs, "the powers at lambda = 0 are NaN")
    searching = np.flatnonzero(sums > budgets + delta)
    R = searching.size
    if R == 0:
        return p, lam, iters
    if R == N:
        searching = slice(None)   # every row searches: views, not gathered copies
    w, t, fl, m = (a[searching] for a in (weights, taxes, floor, masks))
    b, d = budgets[searching], delta[searching]
    # The first upper bracket hi and the spine, in one (1 + points, rows, S)
    # pass: level 0 is hi itself, and the rest are the sampled spine points.
    # While lo = 0 the j-th midpoint is hi*2^-j. Every rounded step of the row
    # sum is monotone, so the sum never falls as j grows, and a sampled point
    # where every row undershoots by delta or more implies the same downward
    # step at every point before it.
    # A row whose every w g is 0 starts at hi = 0 and never undershoots, as in
    # plain bisection: where t = 0 its levels are w/0, and 0/0 gives a sum
    # that is NaN, which never undershoots either
    with np.errstate(divide="ignore", invalid="ignore"):
        hi = np.maximum.reduce(w * own_gains[searching] / (noise_w[searching] * LN2), 1)
        den = np.multiply.outer(_SPINE_LEVELS, hi)[:, :, None] + t
        level_sums = np.add.reduce(_kkt_into(den, w, fl, m), 2)
        under = level_sums[0] <= b
        if not under.all():
            # some row overshoots at hi: double its bracket until it
            # undershoots, then sample the spine again
            if np.isnan(hi).any():
                _reject_nan(inputs, None)
            for _ in range(_MAX_BRACKET_DOUBLINGS - 1):
                hi = np.where(under, hi, hi * 2.0)
                den = np.multiply(hi, LN2)[:, None] + t
                under = np.add.reduce(_kkt_into(den, w, fl, m), 1) <= b
                if under.all():
                    break
            else:
                raise RuntimeError("bisection bracket failure: sum p(hi) > budget")
            den = np.multiply.outer(_SPINE_LEVELS, hi)[:, :, None] + t
            level_sums = np.add.reduce(_kkt_into(den, w, fl, m), 2)
    down = np.logical_and.reduce(b - level_sums[1:] >= d, 1)
    skip = _SPINE_SKIPS[np.count_nonzero(down)]

    # every row runs every remaining halving; each row's first hit is found
    # after the loop. lo and hi are the rows of `bounds`, and one masked copy
    # moves the midpoint into lo where the row goes up and into hi elsewhere
    n = BISECTION_ITER_BOUND - skip
    bounds = np.zeros((2, R))
    np.multiply(hi, 2.0 ** -skip, bounds[1])
    lo, hi = bounds
    up = np.empty((2, R), dtype=bool)
    go_up, go_down = up
    mids, sums = np.empty((n + 1, R)), np.empty((n, R))
    buf, level = np.empty((R, S)), np.empty(R)
    column = level[:, None]
    for mid, sm in zip(mids, sums):
        np.add(lo, hi, mid)
        mid *= _HALF
        np.multiply(mid, _LN2, level)
        np.add(column, t, buf)
        np.add.reduce(_kkt_into(buf, w, fl, m), 1, None, sm)
        np.greater(sm, b, go_up)
        np.logical_not(go_up, go_down)
        np.copyto(bounds, mid, where=up)
    # the sentinel row n gives a row without a hit its end hi and the bound
    hit = np.empty((n + 1, R), dtype=bool)
    np.less(np.abs(sums - b), d, hit[:n])
    hit[n] = True
    mids[n] = hi
    first = hit.argmax(axis=0)
    found = mids[first, np.arange(R)]
    lam[searching] = found
    iters[searching] = np.minimum(skip + 1 + first, BISECTION_ITER_BOUND)

    np.multiply(found, _LN2, level)
    np.add(column, t, buf)
    p[searching] = _kkt_into(buf, w, fl, m)
    return p, lam, iters


def _reject_nan(inputs, otherwise):
    """Raise ValueError naming the first of `inputs` that holds a NaN; if
    none does, raise one with the message `otherwise`, unless it is None."""
    for name, a in inputs.items():
        if np.isnan(a).any():
            raise ValueError(f"{name} contains NaN")
    if otherwise is not None:
        raise ValueError(otherwise)


def budget_misses(p, lam, budgets):
    """Count of BSs whose bisection ended with lam > 0 but whose power misses
    the budget by at least delta = BUDGET_RTOL * budget (the interval ran out
    before the budget was met)."""
    miss = np.abs(p.sum(axis=1) - budgets) >= BUDGET_RTOL * budgets
    return int(np.count_nonzero((lam > 0) & miss))


def initial_power(strategy, budgets, masks, prev=None, rng=None):
    """Per-slot starting powers: 'uniform', 'random' (rescaled to the budget),
    or 'previous' (falls back to uniform at slot 0, where prev is None)."""
    budgets = np.asarray(budgets, dtype=float)
    masks = np.asarray(masks, dtype=float)
    N, S = masks.shape
    if strategy == "previous" and prev is None:
        strategy = "uniform"
    if strategy == "uniform":
        usable = masks > 0
        counts = np.maximum(usable.sum(axis=1), 1)
        p = np.where(usable, (budgets / counts)[:, None], 0.0)
        return np.minimum(p, masks)
    if strategy == "random":
        if rng is None:
            raise ValueError("random rule needs an rng")
        draw = rng.uniform(0.0, 1.0, size=(N, S)) * (budgets[:, None] / S)
        draw = np.where(masks > 0, draw, 0.0)
        total = draw.sum(axis=1)
        total = np.where(total > 0, total, 1.0)
        p = draw * (budgets / total)[:, None]  # scale up to spend the budget
        return np.minimum(p, masks)
    if strategy == "previous":
        return np.array(prev, dtype=float)
    raise ValueError(f"unknown initial power strategy {strategy!r}")


def measured_interference(gains, powers, index, noise_w, total=None):
    """(N, S) interference-plus-noise at each scheduled user, at `powers`.

    index is the schedule's `scheduling.scheduled_index`. The simulator plays
    the role of the once-per-slot user measurement report; entries without a
    scheduled user are set to 1 (never consumed: the mask is zero there).
    `total` short-circuits the received-power einsum when the caller already
    has it.
    """
    scheduled, user, bs, sub = index
    _, intf_noise = link_state(gains, powers, noise_w, user, bs, sub, total)
    return np.where(scheduled, intf_noise, 1.0)


def scheduled_arrays(gains, index, weights, noise_w):
    """Per-(bs, subchannel) weight, own gain and noise of the scheduled user,
    from the schedule's `scheduling.scheduled_index`."""
    scheduled, user, bs, sub = index
    w = np.where(scheduled, np.asarray(weights)[user], 0.0)
    g = np.where(scheduled, gains[user, bs, sub], 1.0)
    sig = np.where(scheduled, noise_w[user, sub], 1.0)
    return w, g, sig


def no_taxes(sched, *_):
    """Tax source of selfish water-filling: zero on every (bs, subchannel)."""
    zeros = np.zeros(sched.shape)
    return lambda p, total: zeros


def ground_truth_taxes(sched, gains, weights, noise_w, nbr, ref_count):
    """Taxation from current ground truth (general algorithm), as a
    function price(p, total) -> (N, S) of the powers p and the (K, S)
    received power `total` there.

    References are ranked once, by reference.rank_references as on the table
    path but on exact current-slot values: F0 is the cross gain and F1 the
    weight, neither of which depends on the powers. Each price call sets F2,
    the serving-link received power, and F3, the rest of `total` plus noise.
    nbr is the (N, B) padded neighbor index.
    """
    from .reference import rank_references  # local to avoid cycle

    cand = sched[nbr]
    N, _, S = cand.shape
    # each candidate's gain toward the viewer; where there is none (NO_USER
    # or -1 padding), the wrapped index reads a row the ranking masks
    cross = gains[cand, np.arange(N)[:, None, None], np.arange(S)]
    present = (cand != NO_USER) & (nbr >= 0)[:, :, None]
    sel, idx, users = rank_references(nbr, cand, cross, ref_count, present)
    sel.f1[idx] = np.asarray(weights)[users]
    ref_bs, sub = sel.ref_bs[idx], idx[1]

    def price(p, total):
        sel.f2[idx], sel.f3[idx] = link_state(gains, p, noise_w, users, ref_bs, sub, total)
        return sel.taxes()
    return price


def general_algorithm(members, serving, gains, weights, noise_w, taxes, budgets, masks,
                      init_powers, sched_iters=1, power_iters=1, subchannel_bw_hz=1.0,
                      sinr_gap=1.0, allowed=None):
    """One slot's schedule -> tax -> allocate step, shared by every algorithm
    that allocates power; they differ only in the tax source
    `taxes(sched, signal, intf_noise)`, called once per schedule, which
    returns `price(p, total) -> (N, S)`, called once per power step at powers
    p with `total` the (K, S) received power there. signal and intf_noise
    are each user's serving-link state at the schedule's powers; serving is
    the (K,) serving BS of each user and members the (N, C) padded cell
    members (Network.member_index).

    The outer loop reschedules at the current powers, the inner one re-taxes
    and re-allocates until no power moves by P_TOL or a cap is hit. Each
    power step is the KKT allocation for the scheduled users, with their
    interference measured at the step's powers; unscheduled pairs get a zero
    mask. What depends only on the schedule (the tax source's ranking, the
    scheduled users' weights, gains and noise, the masks) is built once per
    schedule. Returns (sched, index, powers, lam, iter_max): index is the
    schedule's `scheduled_index`, lam the budget multiplier of the bisection
    that produced `powers`, iter_max the largest bisection iteration count
    over the slot.
    """
    if sched_iters < 1 or power_iters < 1:
        raise ValueError("iteration caps must be >= 1")
    p = np.asarray(init_powers, dtype=float)
    sched = None
    iter_max = 0
    for _ in range(sched_iters):
        new_sched, total, signal, intf_noise = schedule_at(
            gains, p, noise_w, serving, members, weights, sinr_gap, subchannel_bw_hz, allowed)
        if sched is not None and np.array_equal(new_sched, sched):
            break
        sched = new_sched
        index = scheduled_index(sched)
        price = taxes(sched, signal, intf_noise)
        w, g, sig = scheduled_arrays(gains, index, weights, noise_w)
        step_masks = np.where(index[0], masks, 0.0)
        for i in range(power_iters):
            if i > 0:
                total = np.einsum("kms,ms->ks", gains, p)
            intf = measured_interference(gains, p, index, noise_w, total=total)
            p_new, lam, iters = allocate_bisection_batch(w, price(p, total), intf, g, budgets,
                                                         step_masks, noise_w=sig)
            iter_max = max(iter_max, int(iters.max()))
            # no convergence test after the last pass (wf and refim make just one)
            done = i + 1 == power_iters or not p.size or np.max(np.abs(p_new - p)) < P_TOL
            p = p_new
            if done:
                break
    return sched, index, p, lam, iter_max
