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


def taxation_term(weight_ref, ref_user, taxed_bs, serving_bs, gains, powers, noise_w,
                  subchannel):
    """Taxation computed from ground-truth gains and powers (one reference)."""
    g = gains[ref_user, :, subchannel]
    p = powers[:, subchannel]
    signal = g[serving_bs] * p[serving_bs]
    total = float(g @ p)
    intf_noise = total - signal + noise_w[ref_user, subchannel]
    return taxation_from_feedback(weight_ref, g[taxed_bs], signal, intf_noise)


def _kkt_into(out, weights, floor, masks):
    """In place: out <- clip(weights/out - floor, 0, masks).

    On entry out holds the denominators lam*ln2 + t, all > 0; floor is
    (I+sigma)/g. This is the one place the KKT formula is written.
    """
    np.divide(weights, out, out=out)
    out -= floor
    np.maximum(out, 0.0, out=out)
    return np.minimum(out, masks, out=out)


def _kkt(lam, weights, taxes, floor, masks):
    """KKT powers for a denominator lam*ln2 + t of any sign.

    A denominator that is not > 0 (lam = 0 with t = 0) means an unbounded
    water level: the weight there is replaced by inf over a unit denominator,
    and the mask clip is the only thing bounding the result.
    """
    denom = lam * LN2 + taxes
    unbounded = ~(denom > 0)
    out = np.empty(np.broadcast_shapes(np.shape(denom), np.shape(weights), np.shape(floor),
                                       np.shape(masks)))
    out[...] = np.where(unbounded, 1.0, denom)
    return _kkt_into(out, np.where(unbounded, np.inf, weights), floor, masks)


def kkt_power(weight, lam, tax, intf_noise_w, own_gain, mask):
    """Clipped KKT fixed point: [w/(lam*ln2 + t) - (I+sigma)/g] in [0, mask].

    lam = 0 with t = 0 means an unbounded water level; the mask clip is the
    only thing bounding the result then.
    """
    floor = np.asarray(intf_noise_w, dtype=float) / np.asarray(own_gain, dtype=float)
    return _kkt(lam, np.asarray(weight, dtype=float), np.asarray(tax, dtype=float), floor,
                np.asarray(mask, dtype=float))


def allocate_bisection_batch(weights, taxes, intf_noise, own_gains, budgets, masks, noise_w):
    """Lockstep bisection over N base stations at once.

    weights/taxes/intf_noise/own_gains/masks/noise_w: (N, S); budgets: (N,);
    taxes must be >= 0. The first upper bracket is max_s w g/(noise_w ln2),
    doubled until every row undershoots its budget. Returns (p (N, S),
    lam (N,), iters (N,)). Iterations per BS never exceed
    BISECTION_ITER_BOUND.

    Only the rows still searching are evaluated: a row leaves the working
    arrays the iteration it meets its budget within delta. With taxes >= 0
    and lam > 0 every denominator lam*ln2 + t is positive, so the loop needs
    no unbounded-level case; p is evaluated once at the end from each row's
    final lam.
    """
    weights = np.atleast_2d(np.asarray(weights, dtype=float))
    taxes = np.atleast_2d(np.asarray(taxes, dtype=float))
    intf_noise = np.atleast_2d(np.asarray(intf_noise, dtype=float))
    own_gains = np.atleast_2d(np.asarray(own_gains, dtype=float))
    masks = np.atleast_2d(np.asarray(masks, dtype=float))
    budgets = np.atleast_1d(np.asarray(budgets, dtype=float))
    if np.any(budgets <= 0):
        raise ValueError("budgets must be > 0")
    if np.any(taxes < 0):
        raise ValueError("taxes must be >= 0")
    N, S = weights.shape
    noise_w = np.atleast_2d(np.asarray(noise_w, dtype=float))
    floor = intf_noise / own_gains

    delta = BUDGET_RTOL * budgets
    p = _kkt(0.0, weights, taxes, floor, masks)
    lam = np.zeros(N)
    iters = np.zeros(N, dtype=int)
    searching = np.flatnonzero(p.sum(axis=1) > budgets + delta)
    if searching.size == 0:
        return p, lam, iters

    w, t, fl, m = (a[searching] for a in (weights, taxes, floor, masks))
    b, d = budgets[searching], delta[searching]
    with np.errstate(divide="ignore"):
        hi = np.max(w * own_gains[searching] / (noise_w[searching] * LN2), axis=1)
    # ensure the upper bracket undershoots the budget everywhere
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        over = _kkt(hi[:, None], w, t, fl, m).sum(axis=1) > b
        if not over.any():
            break
        hi = np.where(over, hi * 2.0, hi)
    else:
        raise RuntimeError("bisection bracket failure: sum p(hi) > budget")

    rows = searching
    lo = np.zeros(rows.size)
    buf = np.empty((rows.size, S))
    for it in range(1, BISECTION_ITER_BOUND + 1):
        mid = 0.5 * (lo + hi)
        np.add((mid * LN2)[:, None], t, out=buf)
        sm = np.add.reduce(_kkt_into(buf, w, fl, m), axis=1)
        hit = np.abs(sm - b) < d
        if hit.any():
            lam[rows[hit]] = mid[hit]
            iters[rows[hit]] = it
            keep = ~hit
            if not keep.any():
                break
            rows, lo, hi, mid, sm, w, t, fl, m, b, d = (
                a[keep] for a in (rows, lo, hi, mid, sm, w, t, fl, m, b, d))
            buf = buf[:rows.size]
        go_up = sm > b
        lo = np.where(go_up, mid, lo)
        hi = np.where(go_up, hi, mid)
    else:
        # interval exhausted: take the feasible (undershooting) endpoint
        lam[rows] = hi
        iters[rows] = BISECTION_ITER_BOUND

    denom = lam[searching, None] * LN2 + taxes[searching]
    p[searching] = _kkt_into(denom, weights[searching], floor[searching], masks[searching])
    return p, lam, iters


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


def measured_interference(gains, powers, sched, noise_w, total=None):
    """(N, S) interference-plus-noise at each scheduled user, at `powers`.

    The simulator plays the role of the once-per-slot user measurement
    report; entries without a scheduled user are set to 1 (never consumed:
    the mask is zero there). `total` short-circuits the received-power
    einsum when the caller already has it.
    """
    scheduled, user, bs, sub = scheduled_index(sched)
    _, intf_noise = link_state(gains, powers, noise_w, user, bs, sub, total)
    return np.where(scheduled, intf_noise, 1.0)


def scheduled_arrays(gains, sched, weights, noise_w):
    """Per-(bs, subchannel) weight, own gain and noise of the scheduled user."""
    scheduled, user, bs, sub = scheduled_index(sched)
    w = np.where(scheduled, np.asarray(weights)[user], 0.0)
    g = np.where(scheduled, gains[user, bs, sub], 1.0)
    sig = np.where(scheduled, noise_w[user, sub], 1.0)
    return w, g, sig


def allocate(gains, powers, sched, weights, noise_w, taxes, budgets, masks, total=None):
    """One power step for every BS: the KKT allocation for its scheduled
    users, with their interference measured at `powers`.

    taxes: (N, S), zero for selfish water-filling. Unscheduled pairs get a
    zero mask. `total` is the (K, S) received power at `powers`, when the
    caller has it. Returns (p, lam, iters) of allocate_bisection_batch.
    """
    w, g, sig = scheduled_arrays(gains, sched, weights, noise_w)
    intf = measured_interference(gains, powers, sched, noise_w, total=total)
    masks = np.where(sched == NO_USER, 0.0, masks)
    return allocate_bisection_batch(w, taxes, intf, g, budgets, masks, noise_w=sig)


def no_taxes(sched, *_):
    """Tax source of selfish water-filling: zero on every (bs, subchannel)."""
    return np.zeros(sched.shape)


def ground_truth_taxes(sched, gains, weights, noise_w, nbr, powers, total, ref_count):
    """(N, S) taxation recomputed from current ground truth (general algorithm).

    References are ranked by reference.rank_references, as on the table path,
    but on exact current-slot values: F0 is the cross gain, F1 the weight, F2
    the serving-link received power and F3 the rest of `total` (the (K, S)
    received power at `powers`) plus noise. nbr is the (N, B) padded
    neighbor index.
    """
    from .reference import rank_references  # local to avoid cycle

    cand = sched[nbr]
    N, _, S = cand.shape
    # each candidate's gain toward the viewer; where there is none (NO_USER
    # or -1 padding), the wrapped index reads a row the ranking masks
    cross = gains[cand, np.arange(N)[:, None, None], np.arange(S)]
    sel, idx, users = rank_references(nbr, cand, cross, ref_count)
    sel.f1[idx] = np.asarray(weights)[users]
    sel.f2[idx], sel.f3[idx] = link_state(gains, powers, noise_w, users, sel.ref_bs[idx],
                                          idx[1], total)
    return sel.taxes()


def general_algorithm(members, serving, gains, weights, noise_w, taxes, budgets, masks,
                      init_powers, sched_iters=1, power_iters=1, subchannel_bw_hz=1.0,
                      sinr_gap=1.0, allowed=None):
    """One slot's schedule -> tax -> allocate step, shared by every algorithm
    that allocates power; they differ only in the tax source `taxes(sched,
    p, total, signal, intf_noise) -> (N, S)`, called once per power step at
    powers p with `total` the (K, S) received power there. signal and
    intf_noise are each user's serving-link state at the schedule's powers;
    serving is the (K,) serving BS of each user and members the (N, C)
    padded cell members (Network.member_index).

    The outer loop reschedules at the current powers, the inner one re-taxes
    and re-allocates until no power moves by P_TOL or a cap is hit. Returns
    (sched, powers, lam, iter_max): lam is the budget multiplier of the
    bisection that produced `powers`, iter_max the largest bisection
    iteration count over the slot.
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
        for i in range(power_iters):
            if i > 0:
                total = np.einsum("kms,ms->ks", gains, p)
            p_new, lam, iters = allocate(gains, p, sched, weights, noise_w,
                                         taxes(sched, p, total, signal, intf_noise),
                                         budgets, masks, total=total)
            iter_max = max(iter_max, int(iters.max()))
            # no convergence test after the last pass (wf and refim make just one)
            done = i + 1 == power_iters or not p.size or np.max(np.abs(p_new - p)) < P_TOL
            p = p_new
            if done:
                break
    return sched, p, lam, iter_max
