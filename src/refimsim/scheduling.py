"""SINR/rate evaluation, proportional-fair weights, per-subchannel scheduling.

Each BS independently picks, per subchannel, the associated user maximizing
weight * achievable rate at the evaluation powers; this per-(bs, subchannel)
argmax attains the joint scheduling optimum for any fixed power matrix.
"""

import numpy as np

NO_USER = -1


def link_state(gains, powers, noise_w, user, bs, sub, total=None):
    """Signal and interference-plus-noise of the links bs -> user on sub.

    user, bs and sub index gains[user, bs, sub]: broadcastable index arrays,
    or sub = slice(None) for every subchannel of (user, bs) pairs. `total`
    is the (K, S) received power at `powers`; the einsum is computed here
    when the caller does not have it.
    """
    if total is None:
        total = np.einsum("kms,ms->ks", gains, powers)
    signal = gains[user, bs, sub] * powers[bs, sub]
    return signal, total[user, sub] - signal + noise_w[user, sub]


def rate(gamma, gap=1.0, subchannel_bw_hz=1.0):
    """Achievable rate in bps: bw * log2(1 + gamma/gap)."""
    return subchannel_bw_hz * np.log2(1.0 + np.asarray(gamma, dtype=float) / gap)


def schedule_users(members, weights, rate_ks, allowed=None):
    """(N, S) scheduled user per (bs, subchannel): the cell's argmax of
    weight*rate, NO_USER where disallowed or where the cell is empty.

    members: (N, C) user ids of each cell, ascending and padded with -1
    (Network.member_index), so that np.argmax's first-hit tie rule lands on
    the lowest user index. allowed: optional (N, S) bool mask restricting
    usable subchannels (spectrum splitting).
    """
    # one row per user plus a last, -inf row that the -1 padding gathers
    score = np.full((rate_ks.shape[0] + 1, rate_ks.shape[1]), -np.inf)
    np.multiply(weights[:, None], rate_ks, out=score[:-1])
    sched = members[np.arange(members.shape[0])[:, None],
                    np.take(score, members, axis=0).argmax(axis=1)]
    return sched if allowed is None else np.where(allowed, sched, NO_USER)


def schedule_at(gains, powers, noise_w, serving, members, weights, gap=1.0,
                subchannel_bw_hz=1.0, allowed=None):
    """Schedule every cell at the evaluation `powers`; serving is the (K,)
    serving BS of each user and members the (N, C) padded cell members.
    Returns (sched, total, signal, intf_noise): the (N, S) schedule, the
    (K, S) received power, and each user's (K, S) serving-link signal and
    interference-plus-noise, all at `powers`."""
    total = np.einsum("kms,ms->ks", gains, powers)
    signal, intf_noise = link_state(gains, powers, noise_w, np.arange(gains.shape[0]), serving,
                                    slice(None), total)
    sched = schedule_users(members, weights, rate(signal / intf_noise, gap, subchannel_bw_hz),
                           allowed=allowed)
    return sched, total, signal, intf_noise


def scheduled_index(sched):
    """(scheduled, user, bs, sub) for an (N, S) schedule: the mask of pairs
    with a scheduled user and the broadcastable link index of every pair,
    user 0 standing in where nobody is scheduled. Built once per schedule and
    passed to every function that reads the scheduled links."""
    N, S = sched.shape
    scheduled = sched != NO_USER
    return scheduled, np.where(scheduled, sched, 0), np.arange(N)[:, None], np.arange(S)


def served_rates(gains, powers, index, noise_w, gap=1.0, subchannel_bw_hz=1.0):
    """(K,) per-user sum rate actually served under the committed powers;
    index is the schedule's `scheduled_index`."""
    scheduled, user, bs, sub = index
    signal, intf_noise = link_state(gains, powers, noise_w, user, bs, sub)
    r = rate(signal / intf_noise, gap, subchannel_bw_hz)
    return np.bincount(user[scheduled], weights=r[scheduled], minlength=gains.shape[0])


class UserStates:
    """Array-backed per-user scheduler state: the EWMA surrogate of long-term
    throughput R and the marginal-utility weights R^-alpha (alpha = 1 is the
    log-utility 1/R)."""

    def __init__(self, n_users, initial_throughput_bps=1e-3, beta=1e-3, alpha=1.0):
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        self.avg_throughput_bps = np.full(n_users, float(initial_throughput_bps))
        self.beta = beta
        self.alpha = alpha

    def weights(self):
        r = self.avg_throughput_bps
        if (r <= 0).any():
            raise ValueError("average throughputs must be > 0")
        if self.alpha == 1.0:
            return 1.0 / r
        return r ** (-self.alpha)

    def update(self, served_bps):
        """R <- (1-beta)*R + beta*served."""
        self.avg_throughput_bps = ((1.0 - self.beta) * self.avg_throughput_bps
                                   + self.beta * np.asarray(served_bps, dtype=float))
