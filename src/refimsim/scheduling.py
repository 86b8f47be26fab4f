"""SINR/rate evaluation, proportional-fair weights, per-subchannel scheduling.

Each BS independently picks, per subchannel, the associated user maximizing
weight * achievable rate at the evaluation powers; this per-(bs, subchannel)
argmax attains the joint scheduling optimum for any fixed power matrix.
"""

import numpy as np

NO_USER = -1


def sinr(gains, powers, user, bs, subchannel, noise_w):
    """Received SINR of `user` from `bs`: signal over other-BS power + noise."""
    g = gains[user, :, subchannel]
    p = powers[:, subchannel]
    signal = g[bs] * p[bs]
    interference = float(g @ p) - signal
    return signal / (interference + noise_w[user, subchannel])


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


def sinr_matrix(gains, powers, serving, noise_w, total=None):
    """(K, S) SINR of every user toward its serving BS at the given powers."""
    signal, intf_noise = link_state(gains, powers, noise_w, np.arange(gains.shape[0]),
                                    serving, slice(None), total)
    return signal / intf_noise


def rate(gamma, gap=1.0, subchannel_bw_hz=1.0):
    """Achievable rate in bps: bw * log2(1 + gamma/gap)."""
    return subchannel_bw_hz * np.log2(1.0 + np.asarray(gamma, dtype=float) / gap)


def pf_weights(avg_throughput_bps, alpha=1.0):
    """Marginal-utility weights: R^-alpha (alpha=1 is the log-utility 1/R)."""
    r = np.asarray(avg_throughput_bps, dtype=float)
    if np.any(r <= 0):
        raise ValueError("average throughputs must be > 0")
    if alpha == 1.0:
        return 1.0 / r
    return r ** (-alpha)


def schedule_cell(user_ids, weights, rate_ks):
    """Per-subchannel argmax of weight*rate within one cell; ties -> lowest id.

    user_ids must be sorted ascending so np.argmax's first-hit tie rule
    lands on the lowest user index.
    """
    ids = np.asarray(user_ids, dtype=int)
    metric = weights[ids, None] * rate_ks[ids, :]
    return ids[np.argmax(metric, axis=0)]


def schedule_users(cells, weights, rate_ks, allowed=None):
    """(N, S) scheduled user per (bs, subchannel); NO_USER where disallowed.

    allowed: optional (N, S) bool mask restricting usable subchannels
    (spectrum splitting); cells lists must be sorted ascending.
    """
    n_bs = len(cells)
    S = rate_ks.shape[1]
    sched = np.full((n_bs, S), NO_USER, dtype=int)
    for n, ids in enumerate(cells):
        if not ids:
            continue
        row = schedule_cell(ids, weights, rate_ks)
        if allowed is not None:
            row = np.where(allowed[n], row, NO_USER)
        sched[n] = row
    return sched


def scheduled_index(sched):
    """(scheduled, user, bs, sub) for an (N, S) schedule: the mask of pairs
    with a scheduled user and the broadcastable link index of every pair,
    user 0 standing in where nobody is scheduled."""
    N, S = sched.shape
    scheduled = sched != NO_USER
    return scheduled, np.where(scheduled, sched, 0), np.arange(N)[:, None], np.arange(S)


def serving_vector(cells, n_users):
    """(K,) serving BS of each user, from the per-BS member lists."""
    serving = np.zeros(n_users, dtype=int)
    for n, ids in enumerate(cells):
        for k in ids:
            serving[k] = n
    return serving


def served_rates(gains, powers, sched, noise_w, gap=1.0, subchannel_bw_hz=1.0, total=None):
    """(K,) per-user sum rate actually served under the committed powers."""
    scheduled, user, bs, sub = scheduled_index(sched)
    signal, intf_noise = link_state(gains, powers, noise_w, user, bs, sub, total)
    r = rate(signal / intf_noise, gap, subchannel_bw_hz)
    out = np.zeros(gains.shape[0])
    np.add.at(out, user[scheduled], r[scheduled])
    return out


def update_throughput(avg_bps, served_bps, beta):
    """EWMA surrogate of long-term throughput: (1-b)*R + b*served."""
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must be in (0, 1]")
    return (1.0 - beta) * np.asarray(avg_bps, dtype=float) + beta * np.asarray(served_bps, dtype=float)


class UserStates:
    """Array-backed per-user scheduler state: EWMA throughput and weights."""

    def __init__(self, n_users, initial_throughput_bps=1e-3, beta=1e-3, alpha=1.0):
        self.avg_throughput_bps = np.full(n_users, float(initial_throughput_bps))
        self.beta = beta
        self.alpha = alpha

    def weights(self):
        return pf_weights(self.avg_throughput_bps, self.alpha)

    def update(self, served_bps):
        self.avg_throughput_bps = update_throughput(self.avg_throughput_bps, served_bps, self.beta)
