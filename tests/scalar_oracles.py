"""Scalar reference formulas for the tests: one link, one reference, one
KKT evaluation at a time, written independently of the vectorized kernels in
`refimsim` that they check."""

import math

import numpy as np


def sinr(gains, powers, user, bs, subchannel, noise_w):
    """Received SINR of `user` from `bs`: signal over other-BS power + noise."""
    g = gains[user, :, subchannel]
    p = powers[:, subchannel]
    signal = g[bs] * p[bs]
    interference = float(g @ p) - signal
    return signal / (interference + noise_w[user, subchannel])


def taxation_term(weight_ref, ref_user, taxed_bs, serving_bs, gains, powers, noise_w,
                  subchannel):
    """Taxation of `taxed_bs` by one reference user, from ground-truth gains and
    powers: weight x cross gain x SINR / total received power."""
    g = gains[ref_user, :, subchannel]
    p = powers[:, subchannel]
    signal = g[serving_bs] * p[serving_bs]
    intf_noise = float(g @ p) - signal + noise_w[ref_user, subchannel]
    return weight_ref * g[taxed_bs] * (signal / intf_noise) / (signal + intf_noise)


def kkt_power(weight, lam, tax, intf_noise_w, own_gain, mask):
    """Clipped KKT fixed point [w/(lam*ln2 + t) - (I+sigma)/g] in [0, mask];
    a denominator that is not > 0 means an unbounded water level, which only
    the mask clip bounds."""
    weight = np.asarray(weight, dtype=float)
    denom = lam * math.log(2.0) + np.asarray(tax, dtype=float)
    with np.errstate(divide="ignore"):
        level = np.where(denom > 0, weight / np.where(denom > 0, denom, 1.0), np.inf)
    p = level - np.asarray(intf_noise_w, dtype=float) / np.asarray(own_gain, dtype=float)
    return np.clip(p, 0.0, mask)
