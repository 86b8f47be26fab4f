"""Single-snapshot drivers: settle each algorithm on a frozen channel and
score it against the brute-force optimum."""

import numpy as np

from . import power
from .oracle import brute_force, evaluate_objective, GridSpec
from .scheduling import rate, schedule_users, serving_vector, sinr_matrix


def settle_algorithm(algo, gains, noise_w, cells, weights, budgets, masks,
                     neighbor_sets, iters=60, subchannel_bw_hz=1.0, sinr_gap=1.0):
    """Run the loop-free slot pipeline repeatedly on a frozen snapshot.

    The previous-slot powers feed each next pass, which is how the
    step-by-step algorithm accumulates its implicit iterations. Returns
    (objective, powers, schedule).
    """
    N, S = masks.shape
    budgets = np.asarray(budgets, dtype=float)
    if algo == "eq":
        p = np.stack([power.equal_power(budgets[n], masks[n]) for n in range(N)])
        gamma = sinr_matrix(gains, p, serving_vector(cells, gains.shape[0]), noise_w)
        sched = schedule_users(cells, np.asarray(weights), rate(gamma, sinr_gap, subchannel_bw_hz))
    elif algo in ("wf", "refim"):
        ref_count = 1 if algo == "refim" else 0
        p = power.initial_power("uniform", budgets, masks)
        sched = None
        for _ in range(iters):
            sched, p, _, _ = power.general_algorithm(
                cells, gains, weights, noise_w, neighbor_sets, budgets, masks, p,
                sched_iters=1, power_iters=1, ref_count=ref_count,
                subchannel_bw_hz=subchannel_bw_hz, sinr_gap=sinr_gap)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    h = evaluate_objective(gains, noise_w, weights, p, sched, subchannel_bw_hz, sinr_gap)
    return h, p, sched


def compare_to_oracle(gains, noise_w, cells, weights, budgets, masks, neighbor_sets,
                      levels=9, algos=("eq", "wf", "refim"), iters=60,
                      subchannel_bw_hz=1.0, sinr_gap=1.0):
    """Oracle optimum plus each algorithm's objective and ratio to it."""
    best = brute_force(gains, noise_w, cells, weights, budgets, masks,
                       grid=GridSpec(levels=levels),
                       subchannel_bw_hz=subchannel_bw_hz, sinr_gap=sinr_gap)
    out = {"oracle": best.objective}
    for algo in algos:
        h, _, _ = settle_algorithm(algo, gains, noise_w, cells, weights, budgets,
                                   masks, neighbor_sets, iters=iters,
                                   subchannel_bw_hz=subchannel_bw_hz, sinr_gap=sinr_gap)
        out[algo] = h
    return out
