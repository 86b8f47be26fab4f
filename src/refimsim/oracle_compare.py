"""Single-snapshot drivers: settle each algorithm on a frozen channel and
score it against the brute-force optimum."""

import numpy as np

from . import power
from .oracle import brute_force, evaluate_objective, serving_of, GridSpec
from .scheduling import schedule_at
from .topology import pad_index_lists


def settle_algorithm(algo, gains, noise_w, cells, weights, budgets, masks,
                     neighbor_sets, iters=60, subchannel_bw_hz=1.0, sinr_gap=1.0):
    """Run the loop-free slot step repeatedly on a frozen snapshot.

    The previous-slot powers feed each next pass, which is how the
    step-by-step algorithm accumulates its implicit iterations. `eq` only
    schedules, at the equal split. Returns (objective, powers, schedule).
    """
    weights = np.asarray(weights)
    serving = serving_of(cells, gains.shape[0])
    members = pad_index_lists(cells, width=1)
    p = power.initial_power("uniform", budgets, masks)
    if algo == "eq":
        sched = schedule_at(gains, p, noise_w, serving, members, weights, sinr_gap,
                            subchannel_bw_hz)[0]
    elif algo in ("wf", "refim"):
        nbr = pad_index_lists(neighbor_sets)

        def refim_taxes(sched, p, total, *_):
            return power.ground_truth_taxes(sched, gains, weights, noise_w, nbr, p, total, 1)

        taxes = refim_taxes if algo == "refim" else power.no_taxes
        for _ in range(iters):
            sched, p, _, _ = power.general_algorithm(
                members, serving, gains, weights, noise_w, taxes, budgets, masks, p,
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
