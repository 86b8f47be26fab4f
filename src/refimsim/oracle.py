"""Exhaustive joint optimizer for tiny instances, and the single-snapshot
drivers that score each algorithm against it.

Searches a per-subchannel power grid for every BS jointly with every
feasible user-to-subchannel schedule, maximizing the weighted sum rate.
Serves as the near-optimality yardstick for the distributed algorithms.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import power
from .scheduling import schedule_at, scheduled_index, served_rates
from .topology import pad_index_lists

MAX_BS = 3
MAX_SUBCHANNELS = 2
MAX_USERS_PER_CELL = 2
# Power x schedule combinations brute_force searches at most.
MAX_COMBINATIONS = 10_000_000
SETTLE_PASSES = 60


class InstanceTooLarge(ValueError):
    pass


def combination_count(n_bs, n_sub, cells, levels):
    count = levels ** (n_bs * n_sub)
    for ids in cells:
        count *= max(1, len(ids)) ** n_sub
    return count


def serving_of(cells, n_users):
    """(K,) serving BS of each user of an instance given as cells lists."""
    serving = np.zeros(n_users, dtype=int)
    for n, ids in enumerate(cells):
        serving[ids] = n
    return serving


def evaluate_objective(gains, noise_w, weights, powers, sched, subchannel_bw_hz=1.0,
                       sinr_gap=1.0):
    """Weighted sum rate of a (powers, schedule) pair; the shared scorer for
    oracle and algorithm outputs."""
    rates = served_rates(gains, powers, scheduled_index(sched), noise_w, sinr_gap,
                         subchannel_bw_hz)
    return float(np.asarray(weights, dtype=float) @ rates)


def enumerate_schedules(cells, n_sub):
    """All feasible schedule maps, lexicographic; empty slots are excluded
    because positive weights make scheduling someone weakly optimal."""
    per_slot = []
    for ids in cells:
        for _ in range(n_sub):
            per_slot.append(sorted(ids))
    n_bs = len(cells)
    for combo in itertools.product(*per_slot):
        yield np.array(combo, dtype=int).reshape(n_bs, n_sub)


def _bs_power_candidates(levels, masks_row, budget):
    """Per-BS grid vectors: levels^S per-subchannel combos within the budget."""
    axes = [np.linspace(0.0, m, levels) if m > 0 else np.zeros(1) for m in masks_row]
    combos = np.array(list(itertools.product(*axes)))
    return combos[combos.sum(axis=1) <= budget * (1.0 + 1e-12)]


@dataclass
class OracleResult:
    objective: float
    powers: np.ndarray
    schedule: np.ndarray


def brute_force(gains, noise_w, cells, weights, budgets, masks, levels=9,
                subchannel_bw_hz=1.0, sinr_gap=1.0):
    """Exact maximum of the weighted sum rate over the discrete feasible set:
    `levels` (>= 2) power points per subchannel spanning [0, mask].

    Ties break lexicographically (first hit in enumeration order). Raises
    InstanceTooLarge with a size report when the search space exceeds
    MAX_COMBINATIONS.
    """
    if levels < 2:
        raise ValueError("levels must be >= 2")
    gains = np.asarray(gains, dtype=float)
    noise_w = np.asarray(noise_w, dtype=float)
    weights = np.asarray(weights, dtype=float)
    budgets = np.asarray(budgets, dtype=float)
    masks = np.asarray(masks, dtype=float)
    K, N, S = gains.shape
    if np.any(weights <= 0):
        raise ValueError("weights must be > 0")
    if N > MAX_BS or S > MAX_SUBCHANNELS or any(len(c) > MAX_USERS_PER_CELL for c in cells):
        raise InstanceTooLarge(
            f"instance N={N}, S={S}, cell sizes {[len(c) for c in cells]} exceeds "
            f"oracle limits (N<={MAX_BS}, S<={MAX_SUBCHANNELS}, |K_n|<={MAX_USERS_PER_CELL})")
    total = combination_count(N, S, cells, levels)
    if total > MAX_COMBINATIONS:
        raise InstanceTooLarge(
            f"{total} power x schedule combinations exceed the cap "
            f"{MAX_COMBINATIONS} (levels={levels}, N={N}, S={S})")

    per_bs = [_bs_power_candidates(levels, masks[n], budgets[n]) for n in range(N)]
    counts = [c.shape[0] for c in per_bs]
    # joint power tensor (C, N, S) in lexicographic order over BS grids
    joint = np.zeros((int(np.prod(counts)), N, S))
    for n, cand in enumerate(per_bs):
        reps_inner = int(np.prod(counts[n + 1:])) if n + 1 < N else 1
        reps_outer = int(np.prod(counts[:n])) if n > 0 else 1
        joint[:, n, :] = np.repeat(np.tile(cand, (reps_outer, 1)), reps_inner, axis=0)

    # weighted rate of every user from its serving BS for every joint power combo
    serving = serving_of(cells, K)
    totals = np.einsum("kms,cms->cks", gains, joint)
    signal = gains[np.arange(K), serving] * joint[:, serving]       # (C, K, S)
    gamma = signal / (totals - signal + noise_w)
    wr = weights[:, None] * subchannel_bw_hz * np.log2(1.0 + gamma / sinr_gap)

    best_h = -np.inf
    best_c = 0
    best_sched = None
    cols = np.arange(S)
    for sched in enumerate_schedules(cells, S):
        h = wr[:, sched, cols].sum(axis=(1, 2))  # (C,)
        c = int(np.argmax(h))                    # first max: lexicographic ties
        if h[c] > best_h + 1e-15:
            best_h = float(h[c])
            best_c = c
            best_sched = sched
    return OracleResult(objective=best_h, powers=joint[best_c].copy(), schedule=best_sched)


def settle_algorithm(algo, gains, noise_w, cells, weights, budgets, masks,
                     neighbor_sets, subchannel_bw_hz=1.0, sinr_gap=1.0):
    """Run the loop-free slot step SETTLE_PASSES times on a frozen snapshot.

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
        for _ in range(SETTLE_PASSES):
            sched, _, p, _, _ = power.general_algorithm(
                members, serving, gains, weights, noise_w, taxes, budgets, masks, p,
                subchannel_bw_hz=subchannel_bw_hz, sinr_gap=sinr_gap)
    else:
        raise ValueError(f"unknown algorithm {algo!r}")
    h = evaluate_objective(gains, noise_w, weights, p, sched, subchannel_bw_hz, sinr_gap)
    return h, p, sched


def compare_to_oracle(gains, noise_w, cells, weights, budgets, masks, neighbor_sets,
                      levels=9, subchannel_bw_hz=1.0, sinr_gap=1.0):
    """Objectives keyed "oracle" (the brute-force optimum), "eq", "wf" and
    "refim" (each algorithm settled by settle_algorithm)."""
    best = brute_force(gains, noise_w, cells, weights, budgets, masks, levels,
                       subchannel_bw_hz, sinr_gap)
    out = {"oracle": best.objective}
    for algo in ("eq", "wf", "refim"):
        out[algo] = settle_algorithm(algo, gains, noise_w, cells, weights, budgets, masks,
                                     neighbor_sets, subchannel_bw_hz, sinr_gap)[0]
    return out
