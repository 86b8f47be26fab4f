"""Reference-user selection and the backhaul feedback protocol.

Candidate tables carry four per-user quantities, time-averaged over the
feedback period: cross gains toward each neighbor BS (F0), the scheduling
weight (F1), the received signal strength (F2) and the interference-plus-
noise level (F3). Between refreshes neighbors read stale entries. The only
per-slot exchange is the scheduled-user indices; femto cells are
represented to outsiders by one fixed user.
"""

from dataclasses import dataclass, field

import numpy as np

from .power import taxation_from_feedback
from .scheduling import NO_USER, link_state
from .topology import TIER_FEMTO, classify_edge_users, pad_neighbor_sets


@dataclass
class FeedbackConfig:
    period_slots: int = 1
    edge_only: bool = False
    edge_threshold_db: float = 6.0
    femto_overhear: bool = True
    ref_count: int = 1                      # M reference users per subchannel
    tier_period_overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.period_slots < 1:
            raise ValueError("period_slots must be >= 1")
        if self.ref_count < 0:
            raise ValueError("ref_count must be >= 0")

    def period_for(self, tier):
        return self.tier_period_overrides.get(tier, self.period_slots)


def representative_users(network):
    """(N,) fixed stand-in user per femto cell (lowest index), else NO_USER."""
    rep = np.full(network.n_bs, NO_USER, dtype=int)
    for n, bs in enumerate(network.base_stations):
        if bs.tier == TIER_FEMTO:
            ids = network.users_of(n)
            if ids:
                rep[n] = min(ids)
    return rep


@dataclass
class NeighborViews:
    """Per-viewer-class effective scheduled indices of every target BS."""
    macro_view: np.ndarray  # (N, S) what a macro viewer sees
    femto_view: np.ndarray  # (N, S) what a femto viewer sees

    def for_viewer(self, network, viewer):
        if network.base_stations[viewer].tier == TIER_FEMTO:
            return self.femto_view
        return self.macro_view


def exchange_scheduled_indices(network, sched, slot, config):
    """Per-slot index exchange with the femto simplifications.

    Macro targets broadcast exact indices; femto targets are replaced by
    their fixed representative (no per-slot femto feedback); femto viewers
    learn macro indices only by overhearing.
    """
    sched = np.asarray(sched, dtype=int)
    rep = representative_users(network)
    is_femto = np.array([b.tier == TIER_FEMTO for b in network.base_stations])
    macro_view = np.where(is_femto[:, None], rep[:, None], sched)
    if config.femto_overhear:
        femto_view = macro_view
    else:
        hidden = np.full_like(sched, NO_USER)
        femto_view = np.where(is_femto[:, None], rep[:, None], hidden)
    return NeighborViews(macro_view=macro_view, femto_view=femto_view)


class CandidateTables:
    """Published (possibly stale) candidate records plus running accumulators."""

    def __init__(self, network):
        K, N, S = network.n_users, network.n_bs, network.subchannel_count
        self.acc_f0 = np.zeros((K, N, S))
        self.acc_f1 = np.zeros(K)
        self.acc_f2 = np.zeros((K, S))
        self.acc_f3 = np.zeros((K, S))
        self.acc_count = np.zeros(K, dtype=int)
        self.pub_f0 = np.zeros((K, N, S))
        self.pub_f1 = np.zeros(K)
        self.pub_f2 = np.ones((K, S))
        self.pub_f3 = np.ones((K, S))
        self.pub_valid = np.zeros(K, dtype=bool)
        self.last_update = np.full(K, -1, dtype=int)

    def accumulate(self, gains, powers, noise_w, weights, serving, total=None):
        """Per-slot user measurements at the evaluation powers."""
        signal, intf_noise = link_state(gains, powers, noise_w, np.arange(gains.shape[0]),
                                        serving, slice(None), total)
        self.acc_f0 += gains
        self.acc_f1 += weights
        self.acc_f2 += signal
        self.acc_f3 += intf_noise
        self.acc_count += 1

    def publish(self, bs_users, slot):
        """Average the window and expose it; restart the window for the cell."""
        ids = np.asarray(bs_users, dtype=int)
        if ids.size == 0:
            return
        cnt = np.maximum(self.acc_count[ids], 1).astype(float)
        self.pub_f0[ids] = self.acc_f0[ids] / cnt[:, None, None]
        self.pub_f1[ids] = self.acc_f1[ids] / cnt
        self.pub_f2[ids] = self.acc_f2[ids] / cnt[:, None]
        self.pub_f3[ids] = self.acc_f3[ids] / cnt[:, None]
        self.pub_valid[ids] = True
        self.last_update[ids] = slot

    def withdraw(self, bs_users):
        self.pub_valid[np.asarray(bs_users, dtype=int)] = False

    def reset_window(self, bs_users):
        ids = np.asarray(bs_users, dtype=int)
        self.acc_f0[ids] = 0.0
        self.acc_f1[ids] = 0.0
        self.acc_f2[ids] = 0.0
        self.acc_f3[ids] = 0.0
        self.acc_count[ids] = 0

    def record(self, user):
        """One user's published candidate record (introspection/tests)."""
        return {
            "f0": self.pub_f0[user].copy(),
            "f1": float(self.pub_f1[user]),
            "f2": self.pub_f2[user].copy(),
            "f3": self.pub_f3[user].copy(),
            "valid": bool(self.pub_valid[user]),
            "last_update_slot": int(self.last_update[user]),
        }

    def staleness(self, slot):
        """(K,) slots since last publish (only meaningful where pub_valid)."""
        return slot - self.last_update


def refresh_candidate_tables(network, tables, slot, config, mean_gains=None,
                             enabled=None, trace=None):
    """Publish each due cell's averaged records; macro cells may publish
    only their edge users, femto cells always publish everyone.

    Cells whose BS is not running the reference-based algorithm publish
    nothing (partial deployment). Returns the number of publish events.
    """
    cells = network.cells()
    events = 0
    edge_flags = None
    for n, bs in enumerate(network.base_stations):
        period = config.period_for(bs.tier)
        if slot % period != 0:
            continue
        ids = cells[n]
        if not ids:
            continue
        if enabled is not None and not enabled[n]:
            tables.withdraw(ids)
            tables.reset_window(ids)
            continue
        publish_ids = ids
        if config.edge_only and bs.tier != TIER_FEMTO:
            if edge_flags is None:
                if mean_gains is None:
                    raise ValueError("edge_only refresh needs mean_gains")
                edge_flags = classify_edge_users(network, mean_gains,
                                                 config.edge_threshold_db)
            publish_ids = [k for k in ids if edge_flags[k]]
            tables.withdraw([k for k in ids if not edge_flags[k]])
        tables.publish(publish_ids, slot)
        tables.reset_window(ids)
        events += 1
        if trace is not None and publish_ids:
            nbytes = len(publish_ids) * network.subchannel_count * 4 * 4
            for m in network.neighbor_sets[n]:
                trace.append((slot, n, m, "table_refresh", nbytes))
    return events


@dataclass
class ReferenceSelection:
    """Selected references per (bs, subchannel, rank) with their table fields."""
    ref_bs: np.ndarray     # (N, S, M) int, -1 where absent
    ref_user: np.ndarray   # (N, S, M) int
    f0: np.ndarray         # (N, S, M) cross gain toward the selecting BS
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray

    def valid(self):
        return self.ref_bs >= 0

    def taxes(self, bs=None):
        """Summed taxation per subchannel; (S,) for one BS or (N, S) for all."""
        v = self.valid()
        t = np.zeros_like(self.f0)
        if v.any():
            t[v] = taxation_from_feedback(self.f1[v], self.f0[v], self.f2[v], self.f3[v])
        total = t.sum(axis=2)
        return total if bs is None else total[bs]


def select_references(network, views, tables, count, enabled=None):
    """ReferenceSelection for every BS at once (engine path).

    Each viewer reads the view of its class (femto viewers read femto_view)
    and ranks the published candidates by their cross gain toward itself;
    rows of BSs that are not `enabled` stay empty.
    """
    nbr = pad_neighbor_sets(network.neighbor_sets)
    femto = np.array([b.tier == TIER_FEMTO for b in network.base_stations])
    cand = views.macro_view[nbr]                       # (N, B, S)
    cand[femto] = views.femto_view[nbr[femto]]
    usable = tables.pub_valid[cand]
    if enabled is not None:
        usable &= np.asarray(enabled, dtype=bool)[:, None, None]
    cand = np.where(usable, cand, NO_USER)
    sel, idx, users = rank_references(nbr, cand, tables.pub_f0, count)
    s = idx[1]
    sel.f1[idx] = tables.pub_f1[users]
    sel.f2[idx] = tables.pub_f2[users, s]
    sel.f3[idx] = tables.pub_f3[users, s]
    return sel


def rank_references(nbr, cand, cross_gains, count):
    """Keep the `count` strongest candidates per (viewer, subchannel).

    nbr: (N, B) neighbor ids padded with -1. cand: (N, B, S) candidate user
    of each neighbor, NO_USER where there is none. cross_gains: (K, N, S)
    gain of user k toward BS n; candidates are ranked by their gain toward
    the viewer, and ties keep neighbor order (stable sort).

    Returns (selection, (n, s, m), users): the selection has ref_bs, ref_user
    and f0 set and f1-f3 at their defaults; (n, s, m) index its valid
    entries in C order and users holds the reference user of each, so the
    caller fills f1-f3 from its own source.
    """
    N, _, S = cand.shape
    valid = (cand != NO_USER) & (nbr >= 0)[:, :, None]
    ksafe = np.where(valid, cand, 0)
    cross = cross_gains[ksafe, np.arange(N)[:, None, None], np.arange(S)]
    key = np.where(valid, cross, -np.inf)
    order = np.argsort(-key, axis=1, kind="stable")[:, :count]   # (N, M, S)
    n, s, m = np.nonzero(np.take_along_axis(valid, order, axis=1).transpose(0, 2, 1))
    b = order[n, m, s]                           # neighbor position of each reference
    users = ksafe[n, b, s]
    sel = _empty_selection(N, S, max(count, 1))
    sel.ref_bs[n, s, m] = nbr[n, b]
    sel.ref_user[n, s, m] = users
    sel.f0[n, s, m] = cross[n, b, s]
    return sel, (n, s, m), users


def _empty_selection(N, S, M):
    return ReferenceSelection(
        ref_bs=np.full((N, S, M), -1, dtype=int),
        ref_user=np.full((N, S, M), NO_USER, dtype=int),
        f0=np.zeros((N, S, M)), f1=np.zeros((N, S, M)),
        f2=np.ones((N, S, M)), f3=np.ones((N, S, M)),
    )
