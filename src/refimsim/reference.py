"""Reference-user selection and the backhaul feedback protocol.

Candidate tables carry four per-user quantities, time-averaged over the
feedback period: cross gains toward each viewer of the user's cell, the BSs
that list it as a neighbor (F0), the scheduling weight (F1), the received
signal strength (F2) and the interference-plus-noise level (F3). Between
refreshes neighbors read stale entries. The only per-slot exchange is the
scheduled-user indices; femto cells are represented to outsiders by one
fixed user.
"""

from dataclasses import dataclass

import numpy as np

from .power import taxation_from_feedback
from .scheduling import NO_USER
from .topology import TIER_FEMTO, classify_edge_users


def representative_users(network):
    """(N,) fixed stand-in user per femto cell (its first, lowest-index
    member), else NO_USER; an empty cell's first member is already NO_USER."""
    femto = np.array([b.tier == TIER_FEMTO for b in network.base_stations], dtype=bool)
    return np.where(femto, network.member_index[:, 0], NO_USER)


def viewer_index(nbr):
    """Viewers of every BS from the (N, B) padded neighbor index.

    Returns (viewers, pos): viewers (N, V) holds the ids of the BSs that list
    each BS as a neighbor, ascending and padded with -1; pos (N, B) is the
    position of viewer n in the viewer list of its neighbor nbr[n, j] (0 at
    padding). Neighbor sets need not be symmetric.
    """
    n, j = np.nonzero(nbr >= 0)              # ascending viewer n
    target = nbr[n, j]
    order = np.argsort(target, kind="stable")
    counts = np.bincount(target, minlength=nbr.shape[0])
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - (np.cumsum(counts) - counts)[target[order]]
    viewers = np.full((nbr.shape[0], counts.max(initial=0)), -1, dtype=int)
    viewers[target, rank] = n
    pos = np.zeros_like(nbr)
    pos[n, j] = rank
    return viewers, pos


@dataclass
class NeighborViews:
    """Per-viewer-class effective scheduled indices of every target BS."""
    macro_view: np.ndarray  # (N, S) what a macro viewer sees
    femto_view: np.ndarray  # (N, S) what a femto viewer sees


def exchange_scheduled_indices(sched, rep, scenario):
    """Per-slot index exchange with the femto simplifications.

    rep is the (N,) `representative_users` array, built once per run.
    Macro targets broadcast exact indices; femto targets are replaced by
    their fixed representative (no per-slot femto feedback); femto viewers
    learn macro indices only by overhearing. A femto cell without users has
    no representative and nothing scheduled, so it shows NO_USER either way.
    Overhearing is the scenario's `femto_overhear`.
    """
    stand_in = np.repeat(rep[:, None], sched.shape[1], axis=1)
    macro_view = np.where(stand_in != NO_USER, stand_in, sched)
    return NeighborViews(macro_view=macro_view,
                         femto_view=macro_view if scenario.femto_overhear else stand_in)


class CandidateTables:
    """Published (possibly stale) candidate records plus running accumulators,
    with the run's fixed layout: each user's serving BS, the femto BSs, the
    (N, B) padded neighbor ids and the rows of F0.

    F0 holds one (S,) row per (user, viewer) pair: user k's gains toward the
    viewers of its cell (`viewer_index`), the only BSs that ever rank it, in
    viewer order from row f0_start[k] on; f0_user is the owner of each row.
    Viewer n reads a candidate k of its neighbor nbr[n, j] at row
    f0_start[k] + nbr_pos[n, j]. No row is padding: on hetnet10 a macro cell
    has 13-16 viewers and a femto cell 1-2.
    """

    def __init__(self, network):
        K, N, S = network.n_users, network.n_bs, network.subchannel_count
        self.serving = network.serving
        self.femto = np.array([b.tier == TIER_FEMTO for b in network.base_stations], dtype=bool)
        self.nbr = network.neighbor_index
        viewers, self.nbr_pos = viewer_index(self.nbr)
        user_viewers = viewers[self.serving]                # (K, V), padded at the end
        self.f0_user, j = np.nonzero(user_viewers >= 0)
        counts = np.bincount(self.f0_user, minlength=K)
        self.f0_start = np.cumsum(counts) - counts
        # the rows of the gains, viewed as (K * N, S), that accumulate adds to F0
        self.f0_rows = self.f0_user * N + user_viewers[self.f0_user, j]
        P = self.f0_user.size
        self.acc_f0 = np.zeros((P, S))
        self.acc_f1 = np.zeros(K)
        self.acc_f2 = np.zeros((K, S))
        self.acc_f3 = np.zeros((K, S))
        self.acc_count = np.zeros(K, dtype=int)
        self.pub_f0 = np.zeros((P, S))
        self.pub_f1 = np.zeros(K)
        self.pub_f2 = np.ones((K, S))
        self.pub_f3 = np.ones((K, S))
        self.pub_valid = np.zeros(K, dtype=bool)
        self.last_update = np.full(K, -1, dtype=int)

    def accumulate(self, gains, weights, signal, intf_noise):
        """Add one slot's measurements: gains (K, N, S), of which F0 keeps
        the entries toward viewers, weights (K,) and the (K, S) serving-link
        signal and interference-plus-noise at the evaluation powers."""
        self.acc_f0 += np.take(gains.reshape(-1, gains.shape[2]), self.f0_rows, axis=0)
        self.acc_f1 += weights
        self.acc_f2 += signal
        self.acc_f3 += intf_noise
        self.acc_count += 1


def refresh_candidate_tables(network, tables, slot, scenario, mean_gains=None, enabled=None):
    """Publish the averaged records of every due cell in one masked pass.

    A cell is due when `slot` is a multiple of its tier's period: the
    scenario's `feedback_period_slots`, or for femto cells its
    `femto_feedback_period_slots` if that is not 0. Each due user's window
    restarts. With `edge_only_feedback`, macro cells publish only their edge
    users; femto cells always publish everyone, and cells whose BS is not
    running the reference-based algorithm publish nothing (partial deployment).
    Unpublished users of due cells are withdrawn. Returns the number of
    publish events: due, enabled cells with at least one user.
    """
    serving, femto = tables.serving, tables.femto
    macro_period = scenario.feedback_period_slots
    period = np.where(femto, scenario.femto_feedback_period_slots or macro_period, macro_period)
    due_bs = slot % period == 0
    due = due_bs[serving]
    if not due.any():
        return 0
    keep = (due_bs if enabled is None else due_bs & enabled)[serving]
    events = np.count_nonzero(np.bincount(serving[keep]))
    femto_user = femto[serving]
    if scenario.edge_only_feedback and (keep & ~femto_user).any():
        if mean_gains is None:
            raise ValueError("edge_only refresh needs mean_gains")
        keep &= femto_user | classify_edge_users(network, mean_gains, scenario.edge_threshold_db)
    # Divided in place under the mask: `pub[keep] = acc[keep] / cnt` would
    # copy the kept rows of the F0 table twice. Assigning a scalar through a
    # boolean mask copies nothing. F0 rows follow their owner's count and
    # mask; the other tables have one row per user.
    cnt = np.maximum(tables.acc_count, 1).astype(float)
    every = slice(None)
    fields = ((tables.acc_f0, tables.pub_f0, tables.f0_user),
              (tables.acc_f1, tables.pub_f1, every),
              (tables.acc_f2, tables.pub_f2, every),
              (tables.acc_f3, tables.pub_f3, every))
    for acc, pub, owner in fields:
        per_row = (owner,) + (None,) * (acc.ndim - 1)
        np.divide(acc, cnt[per_row], out=pub, where=keep[per_row])
    tables.pub_valid[due] = keep[due]
    tables.last_update[keep] = slot
    for acc, _, owner in fields:
        acc[due[owner]] = 0
    tables.acc_count[due] = 0
    return events


def protocol_rows(network, slot, published):
    """protocol.csv rows of one REFIM slot, from the (N,) users each BS
    published: a publishing BS sends users x 4 items x S subchannels x 4
    bytes to every neighbor (Table II), then every macro BS sends its
    scheduled indices, 2 bytes per subchannel, to each macro neighbor."""
    S = network.subchannel_count
    macro = [b.tier != TIER_FEMTO for b in network.base_stations]
    rows = [(slot, n, m, "table_refresh", int(count) * S * 4 * 4)
            for n, count in enumerate(published) if count for m in network.neighbor_sets[n]]
    rows += [(slot, n, m, "index_exchange", 2 * S) for n in range(network.n_bs) if macro[n]
             for m in network.neighbor_sets[n] if macro[m]]
    return rows


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

    def taxes(self):
        """(N, S) summed taxation per (bs, subchannel)."""
        v = self.valid()
        t = np.zeros_like(self.f0)
        if v.any():
            t[v] = taxation_from_feedback(self.f1[v], self.f0[v], self.f2[v], self.f3[v])
        return t.sum(axis=2)


def select_references(views, tables, count, enabled=None):
    """ReferenceSelection for every BS at once (engine path).

    Each viewer reads the view of its class (femto viewers read femto_view)
    and ranks the published candidates by their cross gain toward itself;
    rows of BSs that are not `enabled` stay empty.
    """
    nbr = tables.nbr
    cand = views.macro_view[nbr]                       # (N, B, S)
    cand[tables.femto] = views.femto_view[nbr[tables.femto]]
    usable = tables.pub_valid[cand]
    if enabled is not None:
        usable &= np.asarray(enabled, dtype=bool)[:, None, None]
    cand = np.where(usable, cand, NO_USER)
    # each candidate's F0 row toward the viewer; where there is none, row 0,
    # which the ranking masks
    present = (cand != NO_USER) & (nbr >= 0)[:, :, None]
    row = np.where(present, tables.f0_start[cand] + tables.nbr_pos[:, :, None], 0)
    cross = tables.pub_f0[row, np.arange(cand.shape[2])]
    sel, idx, users = rank_references(nbr, cand, cross, count)
    s = idx[1]
    sel.f1[idx] = tables.pub_f1[users]
    sel.f2[idx] = tables.pub_f2[users, s]
    sel.f3[idx] = tables.pub_f3[users, s]
    return sel


def rank_references(nbr, cand, cross, count):
    """Keep the `count` strongest candidates per (viewer, subchannel).

    nbr: (N, B) neighbor ids padded with -1. cand: (N, B, S) candidate user
    of each neighbor, NO_USER where there is none. cross: (N, B, S) gain of
    each candidate toward the viewer, read only where a candidate exists;
    candidates are ranked by it, and ties keep neighbor order (stable sort).

    Returns (selection, (n, s, m), users): the selection has ref_bs, ref_user
    and f0 set and f1-f3 at their defaults; (n, s, m) index its valid
    entries in C order and users holds the reference user of each, so the
    caller fills f1-f3 from its own source.
    """
    N, _, S = cand.shape
    valid = (cand != NO_USER) & (nbr >= 0)[:, :, None]
    key = np.where(valid, cross, -np.inf)
    order = np.argsort(-key, axis=1, kind="stable")[:, :count]   # (N, M, S)
    n, s, m = np.nonzero(np.take_along_axis(valid, order, axis=1).transpose(0, 2, 1))
    b = order[n, m, s]                           # neighbor position of each reference
    users = cand[n, b, s]
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
