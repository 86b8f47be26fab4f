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
from .topology import classify_edge_users


def representative_users(network):
    """(N,) fixed stand-in user per femto cell (its first, lowest-index
    member), else NO_USER; an empty cell's first member is already NO_USER."""
    return np.where(network.femto, network.member_index[:, 0], NO_USER)


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


def exchange_scheduled_indices(sched, tables, scenario):
    """Per-slot index exchange with the femto simplifications.

    Macro targets broadcast exact indices; femto targets are replaced by
    their fixed representative (no per-slot femto feedback), the stand-in
    view that `tables` builds once per run; femto viewers learn macro
    indices only by overhearing. A femto cell without users has no
    representative and nothing scheduled, so it shows NO_USER either way.
    Overhearing is the scenario's `femto_overhear`. Without femto cells the
    macro view is `sched` itself.
    """
    macro_view = (np.where(tables.shows_stand_in, tables.stand_in, sched)
                  if tables.any_stand_in else sched)
    return NeighborViews(macro_view=macro_view,
                         femto_view=macro_view if scenario.femto_overhear else tables.stand_in)


class CandidateTables:
    """Published (possibly stale) candidate records plus running accumulators,
    with the run's fixed layout: each user's serving BS, the femto BSs and
    users, the (N, B) padded neighbor ids with their real-entry mask, the
    femto stand-in view of the index exchange and the rows of F0.

    F0 holds one (S,) row per (user, viewer) pair: user k's gains toward the
    viewers of its cell (`viewer_index`), the only BSs that ever rank it, in
    viewer order from row f0_start[k] on; f0_user is the owner of each row.
    Viewer n reads a candidate k of its neighbor nbr[n, j] at row
    f0_start[k] + pos, pos being n's place among that neighbor's viewers, so
    on subchannel s at flat element f0_flat[k] + nbr_flat[n, j, s] of the
    table. No row is padding: on hetnet10 a macro cell has 13-16 viewers and
    a femto cell 1-2.
    """

    def __init__(self, network):
        K, N, S = network.n_users, network.n_bs, network.subchannel_count
        self.serving = network.serving
        self.femto = network.femto
        self.femto_user = self.femto[self.serving]
        self.occupied = np.count_nonzero(np.bincount(self.serving, minlength=N))
        self.nbr = network.neighbor_index
        self.nbr_real = (self.nbr >= 0)[:, :, None]
        self.femto_nbr = self.nbr[self.femto]
        # (N, S) stand-in each femto cell shows its neighbors, NO_USER elsewhere
        self.stand_in = np.repeat(representative_users(network)[:, None], S, axis=1)
        self.shows_stand_in = self.stand_in != NO_USER
        self.any_stand_in = bool(self.shows_stand_in.any())
        viewers, nbr_pos = viewer_index(self.nbr)
        self.nbr_flat = nbr_pos[:, :, None] * S + np.arange(S)
        user_viewers = viewers[self.serving]                # (K, V), padded at the end
        self.f0_user, j = np.nonzero(user_viewers >= 0)
        counts = np.bincount(self.f0_user, minlength=K)
        self.f0_start = np.cumsum(counts) - counts
        self.f0_flat = self.f0_start * S
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
    """Publish the averaged records of every due cell at once.

    When every cell is due and publishes every user, and every window holds
    at most one sample, the divide would be by 1.0, which changes no value,
    so each accumulator is swapped with its published table instead.
    Otherwise one masked divide publishes the kept users.

    A cell is due when `slot` is a multiple of its tier's period: the
    scenario's `feedback_period_slots`, or for femto cells its
    `femto_feedback_period_slots` if that is not 0. Each due user's window
    restarts. With `edge_only_feedback`, macro cells publish only their edge
    users; femto cells always publish everyone, and cells whose BS is not
    running the reference-based algorithm publish nothing (partial deployment).
    Unpublished users of due cells are withdrawn. Returns the number of
    publish events: due, enabled cells with at least one user.
    """
    macro_period = scenario.feedback_period_slots
    macro_due = slot % macro_period == 0
    femto_due = slot % (scenario.femto_feedback_period_slots or macro_period) == 0
    if (macro_due and femto_due and enabled is None and not scenario.edge_only_feedback
            and tables.acc_count.max(initial=0) <= 1):
        # x / 1.0 == x exactly: the accumulators become the published tables
        # and the old tables, zeroed, the new accumulators
        tables.acc_f0, tables.pub_f0 = tables.pub_f0, tables.acc_f0
        tables.acc_f1, tables.pub_f1 = tables.pub_f1, tables.acc_f1
        tables.acc_f2, tables.pub_f2 = tables.pub_f2, tables.acc_f2
        tables.acc_f3, tables.pub_f3 = tables.pub_f3, tables.acc_f3
        for acc, _, _ in _fields(tables):
            acc.fill(0)
        tables.pub_valid.fill(True)
        tables.last_update.fill(slot)
        tables.acc_count.fill(0)
        return tables.occupied
    if not (macro_due or femto_due):
        return 0
    serving, femto, femto_user = tables.serving, tables.femto, tables.femto_user
    due_bs = np.where(femto, femto_due, macro_due)
    due = due_bs[serving]
    keep = (due_bs if enabled is None else due_bs & enabled)[serving]
    events = np.count_nonzero(np.bincount(serving[keep]))
    if scenario.edge_only_feedback and (keep & ~femto_user).any():
        if mean_gains is None:
            raise ValueError("edge_only refresh needs mean_gains")
        keep &= femto_user | classify_edge_users(network, mean_gains, scenario.edge_threshold_db)
    # Each table is divided in place under the mask: `pub[keep] = acc[keep] /
    # cnt` would copy the kept rows of the F0 table twice, while assigning a
    # scalar through a boolean mask copies nothing.
    cnt = np.maximum(tables.acc_count, 1).astype(float)
    for acc, pub, owner in _fields(tables):
        per_row = (owner,) + (None,) * (acc.ndim - 1)
        np.divide(acc, cnt[per_row], out=pub, where=keep[per_row])
    tables.pub_valid[due] = keep[due]
    tables.last_update[keep] = slot
    for acc, _, owner in _fields(tables):
        acc[due[owner]] = 0
    tables.acc_count[due] = 0
    return events


def _fields(tables):
    """(accumulator, published table, row owner) of F0-F3: F0 rows follow
    their owner's count, the other tables have one row per user."""
    every = slice(None)
    return ((tables.acc_f0, tables.pub_f0, tables.f0_user),
            (tables.acc_f1, tables.pub_f1, every),
            (tables.acc_f2, tables.pub_f2, every),
            (tables.acc_f3, tables.pub_f3, every))


def protocol_rows(network, published_users):
    """protocol.csv rows of a REFIM run, slot by slot, from the (slots, N)
    users each BS published: a publishing BS sends users x 4 items x S
    subchannels x 4 bytes to every neighbor (Table II), then every macro BS
    sends its scheduled indices, 2 bytes per subchannel, to each macro
    neighbor. The index-exchange rows are the same every slot, so they are
    listed once."""
    S, neighbors = network.subchannel_count, network.neighbor_sets
    macro = (~network.femto).tolist()
    exchange = [(n, m, "index_exchange", 2 * S) for n in range(network.n_bs) if macro[n]
                for m in neighbors[n] if macro[m]]
    for slot, published in enumerate(np.asarray(published_users).tolist()):
        for n, count in enumerate(published):
            if count:
                yield from ((slot, n, m, "table_refresh", count * S * 4 * 4)
                            for m in neighbors[n])
        yield from ((slot, *row) for row in exchange)


@dataclass
class ReferenceSelection:
    """Selected references per (bs, subchannel, rank) with their table
    fields. Where a reference is absent its fields keep the defaults f0 = f1
    = 0 and f2 = f3 = 1, which tax 0."""
    ref_bs: np.ndarray     # (N, S, M) int, -1 where absent
    ref_user: np.ndarray   # (N, S, M) int
    f0: np.ndarray         # (N, S, M) cross gain toward the selecting BS
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray

    def valid(self):
        return self.ref_bs >= 0

    def taxes(self):
        """(N, S) summed taxation per (bs, subchannel); an absent reference's
        defaults give exactly +0.0."""
        return taxation_from_feedback(self.f1, self.f0, self.f2, self.f3).sum(axis=2)


def select_references(views, tables, count, enabled=None):
    """ReferenceSelection for every BS at once (engine path).

    Each viewer reads the view of its class (femto viewers read femto_view)
    and ranks the published candidates by their cross gain toward itself;
    rows of BSs that are not `enabled` stay empty.
    """
    nbr = tables.nbr
    cand = views.macro_view[nbr]                       # (N, B, S)
    if views.femto_view is not views.macro_view:       # femto viewers do not overhear
        cand[tables.femto] = views.femto_view[tables.femto_nbr]
    if enabled is not None or not tables.pub_valid.all():
        usable = tables.pub_valid[cand]
        if enabled is not None:
            usable &= np.asarray(enabled, dtype=bool)[:, None, None]
        cand = np.where(usable, cand, NO_USER)
    # each candidate's F0 entry toward the viewer; where there is none, the
    # clipped index reads an entry that the ranking masks
    present = (cand != NO_USER) & tables.nbr_real
    cross = np.take(tables.pub_f0, tables.f0_flat[cand] + tables.nbr_flat, mode="clip")
    sel, idx, users = rank_references(nbr, cand, cross, count, present)
    s = idx[1]
    sel.f1[idx] = tables.pub_f1[users]
    sel.f2[idx] = tables.pub_f2[users, s]
    sel.f3[idx] = tables.pub_f3[users, s]
    return sel


def rank_references(nbr, cand, cross, count, present):
    """Keep the `count` strongest candidates per (viewer, subchannel).

    nbr: (N, B) neighbor ids padded with -1. cand: (N, B, S) candidate user
    of each neighbor, NO_USER where there is none. present: (N, B, S) bool,
    where a candidate exists: cand != NO_USER at a neighbor that is not
    padding. cross: (N, B, S) gain of each candidate toward the viewer,
    read only where one is present; candidates are ranked by it, and ties
    keep neighbor order, as a stable sort would.

    Returns (selection, (n, s, m), users): the selection has ref_bs, ref_user
    and f0 set and f1-f3 at their defaults; (n, s, m) index its valid
    entries in C order and users holds the reference user of each, so the
    caller fills f1-f3 from its own source.
    """
    N, B, S = cand.shape
    key = np.where(present, cross, -np.inf)
    # pass m takes the m-th strongest candidate: argmax returns the first
    # maximum, the lowest neighbor index among equal keys, as a stable sort
    # of -key does. A taken entry drops to -inf; once a row has no valid
    # candidate left, its later passes land on taken or invalid entries,
    # which the rank test below drops
    M = min(count, B)
    order = np.empty((N, S, M), dtype=int)
    for m in range(M):
        if m == 1:   # the grids that mask taken entries, needed from the second pass on
            rows, cols = np.arange(N)[:, None], np.arange(S)
        if m:
            key[rows, b, cols] = -np.inf
        order[:, :, m] = b = key.argmax(axis=1)
    n, s, m = np.nonzero(np.arange(M) < present.sum(axis=1)[:, :, None])
    b = order[n, s, m]                           # neighbor position of each reference
    users = cand[n, b, s]
    sel = _empty_selection(N, S, max(count, 1))
    sel.ref_bs[n, s, m] = nbr[n, b]
    sel.ref_user[n, s, m] = users
    sel.f0[n, s, m] = cross[n, b, s]
    return sel, (n, s, m), users


def _empty_selection(N, S, M):
    """A selection with no reference: the fields are views of one int and
    one float block, filled with the defaults (NO_USER is -1 as well)."""
    ref_bs, ref_user = np.full((2, N, S, M), -1, dtype=int)
    f = np.zeros((4, N, S, M))
    f[2:] = 1.0
    return ReferenceSelection(ref_bs, ref_user, *f)
