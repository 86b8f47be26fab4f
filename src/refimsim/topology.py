"""Network layouts: hex macro grids, linear two-cell, macro+femto overlays.

Positions are in meters on a flat 2-D plane. A Network is built once and
treated as immutable afterwards; mobility keeps its own position state.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

TIER_MACRO = "macro"
TIER_FEMTO = "femto"

# tier-consistent transmit power defaults (43 dBm macro, 15 dBm femto)
DEFAULT_POWER_DBM = {TIER_MACRO: 43.0, TIER_FEMTO: 15.0}

# axial lattice steps to the six adjacent hex cells
_HEX_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1))


def dbm_to_watts(dbm):
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class BaseStation:
    """One transmitter. mask_w is the per-subchannel cap (uniform here)."""
    id: int
    tier: str
    position: tuple
    max_power_w: float
    mask_w: float
    refim_enabled: bool = True
    home_id: int | None = None  # femto only: which home it belongs to

    def __post_init__(self):
        if self.max_power_w <= 0:
            raise ValueError(f"BS {self.id}: max_power_w must be > 0")
        if self.mask_w <= 0:
            raise ValueError(f"BS {self.id}: mask_w must be > 0")


@dataclass(frozen=True)
class User:
    id: int
    position: tuple
    serving_bs: int
    indoor: bool = False
    home_id: int | None = None


@dataclass(frozen=True)
class HexRegion:
    """Voronoi hexagon of a lattice with spacing isd, centered on the BS."""
    center: tuple
    isd_m: float

    def contains(self, x, y):
        dx, dy = x - self.center[0], y - self.center[1]
        h = self.isd_m / 2.0
        for ang in (0.0, math.pi / 3.0, 2.0 * math.pi / 3.0):
            if abs(dx * math.cos(ang) + dy * math.sin(ang)) > h:
                return False
        return True

    def sample(self, rng):
        r = self.isd_m / math.sqrt(3.0)  # circumradius
        while True:
            x = self.center[0] + rng.uniform(-r, r)
            y = self.center[1] + rng.uniform(-r, r)
            if self.contains(x, y):
                return (x, y)


@dataclass(frozen=True)
class DiscRegion:
    center: tuple
    radius_m: float

    def contains(self, x, y):
        return (x - self.center[0]) ** 2 + (y - self.center[1]) ** 2 <= self.radius_m ** 2

    def sample(self, rng):
        # uniform over the disc via sqrt radial transform
        rho = self.radius_m * math.sqrt(rng.uniform(0.0, 1.0))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        return (self.center[0] + rho * math.cos(theta), self.center[1] + rho * math.sin(theta))


def pad_index_lists(lists, width=0):
    """(len(lists), W) int array of each list's ids in order, padded with -1;
    W is the longest list's length, and at least `width`."""
    width = max(width, max(map(len, lists), default=0))
    out = np.full((len(lists), width), -1, dtype=int)
    for n, ids in enumerate(lists):
        out[n, :len(ids)] = ids
    return out


def _frozen(a):
    a.flags.writeable = False
    return a


@dataclass
class Network:
    """Immutable layout: stations, users, neighbor sets, spectrum grid."""
    base_stations: list
    users: list
    neighbor_sets: list
    subchannel_count: int
    bandwidth_hz: float
    regions: list = field(default_factory=list)   # per-BS coverage region
    wrap_vectors: tuple = ()                      # cartesian shifts; empty = no wrap

    def __post_init__(self):
        if self.subchannel_count < 1:
            raise ValueError("subchannel_count must be >= 1")
        for n, nbrs in enumerate(self.neighbor_sets):
            if n in nbrs:
                raise ValueError(f"BS {n} lists itself as neighbor")
        for u in self.users:
            if not 0 <= u.serving_bs < len(self.base_stations):
                raise ValueError(f"user {u.id} serves nonexistent BS {u.serving_bs}")

    @property
    def n_bs(self):
        return len(self.base_stations)

    @property
    def n_users(self):
        return len(self.users)

    @cached_property
    def serving(self):
        """(K,) serving BS of each user; read-only, derived once."""
        return _frozen(np.array([u.serving_bs for u in self.users], dtype=int))

    @cached_property
    def neighbor_index(self):
        """(N, B) padded neighbor ids (pad_index_lists); read-only, derived once."""
        return _frozen(pad_index_lists(self.neighbor_sets))

    @cached_property
    def member_index(self):
        """(N, C) each cell's user ids, ascending, padded with -1 (C >= 1);
        read-only, derived once."""
        return _frozen(pad_index_lists(self.cells(), width=1))

    def cells(self):
        out = [[] for _ in range(self.n_bs)]
        for u in self.users:
            out[u.serving_bs].append(u.id)
        return out

    def bs_positions(self):
        return np.array([b.position for b in self.base_stations], dtype=float)

    def user_positions(self):
        return np.array([u.position for u in self.users], dtype=float).reshape(self.n_users, 2)

    @cached_property
    def bs_images(self):
        """(2, I, N) x and y of every BS shifted by each wrap vector, the
        unshifted position first; read-only, derived once."""
        bp = self.bs_positions().reshape(-1, 2)
        images = [bp] + [bp + np.array([vx, vy]) for vx, vy in self.wrap_vectors]
        return _frozen(np.stack(images).transpose(2, 0, 1).copy())

    def distances(self, user_positions=None):
        """(K, N) user-to-BS distances in meters, min over wrap images.

        One sqrt of the smallest squared distance: sqrt is correctly rounded
        and monotone, so this is the smallest of the images' distances.
        """
        up = self.user_positions() if user_positions is None else np.asarray(user_positions, dtype=float)
        bx, by = self.bs_images
        dx = up[:, 0, None, None] - bx
        dy = up[:, 1, None, None] - by
        np.multiply(dx, dx, out=dx)
        np.multiply(dy, dy, out=dy)
        np.add(dx, dy, out=dx)
        return np.sqrt(dx.min(axis=1))


def _axial_to_xy(q, r, isd):
    return (isd * (q + r / 2.0), isd * (math.sqrt(3.0) / 2.0) * r)


def _rotate60(q, r):
    return (-r, q + r)


def build_hex_grid(rings, inter_site_distance_m, wrap=False, subchannels=16,
                   bandwidth_hz=10e6, power_dbm=None):
    """Hex lattice of macro BSs: 1+3r(r+1) cells, neighbors = one lattice hop."""
    if rings < 0:
        raise ValueError("rings must be >= 0")
    if inter_site_distance_m <= 0:
        raise ValueError("inter_site_distance_m must be > 0")
    isd = float(inter_site_distance_m)
    power_w = dbm_to_watts(DEFAULT_POWER_DBM[TIER_MACRO] if power_dbm is None else power_dbm)

    coords = []
    for q in range(-rings, rings + 1):
        for r in range(-rings, rings + 1):
            if max(abs(q), abs(r), abs(q + r)) <= rings:
                coords.append((q, r))
    # deterministic ordering, center cell first
    coords.sort(key=lambda c: (max(abs(c[0]), abs(c[1]), abs(c[0] + c[1])), c[0], c[1]))
    index = {c: i for i, c in enumerate(coords)}

    wrap_shifts = []
    if wrap and rings > 0:
        base = (rings + 1, rings)  # cluster translation vector in axial coords
        s = base
        for _ in range(6):
            wrap_shifts.append(s)
            s = _rotate60(*s)

    stations, regions, neighbor_sets = [], [], []
    for i, (q, r) in enumerate(coords):
        pos = _axial_to_xy(q, r, isd)
        stations.append(BaseStation(id=i, tier=TIER_MACRO, position=pos,
                                    max_power_w=power_w, mask_w=power_w))
        regions.append(HexRegion(center=pos, isd_m=isd))
        nbrs = set()
        for dq, dr in _HEX_STEPS:
            tgt = (q + dq, r + dr)
            if tgt in index:
                nbrs.add(index[tgt])
            elif wrap_shifts:
                for sq, sr in wrap_shifts:
                    if (tgt[0] - sq, tgt[1] - sr) in index:
                        nbrs.add(index[(tgt[0] - sq, tgt[1] - sr)])
        nbrs.discard(i)
        neighbor_sets.append(sorted(nbrs))

    wrap_vectors = tuple(_axial_to_xy(q, r, isd) for q, r in wrap_shifts)
    return Network(base_stations=stations, users=[], neighbor_sets=neighbor_sets,
                   subchannel_count=subchannels, bandwidth_hz=bandwidth_hz,
                   regions=regions, wrap_vectors=wrap_vectors)


def build_linear_two_cell(bs_distance_m, center_band_m, edge_band_m, users_per_group,
                          subchannels=16, bandwidth_hz=10e6, power_dbm=None, rng_seed=0):
    """Two BSs on a line; per cell, one center and one edge user group.

    Users sit on the segment between the BSs so the edge group faces the
    interferer; distances to the serving BS fall inside the declared bands.
    """
    d = float(bs_distance_m)
    for lo, hi in (center_band_m, edge_band_m):
        if not (0.0 < lo < hi < d):
            raise ValueError(f"band ({lo}, {hi}) must satisfy 0 < lo < hi < {d}")
    if center_band_m[1] > edge_band_m[0]:
        raise ValueError("center and edge bands overlap or are inverted")
    if users_per_group < 1:
        raise ValueError("users_per_group must be >= 1")

    power_w = dbm_to_watts(DEFAULT_POWER_DBM[TIER_MACRO] if power_dbm is None else power_dbm)
    stations = [
        BaseStation(id=0, tier=TIER_MACRO, position=(0.0, 0.0), max_power_w=power_w, mask_w=power_w),
        BaseStation(id=1, tier=TIER_MACRO, position=(d, 0.0), max_power_w=power_w, mask_w=power_w),
    ]
    regions = [DiscRegion(center=(0.0, 0.0), radius_m=d / 2.0),
               DiscRegion(center=(d, 0.0), radius_m=d / 2.0)]

    rng = np.random.default_rng(rng_seed)
    users = []
    for n, bs in enumerate(stations):
        direction = 1.0 if n == 0 else -1.0  # toward the other BS
        for band in (center_band_m, edge_band_m):
            for _ in range(users_per_group):
                dist = rng.uniform(band[0], band[1])
                users.append(User(id=len(users), position=(bs.position[0] + direction * dist, 0.0),
                                  serving_bs=n))
    return Network(base_stations=stations, users=users, neighbor_sets=[[1], [0]],
                   subchannel_count=subchannels, bandwidth_hz=bandwidth_hz, regions=regions)


DEPLOYMENT_CASES = ("asymmetric-pair", "single", "symmetric-pair")  # in draw order
# Anchor draws per femto placement before build_heterogeneous gives up.
MAX_PLACEMENT_ATTEMPTS = 1000
# Mixed-density BSs sit off their grid points by up to this fraction of the spacing.
JITTER_FRAC = 0.15


def build_heterogeneous(macro, femtos_per_macro, home_size_m=20.0, rng_seed=0,
                        power_dbm=None):
    """Drop femto BSs into each macro cell.

    Each placement draws one of DEPLOYMENT_CASES with equal probability (the
    last femto of a cell is always single): single home, two adjacent homes
    with BSs at home centers (symmetric), or with one BS at the shared border
    (asymmetric). Each femto's home is its entry in the returned regions.
    """
    if femtos_per_macro < 0:
        raise ValueError("femtos_per_macro must be >= 0")
    if femtos_per_macro == 0:
        return macro

    rng = np.random.default_rng(rng_seed)
    power_w = dbm_to_watts(DEFAULT_POWER_DBM[TIER_FEMTO] if power_dbm is None else power_dbm)
    half = home_size_m / 2.0

    stations = list(macro.base_stations)
    regions = list(macro.regions)
    neighbor_sets = [list(nbrs) for nbrs in macro.neighbor_sets]
    taken = [b.position for b in stations]
    home_counter = 0

    macro_ids = [b.id for b in stations if b.tier != TIER_FEMTO]
    for m in macro_ids:
        region = macro.regions[m]
        placed = 0
        while placed < femtos_per_macro:
            remaining = femtos_per_macro - placed
            case = ("single" if remaining == 1
                    else DEPLOYMENT_CASES[int(rng.choice(3, p=np.full(3, 1 / 3)))])

            ok = False
            for _ in range(MAX_PLACEMENT_ATTEMPTS):
                anchor = region.sample(rng)
                theta = rng.uniform(0.0, 2.0 * math.pi)
                u = (math.cos(theta), math.sin(theta))
                if case == "single":
                    homes = [anchor]
                    bs_pos = [anchor]
                else:
                    homes = [(anchor[0] - half * u[0], anchor[1] - half * u[1]),
                             (anchor[0] + half * u[0], anchor[1] + half * u[1])]
                    if case == "symmetric-pair":
                        bs_pos = list(homes)
                    else:  # asymmetric: femto 1 at the border between homes
                        bs_pos = [anchor, homes[1]]
                if not all(region.contains(*h) for h in homes):
                    continue
                if any(math.dist(p, q) < 0.5 for p in bs_pos for q in taken):
                    continue  # collision with an existing BS; retry
                ok = True
                break
            if not ok:
                raise RuntimeError(f"could not place femtos in macro cell {m} "
                                   f"after {MAX_PLACEMENT_ATTEMPTS} attempts")

            new_ids = []
            for h, p in zip(homes, bs_pos):
                fid = len(stations)
                stations.append(BaseStation(id=fid, tier=TIER_FEMTO, position=p,
                                            max_power_w=power_w, mask_w=power_w,
                                            home_id=home_counter))
                regions.append(DiscRegion(center=h, radius_m=half))
                neighbor_sets.append([m])
                neighbor_sets[m].append(fid)
                taken.append(p)
                new_ids.append(fid)
                home_counter += 1
            if len(new_ids) == 2:  # paired femtos neighbor each other
                neighbor_sets[new_ids[0]].append(new_ids[1])
                neighbor_sets[new_ids[1]].append(new_ids[0])
            placed += len(new_ids)

    return Network(base_stations=stations, users=list(macro.users),
                   neighbor_sets=[sorted(nbrs) for nbrs in neighbor_sets],
                   subchannel_count=macro.subchannel_count, bandwidth_hz=macro.bandwidth_hz,
                   regions=regions, wrap_vectors=macro.wrap_vectors)


def place_users(network, per_tier_count, rng_seed=0):
    """Uniform user drop per cell; femto users are indoor home users."""
    for tier, count in per_tier_count.items():
        if count < 1:
            raise ValueError(f"{tier} user count must be >= 1")
    rng = np.random.default_rng(rng_seed)
    users = []
    for bs in network.base_stations:
        count = per_tier_count.get(bs.tier, 0)
        region = network.regions[bs.id]
        for _ in range(count):
            pos = region.sample(rng)
            users.append(User(id=len(users), position=pos, serving_bs=bs.id,
                              indoor=(bs.tier == TIER_FEMTO), home_id=bs.home_id))
    return replace(network, users=users)


def build_mixed_density(zones, subchannels=16, bandwidth_hz=10e6, power_dbm=None,
                        rng_seed=0):
    """Side-by-side rectangular zones of jittered-grid macro BSs.

    zones: list of dicts {"cols", "rows", "spacing_m"}; spacing scales the
    local density (urban/suburban/rural mix).
    """
    rng = np.random.default_rng(rng_seed)
    power_w = dbm_to_watts(DEFAULT_POWER_DBM[TIER_MACRO] if power_dbm is None else power_dbm)
    stations, regions = [], []
    x_offset = 0.0
    for z in zones:
        cols, rows, sp = z["cols"], z["rows"], float(z["spacing_m"])
        for c in range(cols):
            for r in range(rows):
                jx = rng.uniform(-JITTER_FRAC, JITTER_FRAC) * sp
                jy = rng.uniform(-JITTER_FRAC, JITTER_FRAC) * sp
                pos = (x_offset + (c + 0.5) * sp + jx, (r + 0.5) * sp + jy)
                stations.append(BaseStation(id=len(stations), tier=TIER_MACRO, position=pos,
                                            max_power_w=power_w, mask_w=power_w))
                regions.append(DiscRegion(center=pos, radius_m=sp / 2.0))
        x_offset += cols * sp

    # neighbors: mutual proximity within 1.5x the larger of the two local grids
    pos = np.array([b.position for b in stations])
    spacing = np.array([regions[i].radius_m * 2.0 for i in range(len(stations))])
    neighbor_sets = [[] for _ in stations]
    for i in range(len(stations)):
        for j in range(i + 1, len(stations)):
            lim = 1.5 * max(spacing[i], spacing[j])
            if np.linalg.norm(pos[i] - pos[j]) <= lim:
                neighbor_sets[i].append(j)
                neighbor_sets[j].append(i)
    return Network(base_stations=stations, users=[], neighbor_sets=neighbor_sets,
                   subchannel_count=subchannels, bandwidth_hz=bandwidth_hz, regions=regions)


def local_density_rank(network):
    """BS indices sorted densest-first (by distance to the nearest other BS)."""
    pos = network.bs_positions()
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    np.fill_diagonal(d, np.inf)
    nearest = d.min(axis=1)
    return list(np.argsort(nearest, kind="stable"))


def classify_edge_users(network, mean_gains, threshold_db=6.0):
    """Edge flag per user: strongest neighbor gain within threshold_db of serving.

    mean_gains: (K, N) linear power gains averaged over subchannels/fading.
    """
    g = np.asarray(mean_gains, dtype=float)
    serving = network.serving
    nbr = network.neighbor_index[serving]                     # (K, B), -1 padded
    users = np.flatnonzero((nbr >= 0).any(axis=1))            # serving BS has neighbors
    flags = np.zeros(network.n_users, dtype=bool)
    if users.size:
        nbr = nbr[users]
        strongest = np.where(nbr >= 0, g[users[:, None], nbr], -np.inf).max(axis=1)
        gap_db = 10.0 * np.log10(strongest / g[users, serving[users]])
        flags[users] = gap_db >= -threshold_db
    return flags


class WaypointMobility:
    """Simplified random waypoint inside each user's serving-cell region.

    Users with speed 0 never move; association never changes.
    """

    def __init__(self, network, speeds_mps, rng):
        self.network = network
        self.positions = network.user_positions().copy()
        self.speeds = np.asarray(speeds_mps, dtype=float)
        self.rng = rng
        self.waypoints = self.positions.copy()
        for u in network.users:
            if self.speeds[u.id] > 0:
                self.waypoints[u.id] = network.regions[u.serving_bs].sample(rng)

    def advance(self, dt_s):
        """Move every user with speed > 0 by speed * dt_s along its path.

        Users that stay short of their waypoint move in one array step; the
        few that reach it walk the scalar path in ascending user id, so the
        waypoint draws come from rng in the same order as a per-user loop.
        """
        moving = self.speeds > 0
        if not moving.any():
            return False
        step = self.speeds * dt_s
        delta = self.waypoints - self.positions
        dist = np.hypot(delta[:, 0], delta[:, 1])
        walking = moving & (step > 0)
        glide = walking & (dist > step)
        self.positions[glide] += delta[glide] * (step[glide] / dist[glide])[:, None]
        for k in np.flatnonzero(walking & ~glide):
            self._walk(k, step[k])
        return True

    def _walk(self, k, step):
        """Walk user k a distance step, drawing a new waypoint at each arrival."""
        region = self.network.regions[self.network.users[k].serving_bs]
        while step > 0:
            delta = self.waypoints[k] - self.positions[k]
            dist = float(np.hypot(delta[0], delta[1]))
            if dist <= step:
                self.positions[k] = self.waypoints[k]
                step -= dist
                self.waypoints[k] = region.sample(self.rng)
            else:
                self.positions[k] += delta * (step / dist)
                step = 0.0
