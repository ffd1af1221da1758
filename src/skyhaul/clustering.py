"""Sensor clustering and collection-point placement.

Cluster count starts at the larger of the load bound ceil(N / N_th) and a
packing floor, and grows one split at a time until every cluster fits inside
the serving UAV's coverage disk and under the FDMA member cap. Collection
points are cluster centroids at the flight altitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import COVERAGE_TOL_M, CoverageRadii, upload_times
from .model import InfeasibleError, Scenario

_LLOYD_MAX_ITER = 300
# Two sensors count as apart only beyond 2·r·(1 + 1e-9). Each computed distance
# (the pair's here, each member's in the search's radius test) is off by a
# few ulps of the coordinates and of r, under 1e-11 m at 20 km. Without a
# margin, a pair at 2·r up to rounding could count as apart while a centroid
# midway still passes the test; with it, a pair counted apart is truly farther
# than two accepted radii can span, so the floor never exceeds an accepted k.
_APART_MARGIN = 1e-9
# Lloyd's float32 step certifies a label when only one centroid lies within
# _BAND32·S (plus the smallest normal float32) of the point's best; see
# _Nearest for why 2⁻¹⁹ is wide enough.
_BAND32 = 2.0 ** -19
_TINY32 = float(np.finfo(np.float32).tiny)
_MAX32 = float(np.finfo(np.float32).max)


class InfeasibleClusteringError(InfeasibleError):
    """No cluster count meets both the coverage radius and the member cap."""


def _sq_dist(px, py, cx, cy, planes: np.ndarray) -> np.ndarray:
    """Squared distances from (px, py) to (cx, cy), broadcast against each
    other and rounded as dx*dx + dy*dy, in place in the two `planes`."""
    dx, dy = planes
    np.subtract(px, cx, out=dx)
    np.subtract(py, cy, out=dy)
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _kmeanspp_seeds(points: np.ndarray, k: int,
                    rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii 2007) of k centroids.

    The first centroid is points[rng.integers(n)]; each later one is drawn
    with rng.choice(n, p=d2 / d2.sum()), d2 being each point's squared
    distance to its nearest chosen centroid. Where that mass is zero (fewer
    than k distinct positions, or squares that underflow) the draw is
    rng.choice(n), uniform. Returns the (k, 2) seeds.
    """
    n = len(points)
    seeds = np.empty((k, 2))
    seeds[0] = points[rng.integers(n)]
    px, py = points.T
    planes = np.empty((2, n))
    d2 = np.full(n, np.inf)
    with np.errstate(over="ignore"):
        for j in range(1, k):
            np.minimum(d2, _sq_dist(px, py, *seeds[j - 1], planes), out=d2)
            total = d2.sum()
            if not total < math.inf:
                raise ValueError("squared distances between the points "
                                 "overflow")
            seeds[j] = points[rng.choice(n, p=d2 / total if total else None)]
    return seeds


def _exact_rows(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest centroid of each point; argmin gives ties to the lowest index.

    dx*dx + dy*dy is the same IEEE sequence as summing squared (n, k, 2)
    differences over their length-2 axis, so labels equal that form's bit
    for bit.
    """
    planes = np.empty((2, len(points), len(centroids)))
    return _sq_dist(points[:, :1], points[:, 1:], centroids[:, 0],
                    centroids[:, 1], planes).argmin(axis=1)


class _Nearest:
    """The nearest-centroid step of Lloyd on one point set, for the runs of
    one k search: the point rows are built once, the (k, n) buffers when k
    changes.

    Labels equal those of `_exact_rows` bit for bit. A call whose centroids
    extend the last call's by one appended takes them in O(n): the last
    call's labels are the exact rows of all but the new centroid, so a point
    moves to it only where its squared distance is strictly smaller than to
    its own, since the new centroid has the highest index and argmin gives
    ties to the lower one. The object keeps a copy of those labels and the
    bytes of their centroids, so the answer depends on the centroids alone.

    Every other call takes two float32 matrix products. In coordinates p',
    c' relative to the centre of the points' bounding box, g = |c'|² -
    2·p'·c' is each squared distance less |p'|², from one (k, 3) @ (3, n)
    product of the float32 casts of the float64 rows (|c'|², c'x, c'y) and
    (1, -2p'x, -2p'y). A centroid is in a point's band when its g is at
    most least + τ, the point's least g plus τ = 2⁻¹⁹·S + the smallest
    normal float32, with S = max|p'|² + max|c'|² in float64. A (2, k) @
    (k, n) product of the 0/1 band mask gives each point's count and index.
    A point with one centroid in its band takes it; every other point takes
    its exact row: ties, duplicate centroids, a NaN g, and every point once
    4·S reaches the float32 maximum.

    Why one centroid in the band is the exact form's strict unique minimum
    (Higham 2002, §3.1), with u = 2⁻²⁴ and G the exact value of g: the casts
    cost at most u·|c'|² + 2u·2|p'||c'| <= 3u·S, and the 3-term product at
    most γ₃·(|c'|² + 2|p'||c'|) <= γ₃·2S ≈ 6u·S, so |g - G| <= 9u·S. The
    sum least + τ rounds by at most 2u·S. A centroid whose g lies above it
    is therefore farther in exact arithmetic than the lone one in the band
    by more than τ - 20u·S = 12u·S. That margin is about 2²⁹ times the
    float64 rounding of both the translation and dx*dx + dy*dy, so the
    exact form orders them alike. The absolute term of τ covers the
    absolute rounding of subnormal float32 values, a few multiples of 2⁻¹⁴⁹.
    While 4·S is below the float32 maximum, no cast, product or sum
    overflows.
    """

    def __init__(self, points: np.ndarray):
        n = len(points)
        self.points = points
        self.xy = np.ascontiguousarray(points.T)
        self.mid = 0.5 * (self.xy.min(axis=1) + self.xy.max(axis=1))
        centred = self.xy - self.mid[:, None]
        self.p_sq_max = float((centred ** 2).sum(axis=0).max())
        # rows 1, -2p'x, -2p'y: g is the product of rows |c'|², c'x, c'y.
        # A p' too large for float32 makes 4·S overflow: those rows are
        # never used.
        self.p3 = np.ones((3, n), dtype=np.float32)
        with np.errstate(over="ignore"):
            np.multiply(centred, -2.0, out=self.p3[1:], casting="same_kind")
        self.k = None
        # the centroid bytes and a copy of the labels of the last call
        self.last = (None, None)

    def _size(self, k: int):
        """The per-round buffers for k centroids."""
        n = len(self.points)
        self.k = k
        self.c64 = np.empty((k, 3))
        self.c_sq = np.empty((k, 2))
        self.c3 = np.empty((k, 3), dtype=np.float32)
        self.g = np.empty((k, n), dtype=np.float32)
        # 0/1 sums in float32: a count of two or more never rounds to 1, and
        # a lone index below 2²⁴ is exact
        self.in_band = np.empty((k, n), dtype=np.float32)
        self.ones_index = np.ones((2, k), dtype=np.float32)
        self.ones_index[1] = np.arange(k)
        self.tally = np.empty((2, n), dtype=np.float32)

    def __call__(self, centroids: np.ndarray) -> np.ndarray:
        last_bytes, labels = self.last
        if centroids[:-1].tobytes() == last_bytes:
            px, py = self.xy
            own = centroids[labels].T
            planes = np.empty((4, len(labels)))
            nearer = (_sq_dist(px, py, *centroids[-1], planes[:2])
                      < _sq_dist(px, py, *own, planes[2:]))
            labels = np.where(nearer, len(centroids) - 1, labels)
        else:
            labels = self._certified(centroids)
        self.last = (centroids.tobytes(), labels.copy())
        return labels

    def _certified(self, centroids: np.ndarray) -> np.ndarray:
        """The float32 step with its exact fallback."""
        if len(centroids) != self.k:
            self._size(len(centroids))
        c64, c_sq, g = self.c64, self.c_sq, self.g
        np.subtract(centroids, self.mid, out=c64[:, 1:])
        np.square(c64[:, 1:], out=c_sq)
        np.add(c_sq[:, 0], c_sq[:, 1], out=c64[:, 0])
        s = self.p_sq_max + float(c64[:, 0].max())
        if not 4.0 * s < _MAX32:
            return _exact_rows(self.points, centroids)
        np.copyto(self.c3, c64, casting="same_kind")
        np.matmul(self.c3, self.p3, out=g)
        least = g.min(axis=0)
        least += _BAND32 * s + _TINY32
        np.less_equal(g, least, out=self.in_band)
        np.matmul(self.ones_index, self.in_band, out=self.tally)
        count, index = self.tally
        labels = index.astype(np.intp)
        unsure = np.flatnonzero(count != 1.0)
        if unsure.size:
            labels[unsure] = _exact_rows(self.points[unsure], centroids)
        return labels


def kmeans_cluster(points, k: int, init, *,
                   nearest: _Nearest | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations from the `init` centroids to their fixed point.

    A round assigns each point to its nearest centroid, ties going to the
    lowest index, and moves each centroid to the mean of its members; a
    centroid without members keeps its position. Stops when the labels
    repeat those of the round before, or after 300 rounds. The labels
    returned are those the centroids were computed from, so each non-empty
    cluster's centroid is the mean of its members. Returns (labels,
    centroids).

    `nearest`, a `_Nearest` built on the same points, carries the point
    rows across the runs of one k search, and a run from the last run's
    fixed point plus one centroid takes its first round in O(n).
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    centroids = np.asarray(init, dtype=float).reshape(k, 2)
    if nearest is None:
        nearest = _Nearest(points)
    px, py = nearest.xy
    labels = None
    for _ in range(_LLOYD_MAX_ITER):
        new_labels = nearest(centroids)
        if labels is not None and (new_labels == labels).all():
            break
        labels = new_labels
        counts = np.bincount(labels, minlength=k)
        occupied = counts > 0
        centroids = centroids.copy()
        for col, coords in enumerate((px, py)):
            np.divide(np.bincount(labels, coords, k), counts,
                      out=centroids[:, col], where=occupied)
    return labels, centroids


@dataclass(frozen=True, eq=False)
class ClusterSet:
    labels: np.ndarray      # (N,) cluster of each sensor
    cps: np.ndarray         # (k, 2) collection points (ground projection)
    hover_s: np.ndarray     # (k,) minimum hover at each CP

    @property
    def k(self) -> int:
        return len(self.cps)

    def cp_array(self) -> np.ndarray:
        # bench/run.py calls this; it goes with the next benchmark change
        # (ROADMAP item 5)
        return self.cps


def _packing_set(points: np.ndarray, r_m: float) -> np.ndarray:
    """Indices of a greedy set of points pairwise more than 2·r_m apart.

    A cluster whose members all lie within r_m of its CP spans at most 2·r_m,
    so it holds at most one point of the set: no cluster count below its size
    is feasible. The set takes points from the periphery in, by descending
    distance from the centre of their bounding box (lowest index first on
    ties), skipping any within 2·r_m·(1 + _APART_MARGIN) of one already
    taken. A point near the edge has fewer points within reach, so taking
    those first leaves room for more picks: a higher floor.
    """
    mid = 0.5 * (points.min(axis=0) + points.max(axis=0))
    order = np.argsort(-np.hypot(*(points - mid).T), kind="stable")
    reach = 2.0 * r_m * (1.0 + _APART_MARGIN)
    # the points not yet near the set, in order: each pick is the first
    rest, (px, py) = order, points[order].T
    taken = []
    while rest.size:
        taken.append(rest[0])
        far = ~(np.hypot(px - px[0], py - py[0]) <= reach)
        rest, px, py = rest[far], px[far], py[far]
    return np.array(taken, dtype=int)


def _hovers(scenario: Scenario, labels: np.ndarray,
            cps: np.ndarray) -> np.ndarray:
    """(k,) each cluster's minimum hover, the labels running 0..k-1.

    The members sorted stably by label keep their index order in each
    cluster, so a cluster's contiguous slice of upload times holds what
    `min_hover_time` sums, in the same order; the ndarray sum of the slice is
    the same pairwise sum. (`np.add.reduceat` and `np.bincount(weights=)`
    sum sequentially, which rounds differently.)
    """
    order = np.argsort(labels, kind="stable")
    members = labels[order]
    times = upload_times(scenario.sensor_positions[order],
                         scenario.sensor_data_bits[order], cps[members],
                         scenario.params)
    ends = np.searchsorted(members, np.arange(1, len(cps) + 1)).tolist()
    return np.array([times[a:b].sum() for a, b in zip([0] + ends, ends)])


def cluster_sensors(scenario: Scenario, radii: CoverageRadii) -> ClusterSet:
    """Partition the sensor field into coverage- and capacity-feasible clusters."""
    points = scenario.sensor_positions
    n = len(points)
    message = (f"no cluster count up to {n} keeps every cluster within "
               f"{radii.r_g2u_m:.1f} m of its CP and at most "
               f"n_th={scenario.n_th} sensors")
    # sensors at one position have the same exact rows, so they share every
    # label: more than n_th of them overfill a cluster at every k. Sorted by
    # both coordinates, each position is one run of rows.
    rows = points[np.lexsort((points[:, 1], points[:, 0]))]
    starts = np.flatnonzero(np.concatenate(
        [[True], (rows[1:] != rows[:-1]).any(axis=1), [True]]))
    if np.diff(starts).max() > scenario.n_th:
        raise InfeasibleClusteringError(message)
    k = max(math.ceil(n / scenario.n_th),
            len(_packing_set(points, radii.r_g2u_m)))
    nearest = _Nearest(points)
    init = _kmeanspp_seeds(points, k,
                           np.random.default_rng([scenario.rng_seed, k, 0]))
    while k <= n:
        labels, centroids = kmeans_cluster(points, k, init=init,
                                           nearest=nearest)
        sizes = np.bincount(labels, minlength=k)
        dists = np.hypot(*(points - centroids[labels]).T)
        beyond = dists.max() > radii.r_g2u_m
        if not beyond and sizes.max() <= scenario.n_th:
            occupied = sizes > 0
            labels = (np.cumsum(occupied) - 1)[labels]
            cps = centroids[occupied]
            return ClusterSet(labels, cps, _hovers(scenario, labels, cps))
        # split: one more centroid, at the sensor farthest from its own if
        # any lies beyond the radius, else at the farthest member of the
        # first largest cluster. That sensor never sits on a centroid: more
        # than n_th co-located sensors failed above.
        if not beyond:
            dists = np.where(labels == sizes.argmax(), dists, -1.0)
        init = np.vstack([centroids, points[dists.argmax()]])
        k += 1
    raise InfeasibleClusteringError(message)


def check_cluster_set(scenario: Scenario, cluster_set: ClusterSet,
                      radii: CoverageRadii) -> list[str]:
    """Independent feasibility audit; returns a list of violation messages."""
    labels, k = cluster_set.labels, cluster_set.k
    if labels.shape != (scenario.n_sensors,):
        return [f"labels have shape {labels.shape}, "
                f"expected ({scenario.n_sensors},)"]
    problems = []
    bad = np.flatnonzero((labels < 0) | (labels >= k))
    if bad.size:
        problems.append(f"sensor {bad[0]} has label {labels[bad[0]]} "
                        f"outside [0, {k})")
    for j, cp in enumerate(cluster_set.cps):
        pts = scenario.sensor_positions[labels == j]
        if not len(pts):
            problems.append(f"cluster {j} is empty")
            continue
        if len(pts) > scenario.n_th:
            problems.append(f"cluster {j} holds {len(pts)} > n_th members")
        d = np.hypot(*(pts - cp).T)
        if d.max() > radii.r_g2u_m + COVERAGE_TOL_M:
            problems.append(f"cluster {j} member beyond coverage radius")
        centroid = pts.mean(axis=0)
        if np.hypot(*(centroid - cp)) > 1e-6:
            problems.append(f"cluster {j} CP is not the member centroid")
    return problems

