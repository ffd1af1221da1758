"""Sensor clustering and collection-point placement.

Cluster count starts at the larger of the load bound ceil(N / N_th) and a
packing floor, and grows until every cluster fits inside the serving UAV's
coverage disk and under the FDMA member cap. Collection points are cluster
centroids at the flight altitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CoverageRadii, min_hover_time
from .model import InfeasibleError, Scenario

_LLOYD_TOL_M = 1e-6
_LLOYD_MAX_ITER = 300
_SEED_ATTEMPTS = 3
# cluster counts seeded together by the k search: larger blocks seed more k
# that the search never reaches
_K_BLOCK = 4
# Two sensors count as apart only beyond 2·r·(1 + 1e-9). Each computed distance
# (the pair's here, each member's in the `dists.max() <= r` test) is off by a
# few ulps of the coordinates and of r, under 1e-11 m at 20 km. Without a
# margin, a pair at 2·r up to rounding could count as apart while a centroid
# midway still passes the test; with it, a pair counted apart is truly farther
# than two accepted radii can span, so the floor never exceeds an accepted k.
_APART_MARGIN = 1e-9


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
                    rngs: list[np.random.Generator]) -> np.ndarray:
    """k-means++ seedings (Arthur & Vassilvitskii 2007), one per generator.

    The seedings are built together: row a of each (A, n) array belongs to
    rngs[a]. Each draw repeats `rng.choice(n, p=d2 / total)` bit for bit: the
    cdf is cumsum(d2 / total) divided by its last entry, and the index is the
    count of cdf entries <= the draw's uniform, which is
    searchsorted(side="right") on a nondecreasing cdf. A row's k - 1 uniforms
    come from one rng.random(k - 1), the values of k - 1 random() calls. A
    row whose mass has collapsed onto chosen centroids (total <= 0) draws
    rng.integers(n) instead, from then on: it is replayed from its state
    before the uniforms, so every stream is consumed as a seeding on its own
    would consume it. Draw j never depends on later draws, so the first j
    centroids of a row are the j-centroid seeding of its generator. Returns
    the (A, k, 2) seedings.
    """
    n, a = len(points), len(rngs)
    seeds = np.empty((a, k, 2))
    seeds[:, 0] = points[[rng.integers(n) for rng in rngs]]
    states = [rng.bit_generator.state for rng in rngs]
    uniforms = np.array([rng.random(k - 1) for rng in rngs])
    px, py = points.T
    planes, cdf = np.empty((2, a, n)), np.empty((a, n))
    d2 = np.full((a, n), np.inf)
    replayed = set()
    # a collapsed row's cdf is 0/0; an overflowing total raises below
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, k):
            newest = seeds[:, j - 1]
            np.minimum(d2, _sq_dist(px, py, newest[:, :1], newest[:, 1:], planes),
                       out=d2)
            totals = d2.sum(axis=1)
            np.divide(d2, totals[:, None], out=cdf)
            cdf.cumsum(axis=1, out=cdf)
            cdf /= cdf[:, -1:]
            pick = (cdf <= uniforms[:, j - 1:j]).sum(axis=1)
            if not (0 < totals.min() and totals.max() < math.inf):
                for i, total in enumerate(totals.tolist()):
                    if total <= 0:
                        rng = rngs[i]
                        if i not in replayed:
                            replayed.add(i)
                            rng.bit_generator.state = states[i]
                            rng.random(j - 1)
                        pick[i] = rng.integers(n)
                    elif not total < math.inf:
                        raise ValueError("squared distances between the points "
                                         "overflow")
            seeds[:, j] = points[pick]
    return seeds


def _assign(points: np.ndarray, centroids: np.ndarray,
            planes: np.ndarray) -> np.ndarray:
    """Nearest centroid of each point; argmin gives ties to the lowest index.

    `planes` is a (2, n, k) scratch array: one plane per coordinate, squared
    and summed in place. dx*dx + dy*dy is the same IEEE sequence as summing
    squared (n, k, 2) differences over their length-2 axis, so labels equal
    that form's bit for bit.
    """
    return _sq_dist(points[:, :1], points[:, 1:], centroids[:, 0],
                    centroids[:, 1], planes).argmin(axis=1)


def kmeans_cluster(points, k: int, seed=0,
                   init=None) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd iterations from `init` centroids, or from a k-means++ seeding.

    Without `init`, the seeding draws from `default_rng(seed)`. Stops when
    no centroid moves more than 1e-6 m, when the labels repeat those of the
    round before, or after 300 rounds. Ties in the assignment go to the
    lowest centroid index; a centroid that loses all members keeps its
    position for that round. Returns (labels, centroids).
    """
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(points)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if init is None:
        centroids = _kmeanspp_seeds(points, k, [np.random.default_rng(seed)])[0]
    else:
        centroids = np.asarray(init, dtype=float).reshape(k, 2)
    px, py = np.ascontiguousarray(points.T)
    planes = np.empty((2, n, k))
    labels = None
    for _ in range(_LLOYD_MAX_ITER):
        new_labels = _assign(points, centroids, planes)
        if labels is not None and (new_labels == labels).all():
            # the update would give back these centroids, and they these labels
            return labels, centroids
        labels = new_labels
        counts = np.bincount(labels, minlength=k)
        occupied = counts > 0
        new = centroids.copy()
        for col, coords in enumerate((px, py)):
            np.divide(np.bincount(labels, coords, k), counts, out=new[:, col],
                      where=occupied)
        moved = np.hypot(new[:, 0] - centroids[:, 0],
                         new[:, 1] - centroids[:, 1]).max()
        centroids = new
        if moved < _LLOYD_TOL_M:
            break
    return _assign(points, centroids, planes), centroids


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
        # (ROADMAP item 2)
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
    px, py = points[order].T
    reach = 2.0 * r_m * (1.0 + _APART_MARGIN)
    near = np.zeros(len(points), dtype=bool)
    taken = []
    while not near.all():
        i = int(np.argmin(near))            # first in order not yet near the set
        near |= np.hypot(px - px[i], py - py[i]) <= reach
        taken.append(i)
    return order[np.array(taken, dtype=int)]


def cluster_sensors(scenario: Scenario, radii: CoverageRadii) -> ClusterSet:
    """Partition the sensor field into coverage- and capacity-feasible clusters."""
    points = scenario.sensor_positions
    n = len(points)
    k_min = max(math.ceil(n / scenario.n_th),
                len(_packing_set(points, radii.r_g2u_m)))
    for k_first in range(k_min, n + 1, _K_BLOCK):
        ks = range(k_first, min(k_first + _K_BLOCK, n + 1))
        # a few fresh seedings per k before growing k; keeps the final count
        # low. Row (k, attempt) of the block's seeding starts with k's own.
        rngs = [np.random.default_rng([scenario.rng_seed, k, attempt])
                for k in ks for attempt in range(_SEED_ATTEMPTS)]
        for row, init in enumerate(_kmeanspp_seeds(points, ks[-1], rngs)):
            k = ks[row // _SEED_ATTEMPTS]
            labels, centroids = kmeans_cluster(points, k, init=init[:k])
            sizes = np.bincount(labels, minlength=k)
            dists = np.hypot(*(points - centroids[labels]).T)
            if (sizes.min() >= 1 and sizes.max() <= scenario.n_th
                    and dists.max() <= radii.r_g2u_m):
                bits = scenario.sensor_data_bits
                hover = [min_hover_time(points[labels == j], bits[labels == j],
                                        centroids[j], scenario.params)
                         for j in range(k)]
                return ClusterSet(labels, centroids, np.array(hover))
    raise InfeasibleClusteringError(
        f"no cluster count up to {n} keeps every cluster within "
        f"{radii.r_g2u_m:.1f} m of its CP and at most n_th={scenario.n_th} sensors")


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
        if d.max() > radii.r_g2u_m + 1e-6:
            problems.append(f"cluster {j} member beyond coverage radius")
        centroid = pts.mean(axis=0)
        if np.hypot(*(centroid - cp)) > 1e-6:
            problems.append(f"cluster {j} CP is not the member centroid")
    return problems


def write_clusters_csv(scenario: Scenario, cluster_set: ClusterSet,
                       assignments_path, cps_path):
    """Dump (sensor_id, cluster_id) rows and the collection-point table."""
    with open(assignments_path, "w") as f:
        f.write("sensor_id,cluster_id\n")
        for sensor_id, k in zip(scenario.sensor_ids.tolist(),
                                cluster_set.labels.tolist()):
            f.write(f"{sensor_id},{k}\n")
    sizes = np.bincount(cluster_set.labels, minlength=cluster_set.k)
    # Python floats: numpy 2 writes a float64's repr as np.float64(...)
    rows = zip(cluster_set.cps.tolist(), sizes.tolist(),
               cluster_set.hover_s.tolist())
    with open(cps_path, "w") as f:
        f.write("cluster_id,cp_x_m,cp_y_m,n_members,min_hover_s\n")
        for k, ((x, y), n, hover) in enumerate(rows):
            f.write(f"{k},{x!r},{y!r},{n},{hover!r}\n")
