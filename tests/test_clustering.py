"""Capacity- and radius-constrained clustering."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import build_instance, write_outputs
from skyhaul import clustering
from skyhaul.baselines import plan_cstp
from skyhaul.channel import coverage_radii, min_hover_time
from skyhaul.cli import prepare
from skyhaul.clustering import (check_cluster_set, cluster_sensors,
                                kmeans_cluster)
from skyhaul.model import Scenario, generate_scenario


def _assign(points, centroids):
    return clustering._Nearest(points)(centroids)


def _assign_broadcast(points, centroids):
    """The (n, k, 2) broadcast distance step the split-coordinate form replaced."""
    d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1)


def _seeded(points, k, seed):
    """The k-means++ seeding of `default_rng(seed)`."""
    return clustering._kmeanspp_seeds(points, k, np.random.default_rng(seed))


def _seed_broadcast(points, k, rng):
    """One k-means++ seeding through `rng.choice`, the distance written as a
    summed (n, 2) square; a mass of zero draws uniformly."""
    n = len(points)
    centroids = np.empty((k, 2))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        pick = rng.choice(n, p=d2 / total) if total > 0 else rng.choice(n)
        centroids[j] = points[pick]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def _lloyd_reference(points, centroids):
    """Plain Lloyd: every round updates, with no exit on repeated labels,
    until an update leaves every centroid exactly where it was; the labels
    returned come from a final assignment."""
    k = len(centroids)
    for _ in range(300):
        labels = _assign_broadcast(points, centroids)
        counts = np.bincount(labels, minlength=k)[:, None]
        sums = np.stack([np.bincount(labels, weights=col, minlength=k)
                         for col in points.T], axis=1)
        new = np.divide(sums, counts, out=centroids.copy(), where=counts > 0)
        if np.array_equal(new, centroids):
            break
        centroids = new
    return _assign_broadcast(points, centroids), centroids


def test_kmeans_each_point_own_cluster():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 100, size=(6, 2))
    labels, centroids = kmeans_cluster(pts, 6, _seeded(pts, 6, 1))
    # zero distortion: every centroid coincides with one point
    d = np.hypot(*(pts - centroids[labels]).T)
    assert d.max() < 1e-9
    assert sorted(labels.tolist()) == list(range(6))


def test_kmeans_two_separated_blobs():
    blob_a = np.array([[0.0, 0.0], [2.0, 0.0]])
    blob_b = np.array([[100.0, 0.0], [102.0, 0.0]])
    pts = np.vstack([blob_a, blob_b])
    labels, centroids = kmeans_cluster(pts, 2, _seeded(pts, 2, 3))
    assert labels[0] == labels[1] and labels[2] == labels[3]
    assert labels[0] != labels[2]
    got = sorted(centroids.tolist())
    assert got[0] == pytest.approx([1.0, 0.0])
    assert got[1] == pytest.approx([101.0, 0.0])


def test_kmeans_converges_to_fixed_point():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1000, size=(300, 2))
    labels, centroids = kmeans_cluster(pts, 7, _seeded(pts, 7, 5))
    # converged run: centroids are member means and labels are re-derived
    for j in range(7):
        members = pts[labels == j]
        assert len(members) > 0
        assert centroids[j] == pytest.approx(members.mean(axis=0), abs=1e-5)
    d2 = np.sum((pts[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    assert np.array_equal(np.argmin(d2, axis=1), labels)


def test_kmeans_deterministic_per_seed():
    rng = np.random.default_rng(12)
    pts = rng.uniform(0, 500, size=(80, 2))
    l1, c1 = kmeans_cluster(pts, 5, _seeded(pts, 5, [42, 5]))
    l2, c2 = kmeans_cluster(pts, 5, _seeded(pts, 5, [42, 5]))
    assert np.array_equal(l1, l2) and np.array_equal(c1, c2)


def test_kmeans_duplicate_points_leave_a_centroid_empty():
    # three distinct locations for four centroids: some cluster is always empty
    pts = np.array([[0.0, 0.0]] * 3 + [[10.0, 0.0], [20.0, 0.0]])
    for seed in range(8):
        labels, centroids = kmeans_cluster(pts, 4, _seeded(pts, 4, seed))
        assert np.isfinite(centroids).all()
        for p, label in zip(pts, labels):
            d2 = np.sum((p - centroids) ** 2, axis=1).tolist()
            assert label == d2.index(min(d2))   # nearest, lowest index on ties


def test_assign_matches_broadcast_on_random_instances():
    rng = np.random.default_rng(20)
    for _ in range(200):
        n, k = rng.integers(1, 300), rng.integers(1, 40)
        scale = 10.0 ** rng.uniform(0, 4.5)
        pts = rng.uniform(0, scale, size=(n, 2))
        cents = rng.uniform(0, scale, size=(k, 2))
        assert np.array_equal(_assign(pts, cents),
                              _assign_broadcast(pts, cents))


def test_assign_ties_go_to_lowest_index():
    # every centroid 5 m from the origin; duplicates tie exactly as well
    cents = np.array([[3.0, 4.0], [-3.0, 4.0], [5.0, 0.0], [0.0, -5.0],
                      [3.0, 4.0]])
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 4.0], [0.0, 4.0]])
    assert _assign(pts, cents).tolist() == [0, 0, 0, 0]
    assert _assign(pts, cents[[2, 3, 1, 0, 4]]).tolist() == [0, 3, 3, 2]
    # points on a lattice midway between lattice centroids
    g = np.arange(0.0, 50.0, 10.0)
    cents = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    pts = cents + 5.0
    for c, p in ((cents, pts), (cents[::-1], pts)):
        got = _assign(p, c)
        assert np.array_equal(got, _assign_broadcast(p, c))
        d2 = np.sum((p[:, None, :] - c[None, :, :]) ** 2, axis=2)
        assert (got == [row.tolist().index(row.min()) for row in d2]).all()


def test_assign_matches_broadcast_far_from_the_origin():
    # 1e6 m offsets: squared distances near 1e12 with ulps near 1e-4 m²
    rng = np.random.default_rng(21)
    for _ in range(100):
        offset = rng.uniform(-1e6, 1e6, size=2)
        cents = offset + rng.uniform(-50, 50, size=(rng.integers(2, 30), 2))
        pts = offset + rng.uniform(-60, 60, size=(rng.integers(1, 200), 2))
        # plus points exactly midway between two centroids
        pts = np.vstack([pts, (cents[:-1] + cents[1:]) / 2])
        assert np.array_equal(_assign(pts, cents),
                              _assign_broadcast(pts, cents))


def _bisector_instances():
    """Two centroids and points computed on their perpendicular bisector,
    mid + t·perp in floats: both distance forms put each point within
    rounding of either centroid, and ties go by a few ulps."""
    rng = np.random.default_rng(30)
    for _ in range(300):
        scale = 10.0 ** rng.uniform(3, math.log10(3e4))
        cents = rng.uniform(0, scale, size=(2, 2))
        mid = (cents[0] + cents[1]) / 2
        perp = (cents[1] - cents[0])[::-1] * [-1.0, 1.0]
        t = rng.uniform(-1, 1, size=(100, 1))
        yield mid + t * perp, cents


def _bisector_mislabels():
    return sum(int((_assign(pts, c) != _assign_broadcast(pts, c)).sum())
               for pts, cents in _bisector_instances()
               for c in (cents, cents[::-1]))


def test_assign_matches_broadcast_on_the_bisector(monkeypatch):
    assert _bisector_mislabels() == 0
    # without the relative band, float32 rounding picks the wrong centroid
    monkeypatch.setattr(clustering, "_BAND32", 0.0)
    assert _bisector_mislabels() > 0


def test_assign_matches_broadcast_where_squares_overflow():
    # squares of 1e150 m are 1e300; of 1e154 m, past the largest float
    rng = np.random.default_rng(31)
    overflowed = 0
    for _ in range(60):
        scale = 10.0 ** rng.uniform(150, 154.5)
        pts = rng.uniform(-scale, scale, size=(rng.integers(1, 50), 2))
        cents = rng.uniform(-scale, scale, size=(rng.integers(1, 8), 2))
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.array_equal(_assign(pts, cents),
                                  _assign_broadcast(pts, cents))
        overflowed += scale > math.sqrt(np.finfo(float).max)
    assert overflowed
    # every square is finite, but g of centroid 0 at the first point is not:
    # there the exact form ties both centroids at inf and takes centroid 0
    pts = np.array([[9.48e153, 0.0], [-9.48e153, 0.0]])
    cents = np.array([[-7e153, 0.0], [-4e153, 0.0]])
    with np.errstate(over="ignore", invalid="ignore"):
        assert _assign(pts, cents).tolist() == [0, 0]
        assert _assign_broadcast(pts, cents).tolist() == [0, 0]


def test_assign_matches_broadcast_where_squares_underflow():
    # lattices 1e-170 to 3e-155 m apart: float64 squares are subnormal or
    # zero, and their rounding is absolute rather than relative; 1e-30 to
    # 3e-21 m apart, float32 squares are
    rng = np.random.default_rng(34)
    for unit in (1e-170, 1e-162, 1e-160, 1e-158, 3e-155,
                 1e-30, 1e-23, 3e-23, 1e-22, 3e-21):
        for _ in range(40):
            pts = rng.integers(0, 6, size=(30, 2)) * unit
            cents = (rng.integers(0, 6, size=(int(rng.integers(1, 8)), 2))
                     + rng.uniform(0, 1, size=(1, 2))) * unit
            assert np.array_equal(_assign(pts, cents),
                                  _assign_broadcast(pts, cents))


def test_assign_matches_broadcast_on_colocated_and_single_cases():
    rng = np.random.default_rng(32)
    spots = rng.uniform(0, 8000, size=(3, 2))
    cases = [
        (spots[rng.integers(0, 3, size=40)], spots[[0, 1, 1, 2, 0]]),
        (np.full((7, 2), 5.0), np.full((4, 2), 5.0)),
        (np.full((7, 2), 5.0), np.array([[5.0, 5.0], [6.0, 5.0], [5.0, 5.0]])),
        (spots[:1], rng.uniform(0, 8000, size=(9, 2))),
        (spots[:1], spots[[0, 0]]),
        (rng.uniform(0, 8000, size=(50, 2)), spots[:1]),
        (spots[:1], spots[:1] + 1.0),
    ]
    for pts, cents in cases:
        assert np.array_equal(_assign(pts, cents),
                              _assign_broadcast(pts, cents))


def _spy_on_exact_rows(monkeypatch):
    """The number of points of each `_exact_rows` call, appended as it runs."""
    rows = []
    exact = clustering._exact_rows

    def spy(points, centroids):
        rows.append(len(points))
        return exact(points, centroids)

    monkeypatch.setattr(clustering, "_exact_rows", spy)
    return rows


def test_exact_rows_run_only_where_the_band_is_in_doubt(monkeypatch):
    rows = _spy_on_exact_rows(monkeypatch)
    rng = np.random.default_rng(33)
    pts, cents = rng.uniform(0, 8000, size=(1000, 2)), rng.uniform(0, 8000, size=(22, 2))
    assert np.array_equal(_assign(pts, cents), _assign_broadcast(pts, cents))
    assert rows == []
    # duplicate centroids: every point is in doubt
    assert _assign(pts, cents[[3, 3]]).tolist() == [0] * 1000
    assert rows == [1000]
    for pts, cents in _bisector_instances():
        _assign(pts, cents)
    assert len(rows) > 1


def test_exact_rows_take_every_point_where_float32_4s_overflows(monkeypatch):
    rows = _spy_on_exact_rows(monkeypatch)
    rng = np.random.default_rng(35)
    # 1e19 m: float64 squares near 1e38 are finite, but 4·S passes the
    # float32 maximum; from 1e40 m, p' itself overflows its float32 cast
    for scale in (1e19, 1e25, 1e40, 1e100):
        for _ in range(10):
            offset = rng.uniform(-scale, scale, size=2)
            pts = offset + rng.uniform(-scale, scale, size=(rng.integers(1, 60), 2))
            cents = offset + rng.uniform(-scale, scale, size=(rng.integers(1, 9), 2))
            rows.clear()
            assert np.array_equal(_assign(pts, cents),
                                  _assign_broadcast(pts, cents))
            assert rows == [len(pts)]
    # at 1e18 m the float32 step still runs
    pts = rng.uniform(-1e18, 1e18, size=(1000, 2))
    cents = rng.uniform(-1e18, 1e18, size=(22, 2))
    rows.clear()
    assert np.array_equal(_assign(pts, cents), _assign_broadcast(pts, cents))
    assert rows == []


def test_kmeans_matches_broadcast_reference():
    rng = np.random.default_rng(22)
    cases = []
    for offset in (0.0, 1e6):
        # (3000, 71): a product large enough for BLAS to thread
        for n, k in ((1, 1), (5, 4), (120, 7), (400, 30), (1000, 22),
                     (3000, 71)):
            cases.append((offset + rng.uniform(0, 8000, size=(n, 2)), k,
                          [int(rng.integers(1000)), k, 0]))
    cases.append((np.array([[0.0, 0.0]] * 3 + [[10.0, 0.0], [20.0, 0.0]]), 4, 3))
    for pts, k, seed in cases:
        init = _seed_broadcast(pts, k, np.random.default_rng(seed))
        ref_labels, ref_cents = _lloyd_reference(pts, init)
        for labels, cents in (kmeans_cluster(pts, k, _seeded(pts, k, seed)),
                              kmeans_cluster(pts, k, init=init)):
            assert np.array_equal(labels, ref_labels)
            assert np.array_equal(cents, ref_cents)


# (1, 0) sits 1 - 5e-7 m from the first centroid and 1 - 2.5e-7 m from the
# second; the first round moves the first centroid to (0, 0), 1 m away
_FLIP_POINTS = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
_FLIP_INIT = np.array([[5e-7, 0.0], [2.0 - 2.5e-7, 0.0]])


def test_kmeans_from_given_centroids_matches_plain_lloyd():
    rng = np.random.default_rng(24)
    for _ in range(60):
        n, k = int(rng.integers(1, 300)), int(rng.integers(1, 25))
        k = min(k, n)
        scale = 10.0 ** rng.uniform(0, 4.5)
        pts = rng.uniform(0, scale, size=(n, 2))
        # centroids off the points, some far outside: empty clusters happen
        init = rng.uniform(-scale, 2 * scale, size=(k, 2))
        before = init.copy()
        labels, cents = kmeans_cluster(pts, k, init=init)
        ref_labels, ref_cents = _lloyd_reference(pts, init)
        assert np.array_equal(labels, ref_labels)
        assert np.array_equal(cents, ref_cents)
        assert np.array_equal(init, before)
    # a centroid that moves by 5e-7 m flips a label: (1, 0) joins the empty
    # cluster 1, which then moves onto it
    labels, cents = kmeans_cluster(_FLIP_POINTS, 2, init=_FLIP_INIT)
    assert labels.tolist() == [0, 1, 0]
    assert cents.tolist() == [[-0.5, 0.0], [1.0, 0.0]]


def test_kmeans_returns_a_fixed_point():
    """Each non-empty cluster's centroid is the mean of its members, and
    each point's label its nearest centroid, lowest index on ties."""
    cases = [(_FLIP_POINTS, _FLIP_INIT)]
    rng = np.random.default_rng(28)
    for _ in range(60):
        n = int(rng.integers(1, 300))
        k = min(int(rng.integers(1, 25)), n)
        scale = 10.0 ** rng.uniform(0, 4.5)
        pts = rng.uniform(0, scale, size=(n, 2))
        cases.append((pts, rng.uniform(-scale, 2 * scale, size=(k, 2))))
        # on a few spots: ties, duplicate centroids and empty clusters
        spots = rng.integers(0, 4, size=(n, 2)) * scale
        cases.append((spots, _seeded(spots, k, [28, n, k])))
    for pts, init in cases:
        k = len(init)
        labels, cents = kmeans_cluster(pts, k, init=init)
        counts = np.bincount(labels, minlength=k)
        occupied = counts > 0
        for col, coords in enumerate(pts.T):
            means = np.bincount(labels, coords, k)[occupied] / counts[occupied]
            assert np.array_equal(cents[occupied, col], means)
        d2 = np.sum((pts[:, None, :] - cents[None, :, :]) ** 2, axis=2)
        assert labels.tolist() == [row.index(min(row)) for row in d2.tolist()]


def test_kmeans_stopped_by_the_round_cap_returns_member_means(monkeypatch):
    rng = np.random.default_rng(29)
    pts = rng.uniform(0, 1000, size=(200, 2))
    init = rng.uniform(0, 1000, size=(9, 2))
    for cap in (1, 2, 3):
        monkeypatch.setattr(clustering, "_LLOYD_MAX_ITER", cap)
        labels, cents = kmeans_cluster(pts, 9, init=init)
        counts = np.bincount(labels, minlength=9)
        occupied = counts > 0
        for col, coords in enumerate(pts.T):
            means = np.bincount(labels, coords, 9)[occupied] / counts[occupied]
            assert np.array_equal(cents[occupied, col], means)


def _seeding_instances():
    rng = np.random.default_rng(25)
    for _ in range(60):
        n = int(rng.integers(1, 400))
        scale = 10.0 ** rng.uniform(-3, 4.5)
        yield rng.uniform(0, scale, size=(n, 2)), int(rng.integers(1, n + 1))
    # co-located points, alone and beside a few distinct ones
    yield np.full((6, 2), 3.0), 6
    yield np.array([[0.0, 0.0]] * 5 + [[10.0, 0.0], [20.0, 5.0]]), 7
    # k = n, and a single point
    pts = rng.uniform(0, 1000, size=(40, 2))
    yield pts, 40
    yield pts[:1], 1


def _lattice_instances():
    # a 4 x 4 lattice 1e-162 m apart: (1e-162)² underflows to 0 but (2e-162)²
    # does not, so the mass collapses after 2 to 4 draws, depending on the draws
    rng = np.random.default_rng(26)
    for _ in range(12):
        yield rng.integers(0, 4, size=(12, 2)) * 1e-162, 12


def test_kmeanspp_seeds_match_the_choice_reference():
    for i, (pts, k) in enumerate([*_seeding_instances(), *_lattice_instances()]):
        rng = np.random.default_rng([i, k, 0])
        ref_rng = np.random.default_rng([i, k, 0])
        assert np.array_equal(clustering._kmeanspp_seeds(pts, k, rng),
                              _seed_broadcast(pts, k, ref_rng))
        # both consumed their stream alike
        assert rng.random() == ref_rng.random()


class _FixedDraws(np.random.Generator):
    """Draws the given values from random() in turn; integers() gives 0.

    Generator.choice draws through self.random, so the reference sees them
    too."""

    def __init__(self, draws):
        super().__init__(np.random.PCG64(0))
        self._draws = iter(draws)

    def random(self, size=None):
        # Generator.choice asks for one draw with size=()
        if size in (None, ()):
            return next(self._draws)
        return np.array([next(self._draws) for _ in range(size)])

    def integers(self, *args, **kwargs):
        return 0


def test_kmeanspp_draws_on_a_cdf_entry_match_the_choice_reference():
    # ten points 5 m from the first seed, pts[0]: p = 0.1 each, and the
    # cumsum ends at 1 - 2⁻⁵³, so choice's cdf /= cdf[-1] moves most entries;
    # a draw equal to an entry, before or after that division, tells <= from <
    # and catches a cdf left unnormalised
    pts = np.array([[0, 0], [5, 0], [0, 5], [-5, 0], [0, -5], [3, 4], [4, 3],
                    [-3, 4], [-4, 3], [3, -4], [4, -3]], dtype=float)
    d2 = np.r_[0.0, np.full(10, 25.0)]
    cdf = np.cumsum(d2 / d2.sum())
    assert cdf[-1] < 1.0
    draws = [*cdf[:-1], *(cdf / cdf[-1])[:-1]]
    draws += [np.nextafter(u, side) for u in draws for side in (0.0, 1.0)]
    for u in draws:
        got = clustering._kmeanspp_seeds(pts, 2, _FixedDraws([u]))
        assert np.array_equal(got, _seed_broadcast(pts, 2, _FixedDraws([u])))


def test_kmeans_rejects_overflowing_distances():
    pts = np.array([[0.0, 0.0], [1e160, 0.0], [0.0, 1e160]])
    for k in (2, 3):
        with pytest.raises(ValueError, match="overflow"):
            _seeded(pts, k, 0)


def _warm_split_reference(scenario, radii):
    """The k search written out: one `rng.choice` seeding at the floor, then
    one Lloyd run per cluster count, each from the last run's centroids
    plus one split sensor. Returns the kinds of split made ("radius" or
    "cap"), the labels, CPs and hovers."""
    points, n = scenario.sensor_positions, scenario.n_sensors
    r, n_th = radii.r_g2u_m, scenario.n_th
    k = max(math.ceil(n / n_th),
            len(clustering._packing_set(points, r)))
    init = _seed_broadcast(points, k,
                           np.random.default_rng([scenario.rng_seed, k, 0]))
    splits = []
    while True:
        labels, cps = kmeans_cluster(points, k, init=init)
        dists = np.hypot(*(points - cps[labels]).T).tolist()
        sizes = [labels.tolist().count(j) for j in range(k)]
        beyond = [i for i in range(n) if dists[i] > r]
        if not beyond and max(sizes) <= n_th:
            break
        if beyond:
            splits.append("radius")
            candidates = range(n)
        else:
            splits.append("cap")
            largest = sizes.index(max(sizes))
            candidates = [i for i in range(n) if labels[i] == largest]
        # the farthest, first index on ties
        far = max(candidates, key=lambda i: (dists[i], -i))
        init = np.vstack([cps, points[far]])
        k += 1
    kept = [j for j in range(k) if sizes[j]]
    labels = np.array([kept.index(j) for j in labels.tolist()])
    cps = cps[kept]
    bits = scenario.sensor_data_bits
    hover = [min_hover_time(points[labels == j], bits[labels == j], cps[j],
                            scenario.params)
             for j in range(len(kept))]
    return splits, labels, cps, np.array(hover)


def test_k_search_matches_the_written_out_warm_split():
    kinds = set()
    fields = [(120, 6000.0, seed) for seed in range(8)]
    fields += [(200, 8000.0, 1), (200, 8000.0, 3), (5, 16000.0, 0)]
    scenarios = [generate_scenario(size, size, n, seed=seed)
                 for n, size, seed in fields]
    # dense fields under a small member cap: the cap splits
    scenarios += [dataclasses.replace(
        generate_scenario(2000.0, 2000.0, 150, seed=seed), n_th=8)
        for seed in range(3)]
    # clumps: co-located members tie for the farthest
    scenarios += _split_fields()
    for sc in scenarios:
        radii = coverage_radii(sc.params, sc.bs_height_m)
        got = cluster_sensors(sc, radii)
        splits, labels, cps, hover = _warm_split_reference(sc, radii)
        kinds.add(tuple(sorted(set(splits))))
        assert got.labels.tobytes() == labels.tobytes()
        assert got.cps.tobytes() == cps.tobytes()
        assert got.hover_s.tobytes() == hover.tobytes()
    # accepted at the floor, after radius splits alone, and after cap splits
    assert {(), ("radius",)} <= kinds
    assert any("cap" in kind for kind in kinds)


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_k_search_matches_the_written_out_warm_split_under_the_round_cap(
        monkeypatch, cap):
    # a run stopped by the cap ends on no fixed point, so the run after it
    # must take the full first round; the reference takes it every run
    monkeypatch.setattr(clustering, "_LLOYD_MAX_ITER", cap)
    fields = [(120, 6000.0, seed) for seed in range(4)]
    fields += [(200, 8000.0, 1), (200, 8000.0, 3)]
    scenarios = [generate_scenario(size, size, n, seed=seed)
                 for n, size, seed in fields]
    scenarios += [dataclasses.replace(
        generate_scenario(2000.0, 2000.0, 150, seed=seed), n_th=8)
        for seed in range(2)]
    splits = 0
    for sc in scenarios:
        radii = coverage_radii(sc.params, sc.bs_height_m)
        got = cluster_sensors(sc, radii)
        kinds, labels, cps, hover = _warm_split_reference(sc, radii)
        splits += len(kinds)
        assert got.labels.tobytes() == labels.tobytes()
        assert got.cps.tobytes() == cps.tobytes()
        assert got.hover_s.tobytes() == hover.tobytes()
    assert splits > 20


def test_a_warm_first_round_is_the_exact_rows_of_the_split(monkeypatch):
    # after a run that reached its fixed point, a run from its centroids plus
    # one sensor takes its first labels from the fixed point's, with no full
    # nearest-centroid step; on lattices the new centroid ties often
    full_steps = []
    step = clustering._Nearest.__call__

    def counted(self, centroids):
        full_steps.append(len(centroids))
        return step(self, centroids)

    monkeypatch.setattr(clustering._Nearest, "__call__", counted)
    rng = np.random.default_rng(32)
    ties = 0
    for trial in range(40):
        n = int(rng.integers(2, 300))
        k = int(rng.integers(1, min(n, 25)))
        if trial % 2:
            pts = rng.uniform(0, 10.0 ** rng.uniform(0, 4.5), size=(n, 2))
        else:
            pts = rng.integers(0, 5, size=(n, 2)) * 100.0
        nearest = clustering._Nearest(pts)
        _, cents = kmeans_cluster(pts, k, init=pts[:k], nearest=nearest)
        fixed = nearest.fixed
        for split in pts[rng.integers(n, size=3)]:
            init = np.vstack([cents, split])
            d2 = np.sum((pts[:, None, :] - init[None, :, :]) ** 2, axis=2)
            ties += int((d2[:, -1] == d2[:, :-1].min(axis=1)).sum())
            nearest.fixed = fixed
            full_steps.clear()
            got = nearest.first_round(init)
            assert full_steps == []
            assert np.array_equal(got, d2.argmin(axis=1))
            # the fixed point is spent: the next first round takes the full
            # step
            assert np.array_equal(nearest.first_round(init), got)
            assert full_steps == [k + 1]
    assert ties > 100


def _spy_kmeans(monkeypatch):
    """Records (k, init, labels, centroids) of every k-means run."""
    real, runs = clustering.kmeans_cluster, []

    def spy(points, k, init, **kwargs):
        labels, cents = real(points, k, init, **kwargs)
        runs.append((k, np.array(init), labels, cents))
        return labels, cents

    monkeypatch.setattr(clustering, "kmeans_cluster", spy)
    return runs


def _split_fields():
    rng = np.random.default_rng(30)
    for _ in range(30):
        n = int(rng.integers(2, 300))
        size = float(rng.uniform(500, 16000))
        sc = generate_scenario(size, size, n, seed=int(rng.integers(1000)))
        n_th = int(rng.integers(1, 40))
        if rng.random() < 0.5:
            # clumps: up to n_th sensors on each of a few spots
            spots = rng.uniform(0, size, size=(n, 2))
            per_spot = int(rng.integers(1, n_th + 1))
            positions = spots[np.arange(n) // per_spot]
            sc = dataclasses.replace(sc, sensor_positions=positions)
        yield dataclasses.replace(sc, n_th=n_th)


def test_split_sensor_never_sits_on_a_centroid(monkeypatch):
    runs = _spy_kmeans(monkeypatch)
    splits = 0
    for sc in _split_fields():
        runs.clear()
        radii = coverage_radii(sc.params, sc.bs_height_m)
        clusters = cluster_sensors(sc, radii)
        assert check_cluster_set(sc, clusters, radii) == []
        for (k, _, _, cents), (next_k, init, _, _) in zip(runs, runs[1:]):
            assert next_k == k + 1
            assert np.array_equal(init[:k], cents)
            assert np.hypot(*(cents - init[k]).T).min() > 0
            splits += 1
    assert splits > 100


def test_empty_clusters_are_dropped_and_the_labels_compacted(monkeypatch):
    real = kmeans_cluster
    far = 1e7

    def with_an_empty_cluster(points, k, init, **kwargs):
        # a centroid far outside the field takes no member
        init = np.array(init)
        init[1] = far
        return real(points, k, init, **kwargs)

    monkeypatch.setattr(clustering, "kmeans_cluster", with_an_empty_cluster)
    runs = _spy_kmeans(monkeypatch)
    sc = generate_scenario(6000.0, 6000.0, 120, seed=0)
    radii = coverage_radii(sc.params, sc.bs_height_m)
    clusters = cluster_sensors(sc, radii)
    k, _, labels, cents = runs[-1]
    assert (labels != 1).all() and cents[1].tolist() == [far, far]
    assert clusters.k == k - 1
    assert np.array_equal(clusters.labels, labels - (labels > 1))
    assert np.array_equal(clusters.cps, np.delete(cents, 1, axis=0))
    assert set(clusters.labels.tolist()) == set(range(clusters.k))
    assert len(clusters.hover_s) == clusters.k
    assert check_cluster_set(sc, clusters, radii) == []


def test_k_search_ends_at_n_with_the_infeasible_message(monkeypatch):
    runs = []

    def one_cluster(points, k, init, **kwargs):
        # every sensor in cluster 0, at their mean: over the cap at every k
        runs.append((k, np.array(init)))
        centroids = np.array(init, dtype=float)
        centroids[0] = points.mean(axis=0)
        return np.zeros(len(points), dtype=int), centroids

    monkeypatch.setattr(clustering, "kmeans_cluster", one_cluster)
    # a 4 x 3 lattice in shuffled order: its four corners tie for the
    # farthest from the mean, so every split takes the first of them
    lattice = np.array([[x, y] for x in (0.0, 100.0, 200.0, 300.0)
                        for y in (0.0, 100.0, 200.0)])
    order = np.random.default_rng(31).permutation(12)
    positions = lattice[order]
    corner = min(np.flatnonzero(np.isin(order, [0, 2, 9, 11])))
    sc = dataclasses.replace(generate_scenario(300.0, 300.0, 12, seed=0),
                             sensor_positions=positions, n_th=5)
    radii = coverage_radii(sc.params, sc.bs_height_m)
    message = (f"no cluster count up to 12 keeps every cluster within "
               f"{radii.r_g2u_m:.1f} m of its CP and at most n_th=5 sensors")
    with pytest.raises(clustering.InfeasibleClusteringError) as exc:
        cluster_sensors(sc, radii)
    assert str(exc.value) == message
    assert [k for k, _ in runs] == list(range(3, 13))
    assert corner > 0
    for _, init in runs[1:]:
        assert init[-1].tolist() == positions[corner].tolist()


def test_colocated_sensors_over_the_member_cap_fail_before_the_k_search(
        monkeypatch):
    calls = []
    monkeypatch.setattr(clustering, "kmeans_cluster",
                        lambda *args, **kwargs: calls.append(args))
    sc = generate_scenario(100.0, 100.0, 200, seed=0)
    sc = dataclasses.replace(sc, sensor_positions=np.full((200, 2), 50.0),
                             n_th=60)
    radii = coverage_radii(sc.params, sc.bs_height_m)
    message = (f"no cluster count up to 200 keeps every cluster within "
               f"{radii.r_g2u_m:.1f} m of its CP and at most n_th=60 sensors")
    with pytest.raises(clustering.InfeasibleClusteringError) as exc:
        cluster_sensors(sc, radii)
    assert str(exc.value) == message
    assert calls == []


@pytest.mark.parametrize("extra, fails", [(0, False), (1, True)])
def test_signed_zeros_are_one_position(monkeypatch, extra, fails):
    # 30 sensors at (0.0, 50.0) and 30 + extra at (-0.0, 50.0): equal
    # values, so one position of 60 + extra sensors against n_th=60
    calls = []

    def no_search(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("k search")

    monkeypatch.setattr(clustering, "kmeans_cluster", no_search)
    positions = np.tile([[0.0, 50.0], [-0.0, 50.0]], (30, 1))
    positions = np.vstack([positions, np.tile([-0.0, 50.0], (extra, 1)),
                           np.tile([100.0, 100.0], (5, 1))])
    sc = generate_scenario(100.0, 100.0, len(positions), seed=0)
    sc = dataclasses.replace(sc, sensor_positions=positions, n_th=60)
    radii = coverage_radii(sc.params, sc.bs_height_m)
    if fails:
        with pytest.raises(clustering.InfeasibleClusteringError):
            cluster_sensors(sc, radii)
        assert calls == []
    else:
        with pytest.raises(RuntimeError, match="k search"):
            cluster_sensors(sc, radii)


def test_underflowing_squares_end_in_the_typed_error():
    # four positions 1e-162 m apart, 25 sensors each: their squared distances
    # underflow to 0, so the seeding's mass collapses at the second draw and
    # every sensor ties for the first centroid at every k
    sc = generate_scenario(100.0, 100.0, 100, seed=0)
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    sc = dataclasses.replace(sc, sensor_positions=np.tile(corners, (25, 1))
                             * 1e-162, n_th=30)
    radii = coverage_radii(sc.params, sc.bs_height_m)
    with pytest.raises(clustering.InfeasibleClusteringError):
        cluster_sensors(sc, radii)


def test_packing_set_is_pairwise_apart_and_maximal():
    rng = np.random.default_rng(23)
    for _ in range(20):
        pts = rng.uniform(0, 16000, size=(rng.integers(1, 300), 2))
        r = rng.uniform(200, 2000)
        taken = clustering._packing_set(pts, r)
        d = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
        sub = d[np.ix_(taken, taken)]
        assert (sub[~np.eye(len(taken), dtype=bool)] > 2 * r).all()
        # greedy from the periphery in: every point left out is near a pick
        # made earlier in the greedy's order
        mid = 0.5 * (pts.min(axis=0) + pts.max(axis=0))
        rank = np.empty(len(pts), dtype=int)
        rank[np.argsort(-np.hypot(*(pts - mid).T), kind="stable")] = \
            np.arange(len(pts))
        for i in set(range(len(pts))) - set(taken.tolist()):
            earlier = taken[rank[taken] < rank[i]]
            assert (d[i, earlier] <= 2 * r * (1 + 1e-9)).any()


def _packing_reference(points, r_m):
    """_packing_set written out: a mask of the points near the set so far,
    each pick the first point in order not yet near it."""
    mid = 0.5 * (points.min(axis=0) + points.max(axis=0))
    order = np.argsort(-np.hypot(*(points - mid).T), kind="stable")
    px, py = points[order].T
    reach = 2.0 * r_m * (1.0 + 1e-9)
    near = np.zeros(len(points), dtype=bool)
    taken = []
    while not near.all():
        i = int(np.argmin(near))
        near |= np.hypot(px - px[i], py - py[i]) <= reach
        taken.append(i)
    return order[np.array(taken, dtype=int)]


def test_packing_set_matches_the_masked_reference():
    rng = np.random.default_rng(29)
    sizes = set()
    for trial in range(60):
        n = int(rng.integers(1, 400))
        size = float(rng.uniform(500.0, 20000.0))
        pts = rng.uniform(0.0, size, (n, 2))
        if trial % 2:
            # clumps: a few spots, several sensors on each
            pts = pts[rng.integers(int(rng.integers(1, 12)), size=n)]
        r = float(rng.uniform(100.0, 2000.0))
        got = clustering._packing_set(pts, r)
        assert got.tobytes() == _packing_reference(pts, r).tobytes()
        sizes.add(len(got))
    assert len(sizes) > 10


def _two_sensor_scenario(gap_m):
    sc = generate_scenario(100.0, 100.0, 2, seed=0)
    return Scenario(region_width_m=gap_m, region_height_m=100.0,
                    bs_position_m=(0.0, 0.0), bs_height_m=sc.bs_height_m,
                    sensor_ids=np.arange(2),
                    sensor_positions=np.array([[0.0, 0.0], [gap_m, 0.0]]),
                    sensor_data_bits=np.full(2, 1e7),
                    params=sc.params, n_th=sc.n_th,
                    v_max_mps=sc.v_max_mps, d_safe_m=sc.d_safe_m, rng_seed=0)


def test_sensors_two_radii_apart_share_one_cluster():
    sc = generate_scenario(100.0, 100.0, 2, seed=0)
    radii = coverage_radii(sc.params, sc.bs_height_m)
    r = radii.r_g2u_m
    # the midpoint sits exactly r from both, so k=1 must stay in the search
    assert cluster_sensors(_two_sensor_scenario(2 * r), radii).k == 1
    assert cluster_sensors(_two_sensor_scenario(2 * r * (1 + 1e-6)), radii).k == 2


def test_packing_floor_skips_only_infeasible_k(monkeypatch):
    runs = _spy_kmeans(monkeypatch)
    for seed in range(3):
        sc = generate_scenario(16000.0, 16000.0, 100, seed=seed)
        radii = coverage_radii(sc.params, sc.bs_height_m)
        floor = len(clustering._packing_set(sc.sensor_positions, radii.r_g2u_m))
        assert floor > math.ceil(sc.n_sensors / sc.n_th)
        runs.clear()
        assert cluster_sensors(sc, radii).k >= floor
        assert runs[0][0] == floor
        # without the floor, the search starts at ceil(N / n_th) and rejects
        # every cluster count below the floor
        runs.clear()
        with monkeypatch.context() as m:
            m.setattr(clustering, "_packing_set", lambda points, r: [])
            assert cluster_sensors(sc, radii).k >= floor
        assert runs[0][0] == math.ceil(sc.n_sensors / sc.n_th)


def test_kmeans_rejects_bad_k():
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError):
        kmeans_cluster(pts, 5, np.zeros((5, 2)))
    with pytest.raises(ValueError):
        kmeans_cluster(pts, 0, np.zeros((0, 2)))


def test_cluster_sensors_postconditions():
    scenario, radii, cluster_set, _ = build_instance(250, 3500.0, seed=2)
    labels = cluster_set.labels
    # one label per sensor: every sensor is in exactly one cluster
    assert labels.shape == (scenario.n_sensors,)
    assert set(labels.tolist()) == set(range(cluster_set.k))
    for j, cp in enumerate(cluster_set.cps):
        pts = scenario.sensor_positions[labels == j]
        assert 1 <= len(pts) <= scenario.n_th
        d = np.hypot(*(pts - cp).T)
        assert d.max() <= radii.r_g2u_m + 1e-6
        assert cp == pytest.approx(pts.mean(axis=0), abs=1e-6)
        assert cluster_set.hover_s[j] > 0
    assert check_cluster_set(scenario, cluster_set, radii) == []


def test_cluster_sensors_deterministic():
    sc = generate_scenario(3500.0, 3500.0, 250, seed=2)
    radii = coverage_radii(sc.params, sc.bs_height_m)
    a = cluster_sensors(sc, radii)
    b = cluster_sensors(sc, radii)
    assert np.array_equal(a.labels, b.labels)


def test_close_sensors_form_single_cluster():
    sc = generate_scenario(200.0, 200.0, 3, seed=4)
    radii = coverage_radii(sc.params, sc.bs_height_m)
    cs = cluster_sensors(sc, radii)
    assert cs.k == 1
    assert cs.cps[0] == \
        pytest.approx(sc.sensor_positions.mean(axis=0), abs=1e-6)


def _tampered(kind, scenario, radii, cluster_set):
    """A copy of `cluster_set` with one kind of defect."""
    labels, cps = cluster_set.labels.copy(), cluster_set.cps.copy()
    if kind == "empty-cluster":
        labels[labels == 0] = 1
    elif kind == "over-n_th":
        labels[:scenario.n_th + 1] = 0
    elif kind == "cp-beyond-r_g2u":
        cps[0] = (radii.r_g2u_m * 10, 0.0)
    elif kind == "cp-off-centroid":
        cps[0, 0] += 1e-3
    elif kind == "label-k":
        labels[0] = cluster_set.k
    elif kind == "labels-too-short":
        labels = labels[:-1]
    return dataclasses.replace(cluster_set, labels=labels, cps=cps)


_FINDINGS = {
    "empty-cluster": ["cluster 0 is empty"],
    "over-n_th": ["cluster 0 holds"],
    "cp-beyond-r_g2u": ["cluster 0 member beyond coverage radius",
                        "cluster 0 CP is not the member centroid"],
    "cp-off-centroid": ["cluster 0 CP is not the member centroid"],
    "label-k": ["has label"],
    "labels-too-short": ["labels have shape (119,), expected (120,)"],
}


@pytest.mark.parametrize("kind", _FINDINGS)
def test_check_cluster_set_flags_tampering(kind):
    scenario, radii, cluster_set, _ = build_instance(120, 2500.0, seed=6)
    assert check_cluster_set(scenario, cluster_set, radii) == []
    tampered = _tampered(kind, scenario, radii, cluster_set)
    problems = check_cluster_set(scenario, tampered, radii)
    for finding in _FINDINGS[kind]:
        assert any(finding in p for p in problems), (finding, problems)


def test_cluster_csv_export(tmp_path):
    scenario, radii, cluster_set, topology = build_instance(80, 2000.0, seed=8)
    write_outputs(tmp_path, scenario, radii, cluster_set, topology,
                  plan_cstp(scenario, cluster_set, topology, radii))
    rows = (tmp_path / "m.assignments.csv").read_text().strip().splitlines()
    assert rows[0] == "sensor_id,cluster_id"
    assert len(rows) == scenario.n_sensors + 1
    cps = (tmp_path / "m.cps.csv").read_text().strip().splitlines()
    assert cps[0] == "cluster_id,cp_x_m,cp_y_m,n_members,min_hover_s"
    assert len(cps) == cluster_set.k + 1
    # CP coordinates survive the text round trip exactly
    first = cps[1].split(",")
    assert float(first[1]) == cluster_set.cps[0, 0]


def test_cluster_csv_writes_sensor_ids(tmp_path):
    # ids 1000, 1007, 1014, ...: rows carry the id, not the row index
    scenario = generate_scenario(2000.0, 2000.0, 80, seed=8)
    scenario = dataclasses.replace(scenario,
                                   sensor_ids=1000 + 7 * np.arange(80))
    radii, cluster_set, topology = prepare(scenario)
    write_outputs(tmp_path, scenario, radii, cluster_set, topology,
                  plan_cstp(scenario, cluster_set, topology, radii))
    text = (tmp_path / "m.assignments.csv").read_text()
    rows = [tuple(map(int, r.split(",")))
            for r in text.strip().splitlines()[1:]]
    owner = cluster_set.labels.tolist()
    assert rows == [(sid, owner[i])
                    for i, sid in enumerate(scenario.sensor_ids.tolist())]
    assert rows[:3] == [(1000, owner[0]), (1007, owner[1]), (1014, owner[2])]
