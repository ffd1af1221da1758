"""Capacity- and radius-constrained clustering."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import build_instance
from skyhaul import clustering
from skyhaul.channel import coverage_radii
from skyhaul.cli import prepare
from skyhaul.clustering import (check_cluster_set, cluster_sensors,
                                kmeans_cluster, write_clusters_csv)
from skyhaul.model import Scenario, generate_scenario


def _assign(points, centroids):
    return clustering._assign(points, centroids,
                              np.empty((2, len(points), len(centroids))))


def _assign_broadcast(points, centroids):
    """The (n, k, 2) broadcast distance step the split-coordinate form replaced."""
    d2 = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1)


def _seed_broadcast(points, k, rng, collapsed=None):
    """One k-means++ seeding through `rng.choice`, the distance written as a
    summed (n, 2) square; appends to `collapsed` each step drawn uniformly."""
    n = len(points)
    centroids = np.empty((k, 2))
    centroids[0] = points[rng.integers(n)]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            if collapsed is not None:
                collapsed.append(j)
            centroids[j] = points[rng.integers(n)]
            continue
        centroids[j] = points[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((points - centroids[j]) ** 2, axis=1))
    return centroids


def _lloyd_reference(points, centroids):
    """Plain Lloyd: every round updates, with no exit on repeated labels, and
    the labels returned come from a final assignment."""
    k = len(centroids)
    for _ in range(300):
        labels = _assign_broadcast(points, centroids)
        counts = np.bincount(labels, minlength=k)[:, None]
        sums = np.stack([np.bincount(labels, weights=col, minlength=k)
                         for col in points.T], axis=1)
        new = np.divide(sums, counts, out=centroids.copy(), where=counts > 0)
        moved = np.hypot(*(new - centroids).T).max()
        centroids = new
        if moved < 1e-6:
            break
    return _assign_broadcast(points, centroids), centroids


def test_kmeans_each_point_own_cluster():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 100, size=(6, 2))
    labels, centroids = kmeans_cluster(pts, 6, seed=1)
    # zero distortion: every centroid coincides with one point
    d = np.hypot(*(pts - centroids[labels]).T)
    assert d.max() < 1e-9
    assert sorted(labels.tolist()) == list(range(6))


def test_kmeans_two_separated_blobs():
    blob_a = np.array([[0.0, 0.0], [2.0, 0.0]])
    blob_b = np.array([[100.0, 0.0], [102.0, 0.0]])
    pts = np.vstack([blob_a, blob_b])
    labels, centroids = kmeans_cluster(pts, 2, seed=3)
    assert labels[0] == labels[1] and labels[2] == labels[3]
    assert labels[0] != labels[2]
    got = sorted(centroids.tolist())
    assert got[0] == pytest.approx([1.0, 0.0])
    assert got[1] == pytest.approx([101.0, 0.0])


def test_kmeans_converges_to_fixed_point():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1000, size=(300, 2))
    labels, centroids = kmeans_cluster(pts, 7, seed=5)
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
    l1, c1 = kmeans_cluster(pts, 5, seed=[42, 5])
    l2, c2 = kmeans_cluster(pts, 5, seed=[42, 5])
    assert np.array_equal(l1, l2) and np.array_equal(c1, c2)


def test_kmeans_duplicate_points_leave_a_centroid_empty():
    # three distinct locations for four centroids: some cluster is always empty
    pts = np.array([[0.0, 0.0]] * 3 + [[10.0, 0.0], [20.0, 0.0]])
    for seed in range(8):
        labels, centroids = kmeans_cluster(pts, 4, seed=seed)
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


def test_kmeans_matches_broadcast_reference():
    rng = np.random.default_rng(22)
    cases = []
    for offset in (0.0, 1e6):
        for n, k in ((1, 1), (5, 4), (120, 7), (400, 30), (1000, 22)):
            cases.append((offset + rng.uniform(0, 8000, size=(n, 2)), k,
                          [int(rng.integers(1000)), k, 0]))
    cases.append((np.array([[0.0, 0.0]] * 3 + [[10.0, 0.0], [20.0, 0.0]]), 4, 3))
    for pts, k, seed in cases:
        init = _seed_broadcast(pts, k, np.random.default_rng(seed))
        ref_labels, ref_cents = _lloyd_reference(pts, init)
        for labels, cents in (kmeans_cluster(pts, k, seed=seed),
                              kmeans_cluster(pts, k, init=init)):
            assert np.array_equal(labels, ref_labels)
            assert np.array_equal(cents, ref_cents)


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
    # a centroid that moves less than the tolerance can still flip a label,
    # which only the final assignment sees: (1, 0) joins the empty cluster 1
    pts = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    init = np.array([[5e-7, 0.0], [2.0 - 2.5e-7, 0.0]])
    labels, cents = kmeans_cluster(pts, 2, init=init)
    assert labels.tolist() == [0, 1, 0]
    assert cents.tolist() == [[0.0, 0.0], init[1].tolist()]


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
    first_collapse = set()
    for i, (pts, k) in enumerate([*_seeding_instances(), *_lattice_instances()]):
        rngs = [np.random.default_rng([i, k, attempt]) for attempt in range(3)]
        seeds = clustering._kmeanspp_seeds(pts, k, rngs)
        assert seeds.shape == (3, k, 2)
        steps = []
        for attempt, (got, rng) in enumerate(zip(seeds, rngs)):
            ref_rng = np.random.default_rng([i, k, attempt])
            collapsed = []
            assert np.array_equal(got, _seed_broadcast(pts, k, ref_rng, collapsed))
            # both consumed their stream alike
            assert rng.random() == ref_rng.random()
            steps.append(collapsed[:1])
        if pts.max() < 1e-150:
            first_collapse.add(len({tuple(s) for s in steps}) > 1)
    # some lattice seedings collapse at different steps in one lockstep call
    assert True in first_collapse


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
    for i in range(0, len(draws), 3):
        batch = draws[i:i + 3]
        seeds = clustering._kmeanspp_seeds(
            pts, 2, [_FixedDraws([u]) for u in batch])
        for got, u in zip(seeds, batch):
            assert np.array_equal(got, _seed_broadcast(pts, 2, _FixedDraws([u])))


def test_kmeans_rejects_overflowing_distances():
    pts = np.array([[0.0, 0.0], [1e160, 0.0], [0.0, 1e160]])
    with pytest.raises(ValueError, match="overflow"):
        kmeans_cluster(pts, 2)
    rngs = [np.random.default_rng([0, k, a]) for k in (1, 2, 3) for a in range(3)]
    with pytest.raises(ValueError, match="overflow"):
        clustering._kmeanspp_seeds(pts, 3, rngs)


def _random_blocks():
    rng = np.random.default_rng(27)
    for _ in range(25):
        n = int(rng.integers(2, 200))
        scale = 10.0 ** rng.uniform(-3, 4.5)
        k_first = int(rng.integers(1, n + 1))
        yield rng.uniform(0, scale, size=(n, 2)), k_first, min(k_first + 5, n)


def _collapsing_blocks():
    # five distinct spots under co-located sensors: a row's mass collapses
    # once it has taken all five, inside a block from 3 to 8
    spots = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [7.0, 7.0],
                      [30.0, 2.0]])
    yield np.vstack([spots, np.repeat(spots[:1], 3, axis=0)]), 3, 8
    yield np.repeat(spots, 4, axis=0), 3, 8
    # all co-located: every row collapses at its first step
    yield np.full((9, 2), 4.0), 1, 9
    yield from ((pts, 2, k) for pts, k in _lattice_instances())


def _block_rows_match_their_own_k(s, pts, k_first, k_last):
    """Seeds the block k_first..k_last together; returns its (k, attempt)
    rows, each checked against the seeding of its own k alone."""
    rows = [(k, a) for k in range(k_first, k_last + 1) for a in range(3)]
    seeds = clustering._kmeanspp_seeds(
        pts, k_last, [np.random.default_rng([s, k, a]) for k, a in rows])
    for got, (k, a) in zip(seeds, rows):
        alone = clustering._kmeanspp_seeds(
            pts, k, [np.random.default_rng([s, k, a])])[0]
        assert np.array_equal(got[:k], alone)
    return rows


def test_block_seeding_rows_are_the_seedings_of_their_own_k():
    for s, (pts, k_first, k_last) in enumerate(_random_blocks()):
        _block_rows_match_their_own_k(s, pts, k_first, k_last)
    collapsed_mid_block = False
    for s, (pts, k_first, k_last) in enumerate(_collapsing_blocks()):
        for k, a in _block_rows_match_their_own_k(s, pts, k_first, k_last):
            collapsed = []
            _seed_broadcast(pts, k_last, np.random.default_rng([s, k, a]),
                            collapsed)
            collapsed_mid_block |= (bool(collapsed)
                                    and k_first < collapsed[0] < k_last)
    # some row's mass collapses after the block's first k and before its last
    assert collapsed_mid_block


def _cluster_one_k_at_a_time(scenario, radii):
    """The k search seeding each cluster count on its own, through the
    `rng.choice` reference: k from the floor upward, three attempts each."""
    points, n = scenario.sensor_positions, scenario.n_sensors
    k_min = max(math.ceil(n / scenario.n_th),
                len(clustering._packing_set(points, radii.r_g2u_m)))
    for k in range(k_min, n + 1):
        for attempt in range(3):
            rng = np.random.default_rng([scenario.rng_seed, k, attempt])
            init = _seed_broadcast(points, k, rng)
            labels, cps = kmeans_cluster(points, k, init=init)
            sizes = np.bincount(labels, minlength=k)
            dists = np.hypot(*(points - cps[labels]).T)
            if (sizes.min() >= 1 and sizes.max() <= scenario.n_th
                    and dists.max() <= radii.r_g2u_m):
                bits = scenario.sensor_data_bits
                hover = [clustering.min_hover_time(
                    points[labels == j], bits[labels == j], cps[j],
                    scenario.params) for j in range(k)]
                return k - k_min, labels, cps, np.array(hover)
    raise AssertionError("reference found no feasible cluster count")


def test_k_search_by_blocks_matches_one_k_at_a_time():
    offsets = set()
    fields = [(120, 6000.0, seed) for seed in range(8)]
    fields += [(200, 8000.0, 1), (200, 8000.0, 3), (5, 16000.0, 0)]
    for n, size, seed in fields:
        sc = generate_scenario(size, size, n, seed=seed)
        radii = coverage_radii(sc.params, sc.bs_height_m)
        got = cluster_sensors(sc, radii)
        offset, labels, cps, hover = _cluster_one_k_at_a_time(sc, radii)
        offsets.add(offset % clustering._K_BLOCK)
        assert got.labels.tobytes() == labels.tobytes()
        assert got.cps.tobytes() == cps.tobytes()
        assert got.hover_s.tobytes() == hover.tobytes()
    # accepted at the first and at the last cluster count of a block
    assert {0, clustering._K_BLOCK - 1} <= offsets


def test_colocated_sensors_over_the_member_cap_exhaust_the_k_search():
    sc = generate_scenario(100.0, 100.0, 200, seed=0)
    sc = dataclasses.replace(sc, sensor_positions=np.full((200, 2), 50.0),
                             n_th=60)
    radii = coverage_radii(sc.params, sc.bs_height_m)
    message = (f"no cluster count up to 200 keeps every cluster within "
               f"{radii.r_g2u_m:.1f} m of its CP and at most n_th=60 sensors")
    with pytest.raises(clustering.InfeasibleClusteringError) as exc:
        cluster_sensors(sc, radii)
    assert str(exc.value) == message


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
    for seed in range(3):
        sc = generate_scenario(16000.0, 16000.0, 100, seed=seed)
        radii = coverage_radii(sc.params, sc.bs_height_m)
        floor = len(clustering._packing_set(sc.sensor_positions, radii.r_g2u_m))
        assert floor > math.ceil(sc.n_sensors / sc.n_th)
        with_floor = cluster_sensors(sc, radii)
        with monkeypatch.context() as m:
            m.setattr(clustering, "_packing_set", lambda points, r: [])
            without = cluster_sensors(sc, radii)
            assert np.array_equal(without.labels, with_floor.labels)
            assert np.array_equal(without.cps, with_floor.cps)
            assert np.array_equal(without.hover_s, with_floor.hover_s)


def test_kmeans_rejects_bad_k():
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError):
        kmeans_cluster(pts, 5)
    with pytest.raises(ValueError):
        kmeans_cluster(pts, 0)


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
    scenario, radii, cluster_set, _ = build_instance(80, 2000.0, seed=8)
    a_path = tmp_path / "assignments.csv"
    c_path = tmp_path / "cps.csv"
    write_clusters_csv(scenario, cluster_set, a_path, c_path)
    rows = a_path.read_text().strip().splitlines()
    assert rows[0] == "sensor_id,cluster_id"
    assert len(rows) == scenario.n_sensors + 1
    cps = c_path.read_text().strip().splitlines()
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
    radii, cluster_set, _ = prepare(scenario)
    a_path = tmp_path / "assignments.csv"
    write_clusters_csv(scenario, cluster_set, a_path, tmp_path / "cps.csv")
    rows = [tuple(map(int, r.split(",")))
            for r in a_path.read_text().strip().splitlines()[1:]]
    owner = cluster_set.labels.tolist()
    assert rows == [(sid, owner[i])
                    for i, sid in enumerate(scenario.sensor_ids.tolist())]
    assert rows[:3] == [(1000, owner[0]), (1007, owner[1]), (1014, owner[2])]
