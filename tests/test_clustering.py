"""Capacity- and radius-constrained clustering."""

import numpy as np
import pytest

from conftest import build_instance
from skyhaul.channel import coverage_radii
from skyhaul.clustering import (check_cluster_set, cluster_sensors,
                                kmeans_cluster, write_clusters_csv)
from skyhaul.model import generate_scenario


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


def test_kmeans_rejects_bad_k():
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError):
        kmeans_cluster(pts, 5)
    with pytest.raises(ValueError):
        kmeans_cluster(pts, 0)


def test_cluster_sensors_postconditions():
    scenario, radii, cluster_set, _ = build_instance(250, 3500.0, seed=2)
    seen = set()
    for c in cluster_set.clusters:
        assert 1 <= len(c.member_ids) <= scenario.n_th
        pts = scenario.sensor_positions[list(c.member_ids)]
        d = np.hypot(*(pts - np.asarray(c.cp_m)).T)
        assert d.max() <= radii.r_g2u_m + 1e-6
        assert np.asarray(c.cp_m) == pytest.approx(pts.mean(axis=0), abs=1e-6)
        assert c.min_hover_s > 0
        assert seen.isdisjoint(c.member_ids)
        seen.update(c.member_ids)
    assert seen == set(range(scenario.n_sensors))
    assert check_cluster_set(scenario, cluster_set, radii) == []


def test_cluster_sensors_deterministic():
    sc = generate_scenario(3500.0, 3500.0, 250, seed=2)
    radii = coverage_radii(sc.params, sc.bs_height_m)
    a = cluster_sensors(sc, radii)
    b = cluster_sensors(sc, radii)
    assert [c.member_ids for c in a.clusters] == [c.member_ids for c in b.clusters]


def test_close_sensors_form_single_cluster():
    sc = generate_scenario(200.0, 200.0, 3, seed=4)
    radii = coverage_radii(sc.params, sc.bs_height_m)
    cs = cluster_sensors(sc, radii)
    assert cs.k == 1
    assert np.asarray(cs.clusters[0].cp_m) == \
        pytest.approx(sc.sensor_positions.mean(axis=0), abs=1e-6)


def test_check_cluster_set_flags_tampering():
    scenario, radii, cluster_set, _ = build_instance(120, 2500.0, seed=6)
    import dataclasses
    bad_cp = dataclasses.replace(cluster_set.clusters[0],
                                 cp_m=(radii.r_g2u_m * 10, 0.0))
    tampered = dataclasses.replace(
        cluster_set, clusters=(bad_cp,) + cluster_set.clusters[1:])
    problems = check_cluster_set(scenario, tampered, radii)
    assert any("coverage radius" in p for p in problems)
    assert any("centroid" in p for p in problems)


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
    assert float(first[1]) == cluster_set.clusters[0].cp_m[0]
