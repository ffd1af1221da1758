"""Closed-tour heuristic against exhaustive enumeration and against the
scalar nearest-neighbour + 2-opt loop it replaces."""

import itertools

import numpy as np
import pytest

from conftest import build_instance
from skyhaul.tsp import _pairwise, _two_opt, solve_tsp, tour_length


def brute_force_length(points) -> float:
    n = len(points)
    best = float("inf")
    for perm in itertools.permutations(range(1, n)):
        best = min(best, tour_length(points, (0,) + perm))
    return best


def test_degenerate_sizes():
    assert solve_tsp(np.zeros((0, 2))).order == ()
    one = solve_tsp(np.array([[3.0, 4.0]]))
    assert one.order == (0,) and one.length_m == 0.0
    two = solve_tsp(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert sorted(two.order) == [0, 1]
    assert two.length_m == pytest.approx(10.0)     # out and back


def test_square_perimeter():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tour = solve_tsp(square)
    assert tour.length_m == pytest.approx(4.0)


def test_matches_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        pts = rng.uniform(0, 1000, size=(n, 2))
        tour = solve_tsp(pts)
        assert sorted(tour.order) == list(range(n))
        assert tour.length_m == pytest.approx(brute_force_length(pts), rel=1e-9)
        assert tour.length_m == pytest.approx(tour_length(pts, tour.order), rel=1e-12)


def test_tour_length_is_cyclic():
    pts = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0]])
    order = (0, 1, 2)
    rotated = (1, 2, 0)
    assert tour_length(pts, order) == pytest.approx(tour_length(pts, rotated))
    assert tour_length(pts, order) == pytest.approx(12.0)


# The scalar solver that `solve_tsp` must reproduce move for move: the
# nearest-neighbour walk and the 2-opt double loop, one start at a time. The
# 2-opt stops when a pass starts from an order an earlier pass started from,
# without which the loop never ends where points coincide.

def reference_nearest_neighbour(dist: np.ndarray, start: int) -> list[int]:
    n = len(dist)
    unvisited = np.ones(n, dtype=bool)
    unvisited[start] = False
    order = [start]
    cur = start
    for _ in range(n - 1):
        d = np.where(unvisited, dist[cur], np.inf)
        cur = int(np.argmin(d))
        unvisited[cur] = False
        order.append(cur)
    return order


def reference_two_opt(order: list[int], dist: np.ndarray) -> list[int]:
    n = len(order)
    seen = set()
    while tuple(order) not in seen:
        seen.add(tuple(order))
        for i in range(n - 1):
            a, b = order[i], order[(i + 1) % n]
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue            # same edge, reversed
                c, d = order[j], order[(j + 1) % n]
                delta = dist[a, c] + dist[b, d] - dist[a, b] - dist[c, d]
                if delta < -1e-12:
                    order[i + 1:j + 1] = reversed(order[i + 1:j + 1])
                    a, b = order[i], order[i + 1]
    return order


def reference_solve_tsp(points):
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(points)
    if n < 2:
        return tuple(range(n)), 0.0
    dist = _pairwise(points, points)
    best_order, best_len = None, np.inf
    for start in range(n):
        order = reference_two_opt(reference_nearest_neighbour(dist, start), dist)
        length = tour_length(points, order)
        if length < best_len - 1e-12:
            best_order, best_len = order, length
    return tuple(best_order), best_len


def reference_instances(seed: int):
    """310 seeded point sets of 2 to 30 points (ring sizes), then ten of 35
    to 70 (global tours); scales from 1 m to 30 km, in five shapes: uniform,
    uniform offset by 1e6 m, with duplicated points, on a lattice, and
    collinear."""
    rng = np.random.default_rng(seed)
    sizes = [2 + t % 29 for t in range(310)] + list(range(35, 71, 4)) + [70]
    for t, n in enumerate(sizes):
        scale = 10.0 ** rng.uniform(0.0, np.log10(30000.0))
        shape = t % 5
        if shape == 0:
            pts = rng.uniform(0.0, scale, (n, 2))
        elif shape == 1:
            pts = rng.uniform(0.0, scale, (n, 2)) + 1e6
        elif shape == 2:
            base = rng.uniform(0.0, scale, ((n + 1) // 2, 2))
            pts = base[rng.integers(0, len(base), n)]
        elif shape == 3:
            pts = rng.integers(0, 6, (n, 2)) * (scale / 5.0)
        else:
            x = rng.integers(0, 20, n) * (scale / 19.0)
            pts = np.column_stack([x, x * rng.uniform(-1.0, 1.0)])
        yield pts


def test_matches_the_scalar_reference():
    for pts in reference_instances(seed=9):
        tour = solve_tsp(pts)
        assert (tour.order, tour.length_m) == reference_solve_tsp(pts), pts.tolist()
        assert type(tour.length_m) is float


@pytest.mark.parametrize("edge, moves", [(1e-12, False), (2e-12, True)])
def test_two_opt_improvement_threshold(edge, moves):
    # every distance is 0 but d(0, 1): reversing tour positions 1..2 has a
    # delta of exactly -edge, and a move needs a delta below -1e-12
    dist = np.zeros((5, 5))
    dist[0, 1] = dist[1, 0] = edge
    order = _two_opt(np.arange(5)[None, :], dist)[0].tolist()
    assert order == reference_two_opt(list(range(5)), dist)
    assert (order != list(range(5))) == moves


def test_matches_the_scalar_reference_on_a_wide_cell():
    # 400 sensors over 16 km: the clustering of the bench's `wide` workload
    cps = build_instance(400, 16000.0, 0)[2].cp_array()
    assert len(cps) >= 50
    tour = solve_tsp(cps)
    assert (tour.order, tour.length_m) == reference_solve_tsp(cps)


def test_coincident_points_end():
    # rounding made a move and its reverse both improving here, so the
    # 2-opt passes used to alternate between two orders forever
    pts = np.array([[13946.0, 114.0], [781.0, 2981.0], [4273.0, 4064.0],
                    [13946.0, 114.0]])
    tour = solve_tsp(pts)
    assert sorted(tour.order) == [0, 1, 2, 3]
    assert tour.length_m == pytest.approx(brute_force_length(pts), rel=1e-12)
    assert (tour.order, tour.length_m) == reference_solve_tsp(pts)
