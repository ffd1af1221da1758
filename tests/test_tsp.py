"""Closed-tour heuristic against exhaustive enumeration and against the
scalar nearest-neighbour + 2-opt loop it replaces."""

import itertools

import numpy as np
import pytest

from conftest import build_instance, tour_length
from skyhaul.tsp import _pairwise, _two_opt, solve_tours, solve_tsp


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
    order = _two_opt(np.arange(5)[None, :], np.array([5]), dist)[0].tolist()
    assert order == reference_two_opt(list(range(5)), dist)
    assert (order != list(range(5))) == moves


def test_matches_the_scalar_reference_on_a_wide_cell():
    # 400 sensors over 16 km: the clustering of the bench's `wide` workload
    cps = build_instance(400, 16000.0, 0)[2].cps
    assert len(cps) >= 50
    tour = solve_tsp(cps)
    assert (tour.order, tour.length_m) == reference_solve_tsp(cps)


# rounding makes a move and its reverse both improving here, so the 2-opt
# passes used to alternate between two orders forever
_COINCIDENT = np.array([[13946.0, 114.0], [781.0, 2981.0], [4273.0, 4064.0],
                        [13946.0, 114.0]])


def test_coincident_points_end():
    pts = _COINCIDENT
    tour = solve_tsp(pts)
    assert sorted(tour.order) == [0, 1, 2, 3]
    assert tour.length_m == pytest.approx(brute_force_length(pts), rel=1e-12)
    assert (tour.order, tour.length_m) == reference_solve_tsp(pts)


def test_matches_the_scalar_reference_across_scan_windows():
    # 80 points make 3080 candidate moves a pass, so each row's scan crosses
    # some 24 windows and hits land at every offset within one
    for seed in (3, 4):
        pts = np.random.default_rng(seed).uniform(0.0, 5000.0, (80, 2))
        tour = solve_tsp(pts)
        assert (tour.order, tour.length_m) == reference_solve_tsp(pts)


def test_cycle_guard_holds_while_rows_drop_out():
    # rows leave the lockstep at different times: some 5-point rows finish
    # while the coincident rows are inside their first pass, the coincident
    # rows then cycle between two orders, and the 80-point rows run for many
    # windows. A cycling row stops on the same order only if it checks its
    # own passes' starts after rows ahead of it dropped out
    sets = [np.random.default_rng(6).uniform(0.0, 5000.0, (5, 2)),
            _COINCIDENT,
            np.random.default_rng(3).uniform(0.0, 5000.0, (80, 2))]
    for pts, tour in zip(sets, solve_tours(sets)):
        alone = solve_tsp(pts)
        assert (tour.order, tour.length_m) == (alone.order, alone.length_m)
        assert (tour.order, tour.length_m) == reference_solve_tsp(pts)


def test_grouped_solve_matches_each_set_alone():
    # the reference instances in random groups, beside empty sets, sets of
    # one to three points, and sets drawn with repeats from another set's
    # points, so that points repeat within a set and across sets
    rng = np.random.default_rng(14)
    sets = list(reference_instances(seed=13))
    sets += [np.zeros((0, 2))] * 12
    sets += [rng.uniform(0.0, 3000.0, (int(n), 2))
             for n in rng.integers(1, 4, 40)]
    sets += [s[rng.integers(0, len(s), len(s) + 2)] for s in sets[:30:3]]
    order = rng.permutation(len(sets))
    cuts = np.sort(rng.choice(np.arange(1, len(sets)), 60, replace=False))
    groups = [[sets[t] for t in g] for g in np.split(order, cuts)]
    # a group of tiny sets only, and no set at all
    groups += [[np.zeros((0, 2)), np.array([[1.0, 2.0]]),
                np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 0.0]])], []]
    for group in groups:
        tours = solve_tours(group)
        assert len(tours) == len(group)
        for pts, tour in zip(group, tours):
            alone = solve_tsp(pts)
            assert tour.order == alone.order, pts.tolist()
            assert tour.length_m == alone.length_m, pts.tolist()
            assert type(tour.length_m) is float
