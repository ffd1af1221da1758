"""Closed-tour heuristic against exhaustive enumeration."""

import itertools

import numpy as np
import pytest

from skyhaul.tsp import solve_tsp, tour_length


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

