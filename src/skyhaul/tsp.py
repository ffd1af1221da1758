"""Closed-tour construction for per-ring waypoint visits.

Nearest-neighbour tours from every start, each polished by 2-opt; the best
result is kept. Exact enough for the handful of points a ring holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tour:
    order: tuple[int, ...]
    length_m: float


def _pairwise(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


def tour_length(points, order) -> float:
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    order = list(order)
    if len(order) < 2:
        return 0.0
    p = points[order]
    return float(np.hypot(*(p - np.roll(p, -1, axis=0)).T).sum())


def _nearest_neighbour(dist: np.ndarray, start: int) -> list[int]:
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


def _two_opt(order: list[int], dist: np.ndarray) -> list[int]:
    n = len(order)
    improved = True
    while improved:
        improved = False
        for i in range(n - 1):
            a, b = order[i], order[(i + 1) % n]
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue            # same edge, reversed
                c, d = order[j], order[(j + 1) % n]
                delta = dist[a, c] + dist[b, d] - dist[a, b] - dist[c, d]
                if delta < -1e-12:
                    order[i + 1:j + 1] = reversed(order[i + 1:j + 1])
                    improved = True
                    a, b = order[i], order[i + 1]
    return order


def solve_tsp(points) -> Tour:
    """Best 2-opt-polished nearest-neighbour tour over all starts; fully
    deterministic for given points."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(points)
    if n == 0:
        return Tour(order=(), length_m=0.0)
    if n == 1:
        return Tour(order=(0,), length_m=0.0)
    dist = _pairwise(points)
    best_order, best_len = None, np.inf
    for start in range(n):
        order = _two_opt(_nearest_neighbour(dist, start), dist)
        length = tour_length(points, order)
        if length < best_len - 1e-12:
            best_order, best_len = order, length
    return Tour(order=tuple(best_order), length_m=best_len)
