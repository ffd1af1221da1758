"""Closed-tour construction: each ring's CP tour, and ttp's global tour over
all k CPs.

Nearest-neighbour tours from every start, each polished by first-improvement
2-opt (Croes 1958); the shortest is kept. The nearest-neighbour starts run in
lockstep and each 2-opt step is one array scan over the remaining moves, so a
solve makes O(moves) numpy calls. The result is move for move that of the
scalar double loop, which the tests keep as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tour:
    order: tuple[int, ...]
    length_m: float


def _pairwise(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(len(p), len(q)) matrix of distances between two point sets."""
    return np.hypot(*np.moveaxis(p[:, None, :] - q[None, :, :], -1, 0))


def _nearest_neighbours(dist: np.ndarray) -> np.ndarray:
    """(n, n) array whose row s is the nearest-neighbour tour from point s.

    All starts step in lockstep; `argmin` keeps the first of tied minima.
    """
    n = len(dist)
    starts = np.arange(n)
    unvisited = ~np.eye(n, dtype=bool)
    orders = np.empty((n, n), dtype=np.intp)
    orders[:, 0] = cur = starts
    for step in range(1, n):
        cur = np.argmin(np.where(unvisited, dist[cur], np.inf), axis=1)
        unvisited[starts, cur] = False
        orders[:, step] = cur
    return orders


def _two_opt(orders: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """First-improvement 2-opt of each row of `orders`, in place.

    The candidate moves (i, j), which reverse tour positions i+1..j, are
    taken in row-major order. From scan position `p`, every remaining
    candidate is evaluated on the current order at once and the first
    improving one is applied; since nothing moves between `p` and that hit,
    this makes the moves of the scalar double loop over i < j, and each
    delta is the same sum of the same four distances. Passes repeat until
    one starts from an order an earlier pass started from: a pass with no
    move, or a cycle, which rounding makes possible where points coincide
    (a move and its reverse can both show a delta below -1e-12).
    """
    n = orders.shape[1]
    i, j = np.triu_indices(n, 2)
    keep = (i != 0) | (j != n - 1)          # (0, n-1) is the same edge
    i, j = i[keep], j[keep]
    if not len(i):
        return orders                       # n <= 3: no move changes a tour
    k = np.arange(n)
    # flat indices into the (n, n) distances between tour positions
    edges = k * n + (k + 1) % n
    ac, bd = i * n + j, (i + 1) * n + (j + 1) % n
    for order in orders:
        # distances between tour positions, kept in step with `order`: a move
        # reverses the same segment of its rows and of its columns. Contiguous,
        # so that `flat` is a view and sees every move.
        by_pos = np.ascontiguousarray(dist[order][:, order])
        flat = by_pos.ravel()
        seen = set()
        while (start := order.tobytes()) not in seen:
            seen.add(start)
            p = 0
            while True:
                edge = flat[edges]
                hits = np.flatnonzero(flat[ac[p:]] + flat[bd[p:]]
                                      - edge[i[p:]] - edge[j[p:]] < -1e-12)
                if not hits.size:
                    break
                p += int(hits[0])
                seg = slice(i[p] + 1, j[p] + 1)
                order[seg] = order[seg][::-1]
                by_pos[seg] = by_pos[seg][::-1]
                by_pos[:, seg] = by_pos[:, seg][:, ::-1]
                p += 1
    return orders


def solve_tsp(points) -> Tour:
    """Best 2-opt-polished nearest-neighbour tour over all starts; fully
    deterministic for given points."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    n = len(points)
    if n == 0:
        return Tour(order=(), length_m=0.0)
    if n == 1:
        return Tour(order=(0,), length_m=0.0)
    dist = _pairwise(points, points)
    orders = _two_opt(_nearest_neighbours(dist), dist)
    lengths = dist[orders, np.roll(orders, -1, axis=1)].sum(axis=1)
    best, best_len = None, np.inf
    for start, length in enumerate(lengths.tolist()):
        if length < best_len - 1e-12:
            best, best_len = start, length
    return Tour(order=tuple(orders[best].tolist()), length_m=best_len)
