"""Closed-tour construction: each ring's CP tour, and ttp's global tour over
all k CPs.

Nearest-neighbour tours from every start, each polished by first-improvement
2-opt (Croes 1958); the shortest is kept. The starts run in lockstep through
both: a 2-opt step scans a fixed window of candidate moves for every
unfinished tour at once. The result is move for move that of the scalar
double loop, which the tests keep as the reference.
"""

from __future__ import annotations

import functools
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


_WINDOW = 128


@functools.lru_cache(maxsize=64)
def _moves(n: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The 2-opt candidates (i, j) of an n-point tour in row-major order,
    padded by one scan window of repeats of the last, and the window."""
    i, j = np.triu_indices(n, 2)
    keep = (i != 0) | (j != n - 1)          # (0, n-1) is the same edge
    i, j = i[keep], j[keep]
    window = min(_WINDOW, len(i))
    pad = np.full(window, len(i) - 1)
    i, j = np.concatenate([i, i[pad]]), np.concatenate([j, j[pad]])
    i.flags.writeable = j.flags.writeable = False      # shared by every call
    return i, j, window


def _two_opt(orders: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """First-improvement 2-opt of each row of `orders`, in place.

    The candidate moves (i, j), which reverse tour positions i+1..j, are
    taken in row-major order. All rows step in lockstep: each evaluates the
    next `_WINDOW` candidates from its own scan position on its current
    order, its distances gathered through the order from `dist`, and
    applies the first improving one, or advances by the window. Since
    nothing moves between a row's scan position and its first hit, that hit
    is the first of the whole remaining pass, so these are the moves of the
    scalar double loop over i < j, and each delta is the same sum of the
    same four distances. Passes repeat until one starts from an order an
    earlier pass started from: a pass with no move, or a cycle, which
    rounding makes possible where points coincide (a move and its reverse
    can both show a delta below -1e-12).
    """
    rows, n = orders.shape
    if n <= 3:
        return orders                       # no move changes a tour
    i, j, window = _moves(n)
    moves = len(i) - window
    scan = np.arange(window)
    cols = np.arange(n + 1)
    flat_dist = dist.ravel()
    # Per live row: the tour with its start repeated at the end, so that
    # position j + 1 needs no modulo, and its edge lengths in tour order,
    # padded to n + 1 so that one flat index serves both.
    tours = np.concatenate([orders, orders[:, :1]], axis=1)
    edges = np.zeros(tours.shape)
    edges[:, :-1] = flat_dist[tours[:, :-1] * n + tours[:, 1:]]
    live = np.arange(rows)                  # the row of `orders` of each tour
    seen = [{t.tobytes()} for t in tours]
    pos = np.zeros(rows, dtype=np.intp)
    base = np.arange(0, rows * (n + 1), n + 1)
    flat, flat_edges = tours.ravel(), edges.ravel()
    while True:
        cand = pos[:, None] + scan
        at_i = base[:, None] + i[cand]
        at_j = base[:, None] + j[cand]
        hit = (flat_dist[flat[at_i] * n + flat[at_j]]
               + flat_dist[flat[1:][at_i] * n + flat[1:][at_j]]
               - flat_edges[at_i] - flat_edges[at_j]) < -1e-12
        step = pos + hit.argmax(axis=1)
        pos += window
        h = (hit.any(axis=1) & (step < moves)).nonzero()[0]
        if len(h):
            step = step[h]
            pos[h] = step + 1
            lo, hi = i[step] + 1, j[step]
            # every moved row reversed at once by one index permutation
            perm = np.where((cols >= lo[:, None]) & (cols <= hi[:, None]),
                            (lo + hi)[:, None] - cols, cols)
            t = flat[base[h, None] + perm]
            tours[h] = t
            edges[h, :-1] = flat_dist[t[:, :-1] * n + t[:, 1:]]
        if pos.max() < moves:
            continue
        # a pass ended: the row stops if its order started an earlier pass
        ended = (pos >= moves).nonzero()[0].tolist()
        pos[ended] = 0
        done = []
        for r in ended:
            start = tours[r].tobytes()
            if start in seen[r]:
                done.append(r)
            else:
                seen[r].add(start)
        if done:
            orders[live[done]] = tours[done, :-1]
            if len(done) == len(live):
                return orders
            stay = np.ones(len(live), dtype=bool)
            stay[done] = False
            live, tours, edges, pos = (
                live[stay], tours[stay], edges[stay], pos[stay])
            seen = [s for s, on in zip(seen, stay.tolist()) if on]
            base = base[:len(live)]
            flat, flat_edges = tours.ravel(), edges.ravel()


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
