"""Closed-tour construction: every ring's CP tour in one solve, and ttp's
global tour over all k CPs.

Nearest-neighbour tours from every start, each polished by first-improvement
2-opt (Croes 1958); the shortest is kept. One solve takes several point sets
at once: every start of every set is one row, and all rows run in lockstep
through both, their distances taken from one matrix over all the points. A
2-opt step scans a fixed window of candidate moves for every unfinished tour
at once. The result is move for move that of the scalar double loop, one set
and one start at a time, which the tests keep as the reference.
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


def _nearest_neighbours(dist: np.ndarray, row_set: np.ndarray,
                        width: int) -> np.ndarray:
    """(K, width) array whose row s is the nearest-neighbour tour from point
    s over the points of its own set, `row_set[s]`, in its first n entries.

    All starts step in lockstep; `argmin` keeps the first of tied minima,
    which is the first in the set's own order, since each set's points are
    one run of the matrix's indices. A row whose tour is complete takes
    index 0 from then on, which fills its tail.
    """
    starts = np.arange(len(dist))
    unvisited = row_set[:, None] == row_set
    unvisited[starts, starts] = False
    orders = np.empty((len(dist), width), dtype=np.intp)
    orders[:, 0] = cur = starts
    for step in range(1, width):
        cur = np.argmin(np.where(unvisited, dist[cur], np.inf), axis=1)
        unvisited[starts, cur] = False
        orders[:, step] = cur
    return orders


_WINDOW = 128


@functools.lru_cache(maxsize=64)
def _moves(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2-opt candidates (i, j) of an n-point tour in row-major order."""
    i, j = np.triu_indices(n, 2)
    keep = (i != 0) | (j != n - 1)          # (0, n-1) is the same edge
    i, j = i[keep], j[keep]
    i.flags.writeable = j.flags.writeable = False      # shared by every call
    return i, j


def _two_opt(orders: np.ndarray, sizes: np.ndarray,
             dist: np.ndarray) -> np.ndarray:
    """First-improvement 2-opt of each row of `orders`, in place; row r is a
    tour over its first `sizes[r]` entries, indices into `dist`.

    The candidate moves (i, j), which reverse tour positions i+1..j, are
    taken in row-major order. All rows step in lockstep: each evaluates the
    next `_WINDOW` candidates from its own scan position in its own size's
    move table on its current order, all four distances of a candidate
    read from `dist` through the order, and applies the first improving
    one, or advances by the window. Since nothing moves between a row's
    scan position and its first hit, that hit is the first of the whole
    remaining pass, so these are the moves of the scalar double loop over
    i < j, and each delta is the same sum of the same four distances.
    Passes repeat until one starts from an order an earlier pass of the
    same row started from: a pass with no move, or a cycle, which rounding
    makes possible where points coincide (a move and its reverse can both
    show a delta below -1e-12).
    """
    live = np.flatnonzero(sizes > 3)        # no move changes a smaller tour
    if not live.size:
        return orders
    n_live = sizes[live]
    width = int(n_live.max())
    # the move tables of the sizes present, end to end; a scan window may
    # run past a row's table, and the hits it finds there are dropped
    present, table = np.unique(n_live, return_inverse=True)
    i, j = zip(*map(_moves, present.tolist()))
    counts = np.array([len(t) for t in i])
    window = min(_WINDOW, int(counts.max()))
    i = np.concatenate([*i, np.zeros(window, dtype=np.intp)])
    j = np.concatenate([*j, np.zeros(window, dtype=np.intp)])
    first = (np.cumsum(counts) - counts)[table]     # each row's pass start
    end = first + counts[table]                     # and its end
    scan = np.arange(window)
    cols = np.arange(width + 1)
    k = len(dist)
    flat_dist = dist.ravel()
    # Per live row, the tour with its start repeated after its last point,
    # so that position j + 1 needs no modulo, padded to width + 1
    tours = np.zeros((len(live), width + 1), dtype=np.intp)
    tours[:, :-1] = orders[live, :width]
    tours[np.arange(len(live)), n_live] = tours[:, 0]
    seen = {r: {t.tobytes()} for r, t in zip(live.tolist(), tours)}
    pos = first.copy()
    while True:
        flat = tours.ravel()
        base = np.arange(0, tours.size, width + 1)[:, None]
        cand = pos[:, None] + scan
        at_i = base + i[cand]
        at_j = base + j[cand]
        # each candidate's four points, a as its row's offset into dist
        a, b = flat[at_i] * k, flat[1:][at_i]
        c, d = flat[at_j], flat[1:][at_j]
        hit = (flat_dist[a + c] + flat_dist[b * k + d]
               - flat_dist[a + b] - flat_dist[c * k + d]) < -1e-12
        step = pos + hit.argmax(axis=1)
        pos += window
        h = (hit.any(axis=1) & (step < end)).nonzero()[0]
        if len(h):
            step = step[h]
            pos[h] = step + 1
            lo, hi = i[step] + 1, j[step]
            # every moved row reversed at once by one index permutation
            perm = np.where((cols >= lo[:, None]) & (cols <= hi[:, None]),
                            (lo + hi)[:, None] - cols, cols)
            tours[h] = flat[base[h] + perm]
        ended = (pos >= end).nonzero()[0].tolist()
        if not ended:
            continue
        # a pass ended: the row stops if its order started an earlier pass
        pos[ended] = first[ended]
        done = []
        for r, row in zip(ended, live[ended].tolist()):
            start = tours[r].tobytes()
            if start in seen[row]:
                done.append(r)
            else:
                seen[row].add(start)
        if done:
            orders[live[done], :width] = tours[done, :-1]
            if len(done) == len(live):
                return orders
            stay = np.ones(len(live), dtype=bool)
            stay[done] = False
            live, tours, pos, first, end = (
                live[stay], tours[stay], pos[stay], first[stay], end[stay])


def solve_tours(point_sets) -> list[Tour]:
    """For each point set, the best 2-opt-polished nearest-neighbour tour
    over all its starts, its order over the set's own indices; fully
    deterministic for given points, and each set's tour is the one it gets
    alone."""
    sets = [np.asarray(p, dtype=float).reshape(-1, 2) for p in point_sets]
    sizes = np.array([len(p) for p in sets], dtype=np.intp)
    firsts = np.cumsum(sizes) - sizes
    points = np.concatenate([np.empty((0, 2)), *sets])
    dist = _pairwise(points, points)
    orders = _nearest_neighbours(dist, np.repeat(np.arange(len(sets)), sizes),
                                 int(sizes.max(initial=1)))
    _two_opt(orders, np.repeat(sizes, sizes), dist)
    tours = []
    for first, n in zip(firsts.tolist(), sizes.tolist()):
        if n == 0:
            tours.append(Tour(order=(), length_m=0.0))
            continue
        rows = orders[first:first + n, :n]
        # summed over exactly n entries: numpy's pairwise sum rounds
        # differently at other lengths
        lengths = dist[rows, np.roll(rows, -1, axis=1)].sum(axis=1)
        best, best_len = None, np.inf
        for start, length in enumerate(lengths.tolist()):
            if length < best_len - 1e-12:
                best, best_len = start, length
        tours.append(Tour(order=tuple((rows[best] - first).tolist()),
                          length_m=best_len))
    return tours


def solve_tsp(points) -> Tour:
    """Best 2-opt-polished nearest-neighbour tour over all starts; fully
    deterministic for given points."""
    return solve_tours([points])[0]
