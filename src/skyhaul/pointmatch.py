"""Point-matching mission planner.

Builds the global step sequence around the pacing ring (largest tour-plus-
hover time). Ring pairs are processed outward from it: CPs of the ring being
attached are matched to collect steps of the already-fixed ring so both UAVs
collect simultaneously; unmatched CPs get a minimal-detour waypoint inserted
into the fixed ring's closed path; every remaining hole is an escort position
that keeps the relay chain connected without slowing the pace.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import CoverageRadii
from .clustering import ClusterSet
from .mission import DIST_TOL_M, MissionPlan, ring_serial_s
from .model import InfeasibleError, Scenario
from .partition import Ring, Topology
from .tsp import _pairwise

_HOP_TOL_M = 1e-9


class InfeasibleWaypointError(InfeasibleError):
    """The waypoint constraint set is empty."""


def match_pairs(cps_out, cps_in, hover_out, hover_in, path_m, r_u2u: float,
                d_safe: float) -> tuple[list[int], dict[int, int]]:
    """The attach order and monotone pairing {attach CP: event} with the
    least leftover hover plus waiting, then the most matched CPs.

    Indices are local: attach CP a is the a-th of `cps_out`, in attach tour
    order, and event e the e-th collect step of the fixed ring, at `cps_in`.
    `path_m[e]` is the fixed UAV's path distance at event e, so path_m[e2] -
    path_m[e1] bounds the straight hop the attach UAV may fly between two
    shared steps.

    The order is a rotation of the attach tour in either direction. A matched
    CP collects in its event's step, which waits out max(0, hover_out -
    hover_in); an unmatched CP pays its whole hover in a step of its own. The
    cost is therefore sum(hover_out) minus, over the matched pairs,
    min(hover_out[a], hover_in[e]), and the optimum is a longest path through
    the feasible cells (a, e), those at most r_u2u and at least d_safe apart.
    A cell may follow another with a later event, a later attach position and
    a hop that does not outrun the fixed path. Events order the cells for
    every rotation at once, so one pass over them solves all 2n rotations as
    rows. Ties go to the first rotation, forward rotations before backward
    ones, and within one to the first cell in event order.
    """
    cps_out = np.asarray(cps_out, dtype=float).reshape(-1, 2)
    hover_out = np.asarray(hover_out, dtype=float)
    hover_in = np.asarray(hover_in, dtype=float)
    gap = _pairwise(cps_out, np.asarray(cps_in, dtype=float).reshape(-1, 2))
    n = len(hover_out)
    cell_e, cell_a = np.nonzero(((gap <= r_u2u) & (gap >= d_safe)).T)
    # per row (forward rotations, then backward ones) each cell's attach
    # position; column 0 is the empty start, which precedes every cell
    shift = np.arange(n)[:, None]
    at = np.full((2 * n, len(cell_a) + 1), -1)
    at[:n, 1:] = (cell_a - shift) % n
    at[n:, 1:] = (n - 1 - cell_a - shift) % n
    pm = np.asarray(path_m, dtype=float)[cell_e]
    # reach[c2, c1]: cell c2 may follow c1, its hop within the fixed path
    reach = np.ones((len(cell_a) + 1,) * 2, dtype=bool)
    reach[1:, 1:] = ~(_pairwise(cps_out, cps_out)[np.ix_(cell_a, cell_a)]
                      > pm[:, None] - pm[None, :] + _HOP_TOL_M)
    score = np.zeros(at.shape)
    score[:, 1:] = np.minimum(hover_out[cell_a], hover_in[cell_e])
    count = (at >= 0).astype(int)               # the start matches nothing
    pred = np.zeros_like(at)
    starts = (np.flatnonzero(np.diff(cell_e, prepend=-1)) + 1).tolist()
    for lo, hi in zip(starts, starts[1:] + [len(cell_a) + 1]):
        ok = (at[:, lo:hi, None] > at[:, None, :lo]) & reach[lo:hi, :lo]
        prev = np.broadcast_to(score[:, None, :lo], ok.shape)
        best = prev.max(axis=2, where=ok, initial=-np.inf)
        ok &= prev == best[..., None]
        prev = np.broadcast_to(count[:, None, :lo], ok.shape)
        most = prev.max(axis=2, where=ok, initial=0)
        ok &= prev == most[..., None]
        score[:, lo:hi] += best
        count[:, lo:hi] += most
        pred[:, lo:hi] = ok.argmax(axis=2)
    top = score.max(axis=1)
    ties = (score == top[:, None]) * count
    rows = np.flatnonzero(top == top.max())
    row = int(rows[np.argmax(ties[rows].max(axis=1))])
    chain, c = [], int(ties[row].argmax())
    while c:
        chain.append(c - 1)
        c = int(pred[row, c])
    order = [(t + row) % n for t in range(n)]
    return ([n - 1 - a for a in order] if row >= n else order,
            {int(cell_a[c]): int(cell_e[c]) for c in reversed(chain)})


@dataclass(frozen=True)
class _Fleet:
    """The geometry every waypoint rule reads: each ring's annulus about the
    BS, the U2U link range and the safety distance."""
    rings: tuple[Ring, ...]
    bs: tuple[float, float]
    r_u2u: float
    d_safe: float

    def allowed(self, g: int, anchor_ring: int, anchor) -> list[tuple]:
        """Where ring g's UAV may wait while it collects nothing, as annuli
        (center, lo, hi): the chain annulus about `anchor`, the position of
        ring `anchor_ring`'s UAV, then a band about the BS.

        The band keeps radial order with the anchor instead of the ring's
        own annulus: an outward ring holds at least d_safe farther from the
        BS than its anchor, an inward ring at least d_safe nearer (capped by
        its own outer edge, which for ring 0 is the BS link range). Radial
        order keeps every UAV pair separated while freeing the UAV from
        annulus slivers when the anchor dives inward.
        """
        bsd, outer = math.dist(anchor, self.bs), self.rings[g].outer_m
        if g > anchor_ring:
            lo = bsd + self.d_safe
            band = (self.bs, lo, max(outer, lo))
        else:
            band = (self.bs, 0.0, max(min(outer, bsd - self.d_safe), 0.0))
        # chain annulus first: `_minimise` keeps the first least-cost
        # candidate, and the order of its circles orders the candidates
        return [(anchor, self.d_safe, self.r_u2u), band]


def _at_angle(c, r: float, theta: float) -> tuple[float, float]:
    """The point of the circle (c, r) at angle theta."""
    return c[0] + r * math.cos(theta), c[1] + r * math.sin(theta)


def _crossings(c1, r1: float, c2, r2: float) -> list[tuple[float, float]]:
    """Where two circles cross. Circles that touch up to rounding yield their
    touching point, so a feasible set shrunk to one tangent point survives;
    circles that miss yield a point the feasibility filter rejects."""
    (x1, y1), (x2, y2) = c1, c2
    d = math.hypot(x2 - x1, y2 - y1)
    if d == 0.0:
        return []
    ux, uy = (x2 - x1) / d, (y2 - y1) / d
    scale = (d * d + r1 * r1 + r2 * r2) / (2.0 * d)
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    # a is off by a few ulps of `scale` (the squares, and d from rounded
    # centres), h2 by 2 r1 times that: noise that sqrt turns into ~1e-4 m
    # near tangency. Under 32 epsilons of r1 * scale the circles touch, at a
    # point within 16 epsilons of `scale` of each (h < 0.5 mm at 4 km radii).
    h = (math.sqrt(h2) if h2 > 32 * sys.float_info.epsilon * r1 * scale
         else 0.0)
    mx, my = x1 + a * ux, y1 + a * uy
    return [(mx - h * uy, my + h * ux), (mx + h * uy, my - h * ux)]


def _arc_minima(foci, circles) -> list[tuple[float, float]]:
    """Every point of each of the (center, r) `circles` where the summed
    distance to the one or two `foci` may be locally least, in closed form:
    the radial projection of each focus (for one focus, the minimum) and,
    for foci A, B (complex, centre-relative), the reflection points, where
    (A - z)(B - z) / z^2 is real: roots of conj(AB) z^4 - r^2 conj(A+B) z^3
    + r^4 (A+B) z - r^4 AB (Neumann 1998), one batched eigenvalue call over
    the companion matrices, each root put on its circle by angle. A focus on
    the centre or a zero radius leaves the radial projections exact, so
    those circles skip it. Where the segment AB crosses a circle the quartic
    has no root; `_minimise` answers a segment that meets the set itself."""
    pts = [_at_angle(c, r, math.atan2(fy - c[1], fx - c[0]))
           for fx, fy in foci for c, r in circles]
    if len(foci) == 2:
        (ax, ay), (bx, by) = foci
        rows, on = [], []
        for c, r in circles:
            if r <= 0.0:
                continue
            a = complex(ax - c[0], ay - c[1]) / r
            b = complex(bx - c[0], by - c[1]) / r
            if (p := a * b) != 0.0:
                s = a + b
                rows.append([z / p.conjugate()
                             for z in (s.conjugate(), 0j, -s, p)])
                on.append((c, r))
        if rows:
            comp = np.zeros((len(rows), 4, 4), dtype=complex)
            comp[:, 1:, :-1] = np.eye(3)
            comp[:, 0] = rows
            for (c, r), roots in zip(on, np.linalg.eigvals(comp).tolist()):
                pts += [_at_angle(c, r, math.atan2(z.imag, z.real))
                        for z in roots]
    return pts


def _minimise(foci, annuli) -> tuple[float, float] | None:
    """Point of the intersection of `annuli` ((center, lo, hi): lo <= |q -
    center| <= hi) with the least summed distance to the one or two `foci`,
    or None when the intersection is empty.

    Two foci whose segment meets the set cost |AB| at every point of that
    crossing; the answer is the midpoint of the widest one
    (`_edge_through_point`). Otherwise the cost is convex, so the optimum is
    a feasible lone focus, a point where two boundary circles cross or
    touch, or a local minimum of the cost along one boundary circle, all in
    closed form (`_arc_minima`). All are scored in that order, the first
    least cost among the admissible ones wins, so a candidate that is no
    minimum costs nothing. A call is a few dozen candidates, so they are
    Python floats.
    """
    if len(foci) == 2 and (
            q := _edge_through_point(*foci, annuli)) is not None:
        return q
    circles = [(c, r) for c, lo, hi in annuli
               for r in ((lo, hi) if lo > 0.0 else (hi,))]
    pts = (list(foci) if len(foci) == 1 else []) + _arc_minima(foci, circles)
    for (c1, r1), (c2, r2) in itertools.combinations(circles, 2):
        pts += _crossings(c1, r1, c2, r2)
    bounds = [(c[0], c[1], lo - DIST_TOL_M, hi + DIST_TOL_M)
              for c, lo, hi in annuli]
    best, least = None, math.inf
    for x, y in pts:
        for cx, cy, lo, hi in bounds:
            if not lo <= math.hypot(x - cx, y - cy) <= hi:
                break
        else:
            cost = 0.0
            for fx, fy in foci:
                cost += math.hypot(x - fx, y - fy)
            if cost < least:
                best, least = (x, y), cost
    return best


def _chord(db: float, bb: float, dd: float, r: float):
    """Where the line d + t b meets the circle |x| = r (db = d.b, bb = b.b > 0,
    dd = d.d): the discriminant, negative if it misses, and roots t0 <= t1."""
    disc = db * db - bb * (dd - r * r)
    s = math.sqrt(max(disc, 0.0))
    return disc, (-db - s) / bb, (-db + s) / bb


def _band_spans(e1, e2, center, r_lo: float,
                r_hi: float) -> list[tuple[float, float]]:
    """Sub-intervals of t in [0, 1] where e1 + t(e2-e1) is r_lo..r_hi from center."""
    (x1, y1), (x2, y2), (cx, cy) = e1, e2, center
    bx, by, dx, dy = x2 - x1, y2 - y1, x1 - cx, y1 - cy
    bb = bx * bx + by * by
    if bb == 0.0:
        return [(0.0, 1.0)] if r_lo <= math.hypot(dx, dy) <= r_hi else []
    db = dx * bx + dy * by
    dd = dx * dx + dy * dy
    disc, t0, t1 = _chord(db, bb, dd, r_hi)
    lo, hi = max(t0, 0.0), min(t1, 1.0)
    if disc < 0.0 or lo > hi:
        return []
    disc, h0, h1 = _chord(db, bb, dd, r_lo)
    if r_lo <= 0.0 or disc < 0.0:       # no hole on the line
        return [(lo, hi)]
    return ([(lo, min(hi, h0))] if lo < h0 else []) + (
        [(max(lo, h1), hi)] if h1 < hi else [])


def _edge_through_point(e1, e2, annuli) -> tuple[float, float] | None:
    """Exact zero-detour candidate: a point of the edge itself inside every
    annulus, when the edge crosses their intersection. Midpoint of the widest
    crossing."""
    spans = [(0.0, 1.0)]
    for c, lo, hi in annuli:
        spans = [(max(a0, b0), min(a1, b1)) for a0, a1 in spans
                 for b0, b1 in _band_spans(e1, e2, c, lo, hi)
                 if max(a0, b0) <= min(a1, b1)]
    if not spans:
        return None
    t0, t1 = max(spans, key=lambda s: s[1] - s[0])
    t = 0.5 * (t0 + t1)
    (x1, y1), (x2, y2) = e1, e2
    return x1 + t * (x2 - x1), y1 + t * (y2 - y1)


def p3_waypoint(e1, e2, allowed) -> tuple[tuple[float, float], float] | None:
    """Cheapest-detour waypoint on the edge e1 -> e2 inside the `allowed`
    annuli, the minimiser of |q - e1| + |q - e2| over them (`_minimise`),
    as (point, detour_m). None when they do not meet."""
    q = _minimise((e1, e2), allowed)
    if q is None:
        return None
    (x1, y1), (x2, y2), (qx, qy) = e1, e2, q
    detour = (math.hypot(qx - x1, qy - y1) + math.hypot(qx - x2, qy - y2)
              - math.hypot(x2 - x1, y2 - y1))
    return (float(qx), float(qy)), max(detour, 0.0)


def nearest_chain_point(prev, allowed) -> tuple[float, float]:
    """Least-displacement point from `prev` inside the `allowed` annuli."""
    q = _minimise([prev], allowed)
    if q is None:
        raise InfeasibleWaypointError("chain annulus does not meet the ring")
    return q


def advance_point(prev, target, budget_m: float,
                  allowed) -> tuple[float, float]:
    """Waypoint for an idle UAV: close in on `target` without travelling more
    than `budget_m`, staying inside the `allowed` annuli. Spending idle legs
    on the approach keeps the later duty leg from outrunning the fleet's
    pace. If no allowed point fits the budget, the smallest move into the
    allowed set wins instead."""
    q = _minimise([target], allowed + [(prev, 0.0, budget_m)])
    if q is None:
        return nearest_chain_point(prev, allowed)
    return q


def _detour_floor(p_k, e1, e2, r_u2u: float) -> float:
    """A lower bound on the detour `p3_waypoint(e1, e2, allowed)` finds when
    `allowed` chains the waypoint to p_k.

    Every waypoint lies within r_u2u (plus the solver's DIST_TOL_M) of p_k,
    so at least h = |p_k, segment| - r_u2u - DIST_TOL_M from the segment.
    A point q with |q - e1| + |q - e2| = L + detour lies within the ellipse
    of foci e1, e2, whose farthest points from the segment are its
    co-vertices, sqrt(((L + detour) / 2)^2 - L^2 / 4) away; hence detour >=
    sqrt(L^2 + 4 h^2) - L, written without the cancellation. The margin
    taken off covers the rounding of both this bound and the detour, a few
    ulps of the coordinates and of L."""
    (px, py), (x1, y1), (x2, y2) = p_k, e1, e2
    bx, by = x2 - x1, y2 - y1
    bb = bx * bx + by * by
    t = (min(max(((px - x1) * bx + (py - y1) * by) / bb, 0.0), 1.0)
         if bb > 0.0 else 0.0)
    h = math.hypot(px - (x1 + t * bx), py - (y1 + t * by)) - r_u2u - DIST_TOL_M
    if h <= 0.0:
        return 0.0
    length = math.sqrt(bb)
    margin = 1e-9 * (1.0 + abs(px) + abs(py) + length)
    return max(4.0 * h * h / (math.sqrt(bb + 4.0 * h * h) + length) - margin,
               0.0)


def _cheapest_edge(bounds, solve):
    """The pick of a scan over every edge of a window in order: the first
    feasible edge, then any later edge cheaper by more than 1e-9.
    `bounds[i]` is a lower bound on edge i's cost and `solve(i)` returns
    its (cost, result), or None when the edge is infeasible; costs are
    finite and at least 0. Returns (i, result), or None when no edge is
    feasible.

    Edges are solved best first, in ascending order of bound (ties by
    index; a NaN bound sorts first, so it is never pruned), until the next
    bound is at least least + margin, least being the cheapest cost so far.
    The scan's rule is then replayed over the solved edges in window order.
    Every unsolved edge costs at least least + margin, which is span + 2
    slots of width 1e-9 + 2 ulp(2 least + 1). A window has far fewer than
    10^8 edges, so the margin is at most least + 1 and floats in those
    slots lie at most ulp(2 least + 1) apart. Slot 0 holds least and at
    most span - 1 other costs were solved, so one of slots 1..span holds
    none, and it holds a float g with no cost in [g, g + 1e-9]. Each edge
    then costs below g ("lower", least among them) or at least g + 1e-9
    ("upper", every unsolved edge among them). Under the 1e-9 rule an upper
    edge never replaces a lower one, u > a >= fl(a - 1e-9), and never keeps
    one from replacing it, fl(u - 1e-9) >= g > a. So a scan takes the first
    lower edge it meets and from then on moves only between lower edges: it
    picks what a scan of the lower edges alone picks, whichever upper edges
    it sees, and the replay picks what solving every edge would."""
    order = sorted(range(len(bounds)),
                   key=lambda i: (-math.inf if math.isnan(bounds[i])
                                  else bounds[i], i))
    solved, least, stop = {}, None, None
    for i in order:
        if stop is not None and bounds[i] >= stop:
            break
        res = solve(i)
        if res is None:
            continue
        solved[i] = res
        if least is None or res[0] < least:
            least = res[0]
            stop = least + (len(bounds) + 2) * (
                1e-9 + 2.0 * math.ulp(2.0 * least + 1.0))
    best = None
    for i in sorted(solved):
        if best is None or solved[i][0] < solved[best][0] - 1e-9:
            best = i
    return None if best is None else (best, solved[best][1])


def _insert_unmatched(pos, duty, ref, adj, ids, shared, cps, fleet, meta):
    """Give every attach-ring CP of `ids` (in attach order) not in `shared`
    its own step on the fixed ring's path, read as a cycle: edge s runs from
    step s to step (s + 1) mod S, so a pick on the closing edge appends the
    step. The window runs from the step of the CP placed just before this
    one in the cyclic attach order (before any insertion, the last anchor, a
    shared CP) to the step of the next anchor, wrapping to the first; it is
    the whole cycle when those coincide or nothing is shared. Each edge
    costs its detour plus however much of the attach UAV's jumps in and out
    the legs either side cannot absorb, and the pick is the first feasible
    edge in window order, then any later edge cheaper by more than 1e-9.
    The edges are solved cheapest bound first, the bound being those
    penalties plus `_detour_floor`, and only until no unsolved edge could
    change the pick (`_cheapest_edge`), so the pick is that of solving every
    edge in window order. The fixed UAV collects nothing there, so it only
    keeps radial order with the CP (`_Fleet.allowed`). A step is found by
    the CP it collects, which stays right as steps are inserted. Returns the
    grown `pos` and `duty`."""
    prev = next((c for c in reversed(ids) if c in shared), None)
    for t, cp_id in enumerate(ids):
        if cp_id in shared:
            prev = cp_id
            continue
        nxt = next((c for c in ids[t + 1:] + ids[:t] if c in shared), None)
        cp = cps[cp_id].tolist()
        col = duty[:, adj]
        # each end's step and attach CP; with nothing placed, step 0 and the
        # CP itself, so a missing end costs no jump
        lo, p_in = ((int(np.flatnonzero(col == prev)[0]), cps[prev].tolist())
                    if prev is not None else (0, cp))
        hi, p_out = ((int(np.flatnonzero(col == nxt)[0]), cps[nxt].tolist())
                     if nxt is not None else (lo, cp))
        span = (hi - lo - 1) % len(pos) + 1
        # the window's points; run[i] sums its legs before edge i in order
        pts = pos[(lo + np.arange(span + 1)) % len(pos), ref]
        run = list(itertools.accumulate(
            np.hypot(*np.diff(pts, axis=0).T).tolist(), initial=0.0))
        pts = pts.tolist()
        jump_in, jump_out = math.dist(p_in, cp), math.dist(cp, p_out)
        allowed = fleet.allowed(ref, adj, cp)
        pens = [(max(0.0, jump_in - run[i]),
                 max(0.0, jump_out - (run[span] - run[i])))
                for i in range(span)]
        # float addition is monotone, so each edge's cost, summed in the
        # same order, is at least its bound
        bounds = [_detour_floor(cp, pts[i], pts[i + 1], fleet.r_u2u)
                  + pen_in + pen_out
                  for i, (pen_in, pen_out) in enumerate(pens)]

        def solve(i):
            res = p3_waypoint(pts[i], pts[i + 1], allowed)
            if res is None:
                return None
            pen_in, pen_out = pens[i]
            return res[1] + pen_in + pen_out, res

        best = _cheapest_edge(bounds, solve)
        if best is None:
            raise InfeasibleWaypointError(
                f"no feasible detour for CP {cp_id} on the fixed path")
        i, (q, detour) = best
        at = (lo + i) % len(pos) + 1
        pos = np.insert(pos, at, np.nan, axis=0)
        duty = np.insert(duty, at, -1, axis=0)
        pos[at, ref], pos[at, adj], duty[at, adj] = q, cp, cp_id
        prev = cp_id
        meta["detour_m"] += detour
    return pos, duty


def _fill_ring(pos, g, anchor_ring, fleet, done_rings):
    """Give ring `g` a position at each hole, a step where it has none yet.

    Sweeps the holes in cyclic step order from the ring's first placed step.
    Each hole becomes an advance toward the ring's next placed step (a duty,
    or an escort an earlier fill placed), budgeted by the longest leg any
    done ring flies into that step, and chained to the neighbor toward the
    pair being processed (at the neighbor's collect steps that chain annulus
    is exactly the escort constraint around the served CP). A ring with no
    placed step starts at step 0 beside its anchor and advances toward it.

    Idle positions need not sit inside the ring's own annulus, only duty
    waypoints do; they keep the `_Fleet.allowed` radial order instead.
    """
    placed = ~np.isnan(pos[:, g, 0])
    holes = np.flatnonzero(~placed)
    hard = np.flatnonzero(placed)
    if hard.size:
        holes = np.roll(holes, -int(np.searchsorted(holes, hard[0])))
        # the next placed step strictly after each hole, cyclically
        nxt = hard[np.searchsorted(hard, holes, side="right") % len(hard)]
    else:
        (ax, ay), (bx, by) = pos[0, anchor_ring].tolist(), fleet.bs
        ring = fleet.rings[g]
        nv = math.hypot(ax - bx, ay - by)
        ux, uy = ((ax - bx) / nv, (ay - by) / nv) if nv > 0 else (1.0, 0.0)
        mid = 0.5 * (ring.inner_m + ring.outer_m)
        pos[0, g] = nearest_chain_point((bx + ux * mid, by + uy * mid),
                                        fleet.allowed(g, anchor_ring,
                                                      (ax, ay)))
        holes = holes[1:]
    anchors = pos[holes, anchor_ring].tolist()
    targets = pos[nxt, g].tolist() if hard.size else anchors
    # each hole's budget, the floats `mission._longest_legs` gives that step
    at = holes[:, None]
    legs = pos[at, done_rings] - pos[at - 1, done_rings]
    budgets = np.hypot(*np.moveaxis(legs, 2, 0)).max(axis=1).tolist()
    for i, target, budget_m, anchor in zip(holes.tolist(), targets, budgets,
                                           anchors):
        pos[i, g] = advance_point(pos[i - 1, g].tolist(), target, budget_m,
                                  fleet.allowed(g, anchor_ring, anchor))


def _attach_ring(pos, duty, ref, adj, cps, hovers, orders, fleet, meta):
    """Process one adjacent ring pair: match shared steps, then insert new
    steps for the attach-ring CPs that could not share one. Returns the
    grown `pos` and `duty`."""
    adj_ids = orders[adj]
    if not adj_ids:
        return pos, duty
    ev_steps = np.flatnonzero(duty[:, ref] >= 0)
    ev_cps = duty[ev_steps, ref]
    path_cum = np.concatenate([[0.0], np.cumsum(
        np.hypot(*np.diff(pos[:, ref], axis=0).T))])
    order, matched = match_pairs(cps[adj_ids], cps[ev_cps], hovers[adj_ids],
                                 hovers[ev_cps], path_cum[ev_steps],
                                 fleet.r_u2u, fleet.d_safe)
    waits = 0
    for a_local, e_local in matched.items():
        pos[ev_steps[e_local], adj] = cps[adj_ids[a_local]]
        duty[ev_steps[e_local], adj] = adj_ids[a_local]
        waits += bool(hovers[adj_ids[a_local]] > hovers[ev_cps[e_local]])
    meta["pairs_matched"] += len(matched) - waits
    meta["pairs_relaxed"] += waits
    return _insert_unmatched(pos, duty, ref, adj,
                             [int(adj_ids[a]) for a in order],
                             {int(adj_ids[a]) for a in matched}, cps, fleet,
                             meta)


def plan(scenario: Scenario, cluster_set: ClusterSet, topology: Topology,
         radii: CoverageRadii) -> MissionPlan:
    """Build a synchronized mission by point matching.

    The ring whose serial tour-plus-hover time is largest paces the mission
    and seeds the step list with its tour. The other rings then attach one
    at a time, in order of distance from the pacing ring, inward first at
    each distance, each to its neighbour toward it: each attach ring reuses
    the fixed ring's collect steps where a shared step is feasible, gets
    minimal-detour inserted steps for the rest, and every other ring closes
    its holes with chained low-displacement waypoints.

    The plan under construction is `pos` (S, M, 2), NaN where a ring has no
    position yet, and `duty` (S, M), the CP collected or -1.
    """
    cps, hovers = cluster_set.cps, cluster_set.hover_s
    m = topology.m_uavs
    fleet = _Fleet(topology.rings, scenario.bs_position_m,
                   radii.r_u2u_m, scenario.d_safe_m)

    orders = [list(tour.order) for tour in topology.tours]
    times = ring_serial_s(cluster_set, topology, scenario.v_max_mps)
    pacing = int(np.argmax(times))
    if not orders[pacing]:
        raise ValueError("cluster set has no collection points")
    pos = np.full((len(orders[pacing]), m, 2), np.nan)
    duty = np.full((len(orders[pacing]), m), -1)
    pos[:, pacing], duty[:, pacing] = cps[orders[pacing]], orders[pacing]
    meta = {
        "algo": "pmtp",
        "pacing_ring": pacing,
        "ring_serial_s": [float(t) for t in times],
        "pairs_matched": 0,
        "pairs_relaxed": 0,
        "generated_waypoints": 0,       # read off the finished plan
        "detour_m": 0.0,
        "escorts": 0,
    }

    # rings[:k], those placed once rings[k - 1] attaches, are contiguous
    rings = sorted(range(m), key=lambda r: (abs(r - pacing), r))
    for k, adj in enumerate(rings[1:], 2):
        ref, steps = adj + 1 if adj < pacing else adj - 1, len(pos)
        pos, duty = _attach_ring(pos, duty, ref, adj, cps, hovers, orders,
                                 fleet, meta)
        # close the holes outward from the fixed ring, each ring anchored to
        # its neighbour toward it; with no step inserted, only adj has any
        done = [ref]
        for g in sorted(rings[:k], key=lambda r: (abs(r - ref), r))[1:]:
            if len(pos) > steps or g == adj:
                _fill_ring(pos, g, g - 1 if g > ref else g + 1, fleet, done)
            done.append(g)

    # one step per insertion; every other idle waypoint is an escort
    meta["generated_waypoints"] = len(pos) - len(orders[pacing])
    meta["escorts"] = int((duty == -1).sum()) - meta["generated_waypoints"]
    return MissionPlan(pos, duty, meta)
