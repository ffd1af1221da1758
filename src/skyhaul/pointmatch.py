"""Point-matching mission planner.

Builds the global step sequence around the pacing ring (largest tour-plus-
hover time). Ring pairs are processed outward from it: CPs of the ring being
attached are matched to collect steps of the already-fixed ring so both UAVs
collect simultaneously; unmatched CPs get a minimal-detour waypoint inserted
into the fixed ring's path; every remaining hole is an escort position that
keeps the relay chain connected without slowing the pace.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import CoverageRadii
from .clustering import ClusterSet
from .mission import MissionPlan, _leg_lengths, assemble_plan, ring_serial_s
from .model import InfeasibleError, Scenario
from .partition import Ring, Topology
from .tsp import _pairwise

_TOL_M = 1e-6
_HOVER_CMP_TOL = 1e-12
_HOP_TOL_M = 1e-9


class InfeasibleWaypointError(InfeasibleError):
    """The waypoint constraint set is empty."""


class RingPair:
    """An attach ring against the fixed ring's collect events, in local
    indices: attach CP a is the a-th CP of the attach tour, event e the e-th
    collect step of the fixed ring. `path_m[e]` is the fixed UAV's path
    distance at event e, so path_m[e2] - path_m[e1] bounds the straight hop
    the attach UAV may fly between two shared steps."""

    def __init__(self, cps_out, cps_in, hover_out, hover_in, path_m,
                 r_u2u: float, d_safe: float = 0.0):
        cps_out = np.asarray(cps_out, dtype=float).reshape(-1, 2)
        cps_in = np.asarray(cps_in, dtype=float).reshape(-1, 2)
        self.gap = _pairwise(cps_out, cps_in)
        self.hop = _pairwise(cps_out, cps_out)
        self.link = self.gap <= r_u2u
        self.hover_out = np.asarray(hover_out, dtype=float)
        self.hover_in = np.asarray(hover_in, dtype=float)
        self.path_m = np.asarray(path_m, dtype=float)
        self.d_safe = d_safe

    def excess(self, a: int, e: int) -> float:
        """Seconds a step shared by a and e waits beyond e's own hover."""
        return max(0.0, float(self.hover_out[a] - self.hover_in[e]))

    def _outruns(self, a1: int, e1: int, a2: int, e2: int) -> bool:
        """The hop a1 -> a2 is longer than the fixed path from e1 to e2."""
        return self.hop[a1, a2] > self.path_m[e2] - self.path_m[e1] + _HOP_TOL_M

    def fits(self, a: int, e: int, last=None, nxt=None) -> bool:
        """Can attach CP a share event e? The link spans the two CPs, they
        keep d_safe apart, and the hop from the previous matched (a, e) pair
        `last` and to the next one `nxt` never outruns the fixed path."""
        return bool(self.link[a, e] and self.gap[a, e] >= self.d_safe
                    and (last is None or not self._outruns(*last, a, e))
                    and (nxt is None or not self._outruns(a, e, *nxt)))


def match_pairs(pair: RingPair, order) -> dict[int, int]:
    """Greedy monotone pairing {attach CP: event} of the attach tour `order`.

    Walks `order` with a forward-only cursor over the events. A candidate
    must fit (`RingPair.fits` against the previous match) and hover at least
    as long as the attach CP, so the fixed ring is never slowed.
    """
    pairs: dict[int, int] = {}
    cursor, last = 0, None
    for a in order:
        for e in range(cursor, len(pair.hover_in)):
            if pair.hover_out[a] > pair.hover_in[e] + _HOVER_CMP_TOL:
                continue
            if pair.fits(a, e, last):
                pairs[a] = e
                cursor, last = e + 1, (a, e)
                break
    return pairs


def _next_matched(order, matched) -> list:
    """Per position t of `order`, the next attach CP after t in `matched`."""
    nxt, cur = [None] * len(order), None
    for t in range(len(order) - 1, -1, -1):
        nxt[t] = cur
        if order[t] in matched:
            cur = order[t]
    return nxt


@dataclass(frozen=True)
class P3Result:
    point: tuple[float, float]
    detour_m: float


def _annuli(anchor, d_safe: float, r_link: float, ring: Ring | None,
            bs) -> list[tuple]:
    """The chain annulus around `anchor`, plus the ring band when given."""
    band = [] if ring is None else [(bs, ring.inner_m, ring.outer_m)]
    return [(anchor, d_safe, r_link)] + band


def _cost(pts: np.ndarray, foci: np.ndarray) -> np.ndarray:
    """Summed distance from each point (..., 2) to every focus."""
    return np.hypot(*np.moveaxis(pts[..., None, :] - foci, -1, 0)).sum(axis=-1)


def _on_circle(cen: np.ndarray, rad: np.ndarray, theta) -> np.ndarray:
    return cen + rad[..., None] * np.stack([np.cos(theta), np.sin(theta)],
                                           axis=-1)


def _crossings(c1: np.ndarray, r1: float, c2: np.ndarray,
               r2: float) -> np.ndarray:
    """Where two circles cross. Circles that touch up to rounding yield their
    touching point, so a feasible set shrunk to one tangent point survives;
    circles that miss yield a point the feasibility filter rejects."""
    v = c2 - c1
    d = float(np.hypot(*v))
    if d == 0.0:
        return np.zeros((0, 2))
    u = v / d
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h = math.sqrt(max(r1 * r1 - a * a, 0.0))
    return c1 + a * u + np.outer([h, -h], [-u[1], u[0]])


def _arc_minima(foci: np.ndarray, cen: np.ndarray,
                rad: np.ndarray) -> np.ndarray:
    """Every point of each circle where the summed distance to `foci` may be
    locally least, in closed form: the radial projection of each focus (for
    one focus, the minimum) and, for foci A, B (complex, centre-relative):
    - the reflection points, where (A - z)(B - z) / z^2 is real: roots of
      conj(AB) z^4 - r^2 conj(A+B) z^3 + r^4 (A+B) z - r^4 AB (Neumann 1998),
      one batched eigenvalue call over the companion matrices, each root put
      on its circle by angle. A focus on the centre or a zero radius leaves
      the radial projections exact, so those circles skip it;
    - where the segment AB crosses the circle: both gradients cancel there,
      so the quartic has no root."""
    rel = foci[:, None] - cen
    pts = [_on_circle(cen, rad, np.arctan2(v[:, 1], v[:, 0])) for v in rel]
    if len(foci) == 1:
        return pts[0]
    a, b = (rel[..., 0] + 1j * rel[..., 1]) / np.where(rad > 0.0, rad, 1.0)
    k = np.flatnonzero((rad > 0.0) & (a * b != 0.0))
    s, p = a[k] + b[k], a[k] * b[k]
    comp = np.zeros((len(k), 4, 4), dtype=complex)
    comp[:, 1:, :-1] = np.eye(3)
    comp[:, 0] = (np.stack([s.conj(), np.zeros_like(s), -s, p], axis=1)
                  / p.conj()[:, None])
    theta = np.angle(np.linalg.eigvals(comp))
    pts.append(_on_circle(cen[k, None], rad[k, None], theta).reshape(-1, 2))
    edge = foci[1] - foci[0]
    if (bb := float(edge @ edge)) > 0.0:
        disc, t0, t1 = _chord(rel[0] @ edge, bb, (rel[0] ** 2).sum(1), rad)
        t = np.concatenate([t0, t1])
        t = t[np.tile(disc >= 0.0, 2) & (t >= 0.0) & (t <= 1.0)]
        pts.append(foci[0] + t[:, None] * edge)
    return np.vstack(pts)


def _minimise(foci, seeds, annuli) -> np.ndarray | None:
    """Point of the intersection of `annuli` ((center, lo, hi): lo <= |q -
    center| <= hi) with the least summed distance to `foci`, or None when the
    intersection is empty.

    The cost is convex, so the optimum is a feasible unconstrained minimiser
    from `seeds`, a point where two boundary circles cross or touch, or a
    local minimum of the cost along one boundary circle, all in closed form
    (`_arc_minima`). All are scored and one feasibility filter keeps the
    admissible ones, so a candidate that is no minimum costs nothing.
    """
    foci = np.asarray(foci, dtype=float).reshape(-1, 2)
    circles = [(np.asarray(c, dtype=float), r) for c, lo, hi in annuli
               for r in ((lo, hi) if lo > 0.0 else (hi,))]
    cen, rad = (np.array(x, dtype=float) for x in zip(*circles))
    pts = np.vstack(
        [np.asarray(seeds, dtype=float).reshape(-1, 2),
         _arc_minima(foci, cen, rad)]
        + [_crossings(*a, *b) for a, b in itertools.combinations(circles, 2)])
    ok = np.ones(len(pts), dtype=bool)
    for c, lo, hi in annuli:
        d = np.hypot(*(pts - c).T)
        ok &= (d >= lo - _TOL_M) & (d <= hi + _TOL_M)
    best = int(np.argmin(np.where(ok, _cost(pts, foci), np.inf)))
    return pts[best].copy() if ok[best] else None


def _chord(db, bb, dd, r):
    """Where the line d + t b meets the circle |x| = r (db = d.b, bb = b.b > 0,
    dd = d.d): the discriminant, negative if it misses, and roots t0 <= t1."""
    disc = db * db - bb * (dd - r * r)
    s = np.sqrt(np.maximum(disc, 0.0))
    return disc, (-db - s) / bb, (-db + s) / bb


def _band_spans(e1: np.ndarray, e2: np.ndarray, center, r_lo: float,
                r_hi: float) -> list[tuple[float, float]]:
    """Sub-intervals of t in [0, 1] where e1 + t(e2-e1) is r_lo..r_hi from center."""
    b = e2 - e1
    d = e1 - np.asarray(center, dtype=float)
    bb = float(b @ b)
    if bb == 0.0:
        dist = float(np.hypot(*d))
        return [(0.0, 1.0)] if r_lo <= dist <= r_hi else []
    db = float(d @ b)
    dd = float(d @ d)
    disc, t0, t1 = _chord(db, bb, dd, r_hi)
    lo, hi = max(t0, 0.0), min(t1, 1.0)
    if disc < 0.0 or lo > hi:
        return []
    disc, h0, h1 = _chord(db, bb, dd, r_lo)
    if r_lo <= 0.0 or disc < 0.0:       # no hole on the line
        return [(lo, hi)]
    return ([(lo, min(hi, h0))] if lo < h0 else []) + (
        [(max(lo, h1), hi)] if h1 < hi else [])


def _edge_through_point(e1: np.ndarray, e2: np.ndarray,
                        annuli) -> np.ndarray | None:
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
    return e1 + (0.5 * (t0 + t1)) * (e2 - e1)


def p3_waypoint(p_k, e1, e2, r_u2u: float, d_safe: float,
                ring: Ring | None, bs=(0.0, 0.0)) -> P3Result | None:
    """Cheapest-detour waypoint on the edge e1 -> e2 connecting `p_k` from
    inside `ring`: the on-edge point when the edge passes through the
    feasible set (detour zero), otherwise the exact minimiser of
    |q - e1| + |q - e2| over that set. None when the set is empty."""
    edge = np.array([e1, e2], dtype=float)
    annuli = _annuli(np.asarray(p_k, dtype=float), d_safe, r_u2u, ring, bs)
    q = _edge_through_point(edge[0], edge[1], annuli)
    if q is None:
        q = _minimise(edge, [], annuli)
    if q is None:
        return None
    detour = float(_cost(q, edge) - np.hypot(*(edge[1] - edge[0])))
    return P3Result(point=(float(q[0]), float(q[1])), detour_m=max(detour, 0.0))


def nearest_chain_point(prev, anchor, r_link: float, d_safe: float,
                        ring: Ring | None, bs=(0.0, 0.0)) -> np.ndarray:
    """Least-displacement point within `r_link` of anchor, outside the safety
    bubble, inside the ring."""
    q = _minimise([prev], [prev], _annuli(anchor, d_safe, r_link, ring, bs))
    if q is None:
        raise InfeasibleWaypointError("chain annulus does not meet the ring")
    return q


def advance_point(prev, anchor, target, budget_m: float, r_link: float,
                  d_safe: float, ring: Ring | None,
                  bs=(0.0, 0.0)) -> np.ndarray:
    """Waypoint for an idle UAV: close in on `target` without travelling more
    than `budget_m`, staying chained to `anchor` (between d_safe and r_link)
    and inside the ring. Spending idle legs on the approach keeps the later
    duty leg from outrunning the fleet's pace. If no chained point fits the
    budget, the smallest chain-restoring move wins instead."""
    q = _minimise([target], [target], _annuli(anchor, d_safe, r_link, ring, bs)
                  + [(prev, 0.0, budget_m)])
    if q is None:
        return nearest_chain_point(prev, anchor, r_link, d_safe, ring, bs)
    return q


def _rotations(seq: list):
    for base in (seq, seq[::-1]):
        for r in range(len(base)):
            yield base[r:] + base[:r]


def _best_matching(pair: RingPair):
    """Match the attach ring onto the fixed ring's collect events.

    Tries every rotation and direction of the attach tour (the monotone cursor
    is rotation-sensitive). Leftover CPs become inserted steps and pay their
    full hover, relaxed slots only their excess, so the least leftover hover
    plus relaxed excess wins, then the most assigned CPs. Returns the order,
    the greedy pairs and the relaxed pairs.
    """
    n = len(pair.hover_out)
    best = None
    for order in _rotations(list(range(n))):
        pairs = match_pairs(pair, order)
        extra = _relaxed_pairs(pair, order, pairs)
        excess = sum(pair.excess(a, e) for a, e in extra.items())
        leftover = sum(float(pair.hover_out[a]) for a in range(n)
                       if a not in pairs and a not in extra)
        score = (-(leftover + excess), len(pairs) + len(extra))
        if best is None or score > best[0]:
            best = (score, order, pairs, extra)
    return best[1:]


def _relaxed_pairs(pair: RingPair, order, pairs: dict[int, int]) -> dict[int, int]:
    """Second matching pass: slot leftover attach CPs into free fixed-ring
    events even when the fixed CP hovers less, the step then waits out the
    difference. That penalty never exceeds what a dedicated inserted step
    would cost, so any admissible slot beats insertion. A leftover CP only
    takes an event strictly between its matched neighbours' events, the one
    with the least (hover excess, gap) that fits both neighbours."""
    nxt = _next_matched(order, pairs)
    extra: dict[int, int] = {}
    last = None
    for t, a in enumerate(order):
        if a in pairs:
            last = (a, pairs[a])
            continue
        after = (nxt[t], pairs[nxt[t]]) if nxt[t] is not None else None
        lo = last[1] + 1 if last is not None else 0
        hi = after[1] if after is not None else len(pair.hover_in)
        fit = [e for e in range(lo, hi) if pair.fits(a, e, last, after)]
        if fit:
            e = min(fit, key=lambda e: (pair.excess(a, e), float(pair.gap[a, e])))
            extra[a] = e
            last = (a, e)
    return extra


def _insert_unmatched(pos, duty, ref, adj, order, matched, adj_ids, cps,
                      ring_ref, bs, r_u2u, d_safe, meta):
    """Give every unmatched attach-ring CP its own step, placed on the fixed
    ring's path between the surrounding match anchors with minimal detour.
    The fixed UAV collects nothing there, so it only keeps radial order with
    the CP (`_radial_band`), not its own annulus. An anchor's step is the row
    collecting its CP, which stays right as steps are inserted. Returns the
    grown `pos` and `duty`."""
    nxt = _next_matched(order, matched)
    last = None
    for t, a_local in enumerate(order):
        cp_id = int(adj_ids[a_local])
        if a_local in matched:
            last = cp_id
            continue
        after = int(adj_ids[nxt[t]]) if nxt[t] is not None else None
        cp = cps[cp_id]
        band = _radial_band(ref, adj, cp, ring_ref, bs, d_safe)
        col = duty[:, adj]
        lo = int(np.flatnonzero(col == last)[0]) if last is not None else -1
        hi = (int(np.flatnonzero(col == after)[0]) if after is not None
              else len(pos) - 1)
        s_lo, s_hi = max(lo, 0), hi - 1
        if s_hi < s_lo:
            s_lo, s_hi = max(lo, 0), len(pos) - 2
        if s_hi < s_lo:
            # empty window: no matched anchor follows and the last anchor is
            # the final step (or the path is one step long), so park the
            # fixed UAV next to the CP; p3_calls and detour_m skip this step
            q = nearest_chain_point(pos[0, ref], cp, r_u2u, d_safe, band, bs)
            at = max(lo, 0) + 1
        else:
            # cost each window edge: fixed-ring detour plus however much of
            # the attach UAV's in/out jumps the intervening legs cannot absorb
            refpath = pos[:, ref]
            ref_legs = np.hypot(*(refpath - np.roll(refpath, 1, axis=0)).T)
            best = None
            for s in range(s_lo, s_hi + 1):
                res = p3_waypoint(cp, refpath[s], refpath[s + 1], r_u2u,
                                  d_safe, band, bs)
                if res is None:
                    continue
                cost = res.detour_m
                if last is not None:
                    slack = float(ref_legs[lo + 1:s + 1].sum())
                    cost += max(0.0, float(np.hypot(*(cps[last] - cp)))
                                - slack)
                if after is not None:
                    slack = float(ref_legs[s + 1:hi + 1].sum())
                    cost += max(0.0, float(np.hypot(*(cp - cps[after])))
                                - slack)
                if best is None or cost < best[0] - 1e-9:
                    best = (cost, s, res)
            if best is None:
                raise InfeasibleWaypointError(
                    f"no feasible detour for CP {cp_id} on the fixed path")
            _, s, res = best
            meta["p3_calls"] += 1
            meta["detour_m"] += res.detour_m
            q = res.point
            at = s + 1
        pos = np.insert(pos, at, np.nan, axis=0)
        duty = np.insert(duty, at, -1, axis=0)
        pos[at, ref], pos[at, adj], duty[at, adj] = q, cp, cp_id
        last = cp_id
        meta["generated_waypoints"] += 1
    return pos, duty


def _radial_band(g: int, anchor_ring: int, anchor_pos: np.ndarray,
                 ring_geom: Ring, bs: np.ndarray, d_safe: float) -> Ring:
    """Where ring g's UAV may wait while it collects nothing.

    It keeps radial order with the anchor instead of its own annulus: an
    outward ring holds at least d_safe farther from the BS than its anchor,
    an inward ring at least d_safe nearer (capped by its own outer edge,
    which for ring 0 is the BS link range). Radial order keeps every UAV
    pair separated while freeing the UAV from annulus slivers when the
    anchor dives inward.
    """
    bsd = float(np.hypot(*(anchor_pos - bs)))
    if g > anchor_ring:
        lo = bsd + d_safe
        return Ring(lo, max(ring_geom.outer_m, lo))
    return Ring(0.0, max(min(ring_geom.outer_m, bsd - d_safe), 0.0))


def _fill_ring(pos, g, anchor_ring, ring_geom, bs, r_u2u, d_safe,
               done_rings, meta):
    """Assign ring `g` a position at every step that still lacks one.

    Sweeps the cyclic step list from the ring's first duty. Each hole becomes
    an advance toward the ring's next duty, budgeted by the longest leg any
    completed ring flies into that step, and chained to the neighbor toward
    the pair being processed (at the neighbor's collect steps that chain
    annulus is exactly the escort constraint around the served CP).

    Idle positions need not sit inside the ring's own annulus, only duty
    waypoints do; they keep the `_radial_band` order instead.
    """
    s_count = len(pos)
    hard = np.flatnonzero(~np.isnan(pos[:, g, 0]))
    if hard.size:
        # next duty step strictly after each step, cyclically
        nxt = hard[np.searchsorted(hard, np.arange(s_count), side="right")
                   % len(hard)]
        start = int(hard[0])
    else:
        anc0 = pos[0, anchor_ring]
        v = anc0 - bs
        nv = float(np.hypot(*v))
        u = v / nv if nv > 0 else np.array([1.0, 0.0])
        mid = 0.5 * (ring_geom.inner_m + ring_geom.outer_m)
        pos[0, g] = nearest_chain_point(bs + u * mid, anc0, r_u2u, d_safe,
                                        _radial_band(g, anchor_ring, anc0,
                                                     ring_geom, bs, d_safe), bs)
        start = 0
    budget = _leg_lengths(pos[:, done_rings]).max(axis=1)
    seq = np.roll(np.arange(s_count), -start)
    for i in seq[np.isnan(pos[seq, g, 0])]:
        anchor_pos = pos[i, anchor_ring]
        target = pos[nxt[i], g] if hard.size else anchor_pos
        band = _radial_band(g, anchor_ring, anchor_pos, ring_geom, bs, d_safe)
        pos[i, g] = advance_point(pos[i - 1, g], anchor_pos, target,
                                  float(budget[i]), r_u2u, d_safe, band, bs)
        meta["escorts"] += 1


def _fill_all(pos, ref, ring_range, rings, bs, r_u2u, d_safe, meta):
    """After a pair processing, close every hole: rings fill in chain order
    outward from the fixed ring, each anchored to its neighbor toward it."""
    done = [ref]
    for g in sorted(ring_range, key=lambda r: abs(r - ref)):
        if g == ref:
            continue
        anchor_ring = g - 1 if g > ref else g + 1
        _fill_ring(pos, g, anchor_ring, rings[g], bs, r_u2u, d_safe,
                   done, meta)
        done.append(g)


def _attach_ring(pos, duty, ref, adj, cps, hovers, orders, rings, bs,
                 r_u2u, d_safe, meta):
    """Process one adjacent ring pair: match shared steps, then insert new
    steps for the attach-ring CPs that could not share one. Returns the
    grown `pos` and `duty`."""
    adj_ids = orders[adj]
    meta["pair_processings"] += 1
    if not adj_ids:
        return pos, duty
    ev_steps = np.flatnonzero(duty[:, ref] >= 0)
    ev_cps = duty[ev_steps, ref]
    path_cum = np.concatenate([[0.0], np.cumsum(
        np.hypot(*np.diff(pos[:, ref], axis=0).T))])
    pair = RingPair(cps[adj_ids], cps[ev_cps], hovers[adj_ids], hovers[ev_cps],
                    path_cum[ev_steps], r_u2u, d_safe)
    order, pairs, extra = _best_matching(pair)
    matched = pairs | extra
    for a_local, e_local in matched.items():
        pos[ev_steps[e_local], adj] = cps[adj_ids[a_local]]
        duty[ev_steps[e_local], adj] = adj_ids[a_local]
    meta["pairs_matched"] += len(pairs)
    meta["pairs_relaxed"] += len(extra)
    return _insert_unmatched(pos, duty, ref, adj, order, matched, adj_ids,
                             cps, rings[ref], bs, r_u2u, d_safe, meta)


def _attach_schedule(pacing: int, m: int):
    """(fixed ring, attach ring, rings placed so far) for every ring pair,
    alternately one ring inward and one outward from the pacing ring."""
    down = up = pacing
    while down > 0 or up < m - 1:
        if down > 0:
            down -= 1
            yield down + 1, down, range(down, up + 1)
        if up < m - 1:
            up += 1
            yield up - 1, up, range(down, up + 1)


def plan(scenario: Scenario, cluster_set: ClusterSet, topology: Topology,
         radii: CoverageRadii) -> MissionPlan:
    """Build a synchronized mission by point matching.

    The ring whose serial tour-plus-hover time is largest paces the mission
    and seeds the step list with its tour. Adjacent rings are then attached
    one pair at a time, inward and outward from the pacing ring: each attach
    ring reuses the fixed ring's collect steps where a shared step is
    feasible, gets minimal-detour inserted steps for the rest, and every
    other ring closes its holes with chained low-displacement waypoints.

    The plan under construction is `pos` (S, M, 2), NaN where a ring has no
    position yet, and `duty` (S, M), the CP collected or -1.
    """
    cps, hovers = cluster_set.cps, cluster_set.hover_s
    m = topology.m_uavs
    bs = scenario.bs_xy
    v = scenario.v_max_mps
    d_safe = scenario.d_safe_m
    r_u2u = radii.r_u2u_m
    rings = topology.rings

    orders = [list(tour.order) for tour in topology.tours]
    times = ring_serial_s(cluster_set, topology, v)
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
        "generated_waypoints": 0,
        "pair_processings": 0,
        "p3_calls": 0,
        "detour_m": 0.0,
        "escorts": 0,
    }

    for ref, adj, placed in _attach_schedule(pacing, m):
        pos, duty = _attach_ring(pos, duty, ref, adj, cps, hovers, orders,
                                 rings, bs, r_u2u, d_safe, meta)
        _fill_all(pos, ref, placed, rings, bs, r_u2u, d_safe, meta)

    return assemble_plan(pos, duty, hovers, v, meta)
