"""Point-matching mission planner.

Builds the global step sequence around the pacing ring (largest tour-plus-
hover time). Ring pairs are processed outward from it: CPs of the ring being
attached are matched to collect steps of the already-fixed ring so both UAVs
collect simultaneously; unmatched CPs get a minimal-detour waypoint inserted
into the fixed ring's path; every remaining hole is an escort position that
keeps the relay chain connected without slowing the pace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import CoverageRadii
from .clustering import ClusterSet
from .mission import MissionPlan, MissionStep, ring_serial_s
from .model import Scenario
from .partition import Ring, Topology

_GRID_ANGLES = 360          # 1 degree
_GRID_RADII = 200           # r_u2u / 200
_RING_TOL_M = 1e-6
_HOVER_CMP_TOL = 1e-12
_HOP_TOL_M = 1e-9


class InfeasibleWaypointError(RuntimeError):
    """The waypoint constraint set is empty."""


def connectable_sets(cps_outer, cps_inner, r_u2u: float) -> list[set[int]]:
    """Per outer CP, the inner CPs an inter-UAV link can span while both hover."""
    outer = np.asarray(cps_outer, dtype=float).reshape(-1, 2)
    inner = np.asarray(cps_inner, dtype=float).reshape(-1, 2)
    if len(inner) == 0:
        return [set() for _ in range(len(outer))]
    d = np.hypot(*(outer[:, None, :] - inner[None, :, :]).T).T
    return [set(np.flatnonzero(row <= r_u2u).tolist()) for row in d]


@dataclass(frozen=True)
class Matching:
    pairs: tuple[tuple[int, int], ...]      # (outer idx, inner idx)
    unmatched_outer: tuple[int, ...]
    unmatched_inner: tuple[int, ...]


def match_pairs(cps_outer, cps_inner, tour_outer, tour_inner,
                hover_outer, hover_inner, connectable, inner_path_dist,
                d_safe: float = 0.0) -> Matching:
    """Greedy monotone pairing of outer-tour CPs onto the inner tour.

    Walks `tour_outer` in order with a forward-only cursor into `tour_inner`.
    A candidate must be connectable, must hover at least as long as the outer
    CP (the fixed ring is never slowed), must sit at least d_safe away, and
    consecutive matches must not require the outer UAV to outrun the inner
    path (`inner_path_dist(prev, cand)` bounds the straight hop).
    """
    outer = np.asarray(cps_outer, dtype=float).reshape(-1, 2)
    inner = np.asarray(cps_inner, dtype=float).reshape(-1, 2)
    pairs: list[tuple[int, int]] = []
    unmatched: list[int] = []
    cursor = 0
    prev: tuple[int, int] | None = None
    for a in tour_outer:
        found = None
        for jpos in range(cursor, len(tour_inner)):
            c = tour_inner[jpos]
            if c not in connectable[a]:
                continue
            if hover_outer[a] > hover_inner[c] + _HOVER_CMP_TOL:
                continue
            if float(np.hypot(*(outer[a] - inner[c]))) < d_safe:
                continue
            if prev is not None:
                hop = float(np.hypot(*(outer[prev[0]] - outer[a])))
                if hop > inner_path_dist(prev[1], c) + _HOP_TOL_M:
                    continue
            found = (c, jpos)
            break
        if found is None:
            unmatched.append(a)
        else:
            pairs.append((a, found[0]))
            cursor = found[1] + 1
            prev = (a, found[0])
    matched_inner = {c for _, c in pairs}
    return Matching(
        pairs=tuple(pairs),
        unmatched_outer=tuple(unmatched),
        unmatched_inner=tuple(c for c in tour_inner if c not in matched_inner),
    )


def _annulus_grid(center: np.ndarray, r_lo: float, r_hi: float) -> np.ndarray:
    if r_hi < r_lo:
        return np.zeros((0, 2))
    ang = np.linspace(0.0, 2.0 * np.pi, _GRID_ANGLES, endpoint=False)
    rad = np.linspace(r_lo, r_hi, _GRID_RADII)
    pts = center + np.stack([
        np.outer(rad, np.cos(ang)).ravel(),
        np.outer(rad, np.sin(ang)).ravel(),
    ], axis=1)
    return pts


def _in_ring(pts: np.ndarray, ring: Ring | None, bs) -> np.ndarray:
    if ring is None:
        return np.ones(len(pts), dtype=bool)
    d = np.hypot(*(pts - np.asarray(bs, dtype=float)).T)
    return (d >= ring.inner_m - _RING_TOL_M) & (d <= ring.outer_m + _RING_TOL_M)


@dataclass(frozen=True)
class P3Result:
    point: tuple[float, float]
    edge_index: int
    detour_m: float


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

    def inside(r):
        # t range with squared distance <= r^2, or None when the line misses
        disc = db * db - bb * (dd - r * r)
        if disc < 0.0:
            return None
        s = math.sqrt(disc)
        return ((-db - s) / bb, (-db + s) / bb)

    outer = inside(r_hi)
    if outer is None:
        return []
    lo, hi = max(outer[0], 0.0), min(outer[1], 1.0)
    if lo > hi:
        return []
    hole = inside(r_lo) if r_lo > 0.0 else None
    if hole is None:
        return [(lo, hi)]
    spans = []
    if lo < hole[0]:
        spans.append((lo, min(hi, hole[0])))
    if hole[1] < hi:
        spans.append((max(lo, hole[1]), hi))
    return spans


def _intersect_spans(a: list[tuple[float, float]],
                     b: list[tuple[float, float]]) -> list[tuple[float, float]]:
    out = []
    for a0, a1 in a:
        for b0, b1 in b:
            lo, hi = max(a0, b0), min(a1, b1)
            if lo <= hi:
                out.append((lo, hi))
    return out


def _edge_through_point(p_k: np.ndarray, e1: np.ndarray, e2: np.ndarray,
                        r_u2u: float, d_safe: float, ring: Ring | None,
                        bs) -> np.ndarray | None:
    """Exact zero-detour candidate: a point of the edge itself inside the
    feasible set, when the edge crosses it. Midpoint of the widest crossing."""
    spans = _band_spans(e1, e2, p_k, d_safe, r_u2u)
    if ring is not None and spans:
        spans = _intersect_spans(
            spans, _band_spans(e1, e2, bs, ring.inner_m, ring.outer_m))
    if not spans:
        return None
    t0, t1 = max(spans, key=lambda s: s[1] - s[0])
    return e1 + (0.5 * (t0 + t1)) * (e2 - e1)


def p3_waypoint(p_k, path_points, r_u2u: float, d_safe: float,
                ring: Ring | None, bs=(0.0, 0.0)) -> P3Result:
    """Cheapest-detour waypoint connecting `p_k` from inside `ring`.

    Searches every edge of `path_points` (an open chain) jointly with a polar
    grid over the feasible annulus around p_k (1 degree by r_u2u/200), plus
    the exact on-edge crossing point whenever an edge passes through the
    feasible set (detour zero, which no grid node quite reaches).
    """
    p_k = np.asarray(p_k, dtype=float)
    path = np.asarray(path_points, dtype=float).reshape(-1, 2)
    if len(path) < 2:
        raise ValueError("path_points needs at least one edge")
    cand = _annulus_grid(p_k, d_safe, r_u2u)
    cand = cand[_in_ring(cand, ring, bs)]
    if len(cand) == 0:
        raise InfeasibleWaypointError(
            f"no point of the ring lies {d_safe:.0f}..{r_u2u:.0f} m from "
            f"({p_k[0]:.0f}, {p_k[1]:.0f})")
    best = None                       # (detour, edge, point)
    for e in range(len(path) - 1):
        e1, e2 = path[e], path[e + 1]
        direct = float(np.hypot(*(e2 - e1)))
        det = (np.hypot(*(cand - e1).T) + np.hypot(*(cand - e2).T)) - direct
        i = int(np.argmin(det))
        e_det, e_pt = float(det[i]), cand[i]
        on_edge = _edge_through_point(p_k, e1, e2, r_u2u, d_safe, ring,
                                      np.asarray(bs, dtype=float))
        if on_edge is not None:
            d0 = float(np.hypot(*(on_edge - e1)) + np.hypot(*(on_edge - e2))) \
                - direct
            if d0 < e_det:
                e_det, e_pt = max(d0, 0.0), on_edge
        if best is None or e_det < best[0] - 1e-12:
            best = (e_det, e, e_pt)
    detour, edge, point = best
    return P3Result(
        point=(float(point[0]), float(point[1])),
        edge_index=edge,
        detour_m=detour,
    )


def nearest_chain_point(prev, anchor, r_link: float, d_safe: float,
                        ring: Ring | None, bs=(0.0, 0.0)) -> np.ndarray:
    """Least-displacement point within `r_link` of anchor, outside the safety
    bubble, inside the ring. Closed-form projections first, grid as fallback."""
    prev = np.asarray(prev, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    bs = np.asarray(bs, dtype=float)

    def feasible(q):
        d = float(np.hypot(*(q - anchor)))
        return d_safe - _RING_TOL_M <= d <= r_link + _RING_TOL_M \
            and bool(_in_ring(q[None, :], ring, bs)[0])

    if feasible(prev):
        return prev.copy()
    # clip the radius toward the anchor, then toward the ring band
    v = prev - anchor
    n = float(np.hypot(*v))
    u = v / n if n > 0 else np.array([1.0, 0.0])
    q = anchor + u * min(max(n, d_safe), r_link)
    if feasible(q):
        return q
    if ring is not None:
        w = q - bs
        wn = float(np.hypot(*w))
        if wn > 0:
            q2 = bs + w * (min(max(wn, ring.inner_m), ring.outer_m) / wn)
            if feasible(q2):
                return q2
    cand = _annulus_grid(anchor, d_safe, r_link)
    cand = cand[_in_ring(cand, ring, bs)]
    if len(cand) == 0:
        raise InfeasibleWaypointError("chain annulus does not meet the ring")
    disp = np.hypot(*(cand - prev).T)
    return cand[int(np.argmin(disp))].copy()


def advance_point(prev, anchor, target, budget_m: float, r_link: float,
                  d_safe: float, ring: Ring | None,
                  bs=(0.0, 0.0)) -> np.ndarray:
    """Waypoint for an idle UAV: close in on `target` without travelling more
    than `budget_m`, staying chained to `anchor` (between d_safe and r_link)
    and inside the ring. Spending idle legs on the approach keeps the later
    duty leg from outrunning the fleet's pace. If no chained point fits the
    budget, the smallest chain-restoring move wins instead."""
    prev = np.asarray(prev, dtype=float)
    anchor = np.asarray(anchor, dtype=float)
    target = np.asarray(target, dtype=float)
    bs = np.asarray(bs, dtype=float)
    cands = [target, prev]
    v = target - prev
    dv = float(np.hypot(*v))
    if dv > budget_m > 0:
        cands.append(prev + v * (budget_m / dv))
    pts = np.vstack([np.array(cands), _annulus_grid(anchor, d_safe, r_link)])
    d_anchor = np.hypot(*(pts - anchor).T)
    ok = (d_anchor <= r_link + _RING_TOL_M) \
        & (d_anchor >= d_safe - _RING_TOL_M) \
        & _in_ring(pts, ring, bs)
    if not ok.any():
        raise InfeasibleWaypointError("chain annulus does not meet the ring")
    leg = np.hypot(*(pts - prev).T)
    prog = np.hypot(*(pts - target).T)
    in_budget = ok & (leg <= budget_m + _RING_TOL_M)
    if in_budget.any():
        idx = np.flatnonzero(in_budget)
        best = idx[int(np.argmin(prog[idx] + 1e-4 * leg[idx]))]
    else:
        idx = np.flatnonzero(ok)
        best = idx[int(np.argmin(leg[idx] + 1e-4 * prog[idx]))]
    return pts[best].copy()


class _Step:
    """Mutable step under assembly: ring -> position, ring -> collected CP."""

    __slots__ = ("pos", "collect")

    def __init__(self, pos=None, collect=None):
        self.pos: dict[int, np.ndarray] = pos or {}
        self.collect: dict[int, int] = collect or {}


def _ref_path(steps: list[_Step], ref: int) -> np.ndarray:
    return np.array([s.pos[ref] for s in steps], dtype=float)


def _event_list(steps: list[_Step], ref: int) -> list[tuple[int, int]]:
    """(step index, collected CP) for every collect step of `ref`, in order."""
    return [(i, s.collect[ref]) for i, s in enumerate(steps) if ref in s.collect]


def _rotations(seq: list):
    for rev in (False, True):
        base = list(reversed(seq)) if rev else list(seq)
        for r in range(len(base)):
            yield base[r:] + base[:r]


def _best_matching(outer_pos, inner_pos, hover_out, hover_in, conn,
                   events, path_cum, d_safe):
    """Match the attach ring onto the fixed ring's collect events.

    Tries every rotation and direction of the attach tour (the monotone cursor
    is rotation-sensitive); keeps the matching with the most pairs, then the
    least unmatched hover. Local indices: outer i = i-th attach-tour CP,
    inner j = events[j].
    """
    inner_seq = list(range(len(inner_pos)))

    def path_dist(i, j):
        return float(path_cum[events[j][0]] - path_cum[events[i][0]])

    best = None
    for order in _rotations(list(range(len(outer_pos)))):
        m = match_pairs(outer_pos, inner_pos, order, inner_seq,
                        hover_out, hover_in, conn, path_dist, d_safe=d_safe)
        extra = _relaxed_pairs(order, list(m.pairs), events, path_cum,
                               outer_pos, inner_pos, hover_out, hover_in,
                               conn, d_safe)
        assigned = {a for a, _ in m.pairs} | {a for a, _ in extra}
        excess = sum(max(0.0, float(hover_out[a] - hover_in[e]))
                     for a, e in extra)
        leftover = sum(float(hover_out[a]) for a in range(len(outer_pos))
                       if a not in assigned)
        # leftovers become inserted steps and pay their full hover; relaxed
        # slots pay only the hover difference
        score = (-(leftover + excess), len(assigned))
        if best is None or score > best[0]:
            best = (score, order, m, extra)
    return best[1], best[2], best[3]


def _relaxed_pairs(order, pairs, events, path_cum, outer_pos, inner_pos,
                   hover_out, hover_in, conn, d_safe):
    """Second matching pass: slot leftover attach CPs into free fixed-ring
    events even when the fixed CP hovers less, the step then waits out the
    difference. That penalty never exceeds what a dedicated inserted step
    would cost, so any admissible slot beats insertion. Monotone order and
    the hop-vs-path guard stay enforced."""
    taken = {e for _, e in pairs}
    e_of = dict(pairs)
    n_ev = len(events)

    def pdist(i, j):
        return float(path_cum[events[j][0]] - path_cum[events[i][0]])

    nxt_anchor: list[tuple[int, int] | None] = [None] * len(order)
    cur = None
    for t in range(len(order) - 1, -1, -1):
        nxt_anchor[t] = cur
        if order[t] in e_of:
            cur = (order[t], e_of[order[t]])
    extra: list[tuple[int, int]] = []
    last: tuple[int, int] | None = None
    for t, a in enumerate(order):
        if a in e_of:
            last = (a, e_of[a])
            continue
        lo = last[1] + 1 if last is not None else 0
        hi = nxt_anchor[t][1] if nxt_anchor[t] is not None else n_ev
        best = None
        for e in range(lo, hi):
            if e in taken or e not in conn[a]:
                continue
            gap = float(np.hypot(*(outer_pos[a] - inner_pos[e])))
            if gap < d_safe:
                continue
            if last is not None:
                hop = float(np.hypot(*(outer_pos[last[0]] - outer_pos[a])))
                if hop > pdist(last[1], e) + _HOP_TOL_M:
                    continue
            if nxt_anchor[t] is not None:
                a2, e2 = nxt_anchor[t]
                hop = float(np.hypot(*(outer_pos[a] - outer_pos[a2])))
                if hop > pdist(e, e2) + _HOP_TOL_M:
                    continue
            excess = max(0.0, float(hover_out[a] - hover_in[e]))
            key = (excess, gap)
            if best is None or key < best[0]:
                best = (key, e)
        if best is not None:
            extra.append((a, best[1]))
            taken.add(best[1])
            last = (a, best[1])
    return extra


def _insert_unmatched(steps, ref, adj, order, pair_step, adj_ids, cps,
                      ring_ref, bs, r_u2u, d_safe, meta):
    """Give every unmatched attach-ring CP its own step, placed on the fixed
    ring's path between the surrounding match anchors with minimal detour."""
    n = len(order)
    next_anchor: list[_Step | None] = [None] * n
    cur = None
    for t in range(n - 1, -1, -1):
        next_anchor[t] = cur
        if order[t] in pair_step:
            cur = pair_step[order[t]]
    last_obj: _Step | None = None
    for t, a_local in enumerate(order):
        if a_local in pair_step:
            last_obj = pair_step[a_local]
            continue
        cp_id = int(adj_ids[a_local])
        cp = cps[cp_id]
        lo = steps.index(last_obj) if last_obj is not None else -1
        hi = steps.index(next_anchor[t]) if next_anchor[t] is not None \
            else len(steps) - 1
        s_lo, s_hi = max(lo, 0), hi - 1
        if s_hi < s_lo:
            s_lo, s_hi = max(lo, 0), len(steps) - 2
        if s_hi < s_lo:
            # single-step path: park the fixed UAV next to the CP
            q = nearest_chain_point(steps[0].pos[ref], cp, r_u2u, d_safe,
                                    ring_ref, bs)
            at = max(lo, 0) + 1
        else:
            # cost each window edge: fixed-ring detour plus however much of
            # the attach UAV's in/out jumps the intervening legs cannot absorb
            refpath = _ref_path(steps, ref)
            ref_legs = np.hypot(*(refpath - np.roll(refpath, 1, axis=0)).T)
            prev_adj = last_obj.pos[adj] if last_obj is not None else None
            next_adj = next_anchor[t].pos[adj] if next_anchor[t] is not None \
                else None
            best = None
            for s in range(s_lo, s_hi + 1):
                try:
                    res = p3_waypoint(cp, refpath[s:s + 2], r_u2u, d_safe,
                                      ring_ref, bs)
                except InfeasibleWaypointError:
                    continue
                cost = res.detour_m
                if prev_adj is not None:
                    slack = float(ref_legs[lo + 1:s + 1].sum())
                    cost += max(0.0, float(np.hypot(*(prev_adj - cp))) - slack)
                if next_adj is not None:
                    slack = float(ref_legs[s + 1:hi + 1].sum())
                    cost += max(0.0, float(np.hypot(*(cp - next_adj))) - slack)
                if best is None or cost < best[0] - 1e-9:
                    best = (cost, s, res)
            if best is None:
                raise InfeasibleWaypointError(
                    f"no feasible detour for CP {cp_id} on the fixed path")
            _, s, res = best
            meta["p3_calls"] += 1
            meta["detour_m"] += res.detour_m
            q = np.asarray(res.point)
            at = s + 1
        new = _Step(pos={ref: q, adj: cp.copy()}, collect={adj: cp_id})
        steps.insert(at, new)
        last_obj = new
        meta["generated_waypoints"] += 1


def _fill_ring(steps, g, anchor_ring, ring_geom, bs, r_u2u, d_safe,
               done_rings, meta):
    """Assign ring `g` a position at every step that still lacks one.

    Sweeps the cyclic step list from the ring's first duty. Each hole becomes
    an advance toward the ring's next duty, budgeted by the longest leg any
    completed ring flies into that step, and chained to the neighbor toward
    the pair being processed (at the neighbor's collect steps that chain
    annulus is exactly the escort constraint around the served CP).

    Idle positions need not sit inside the ring's own annulus, only duty
    waypoints do. They keep radial order instead: an outward ring holds at
    least d_safe farther from the BS than its anchor, an inward ring at
    least d_safe nearer (capped by its own outer edge, which for ring 0 is
    the BS link range). Radial order keeps every UAV pair separated while
    freeing the escort from annulus slivers when the anchor dives inward.
    """
    s_count = len(steps)
    hard = [i for i, st in enumerate(steps) if g in st.pos]

    def band(anchor_pos: np.ndarray) -> Ring:
        bsd = float(np.hypot(*(anchor_pos - bs)))
        if g > anchor_ring:
            lo = bsd + d_safe
            return Ring(lo, max(ring_geom.outer_m, lo))
        hi = max(min(ring_geom.outer_m, bsd - d_safe), 0.0)
        return Ring(0.0, hi)

    start = hard[0] if hard else 0
    seq = list(range(start, s_count)) + list(range(start))
    # next duty waypoint strictly after each step, cyclically
    nxt: list[np.ndarray | None] = [None] * s_count
    if hard:
        cur = steps[hard[0]].pos[g]
        for i in reversed(seq):
            nxt[i] = cur
            if g in steps[i].pos:
                cur = steps[i].pos[g]
        prev = steps[hard[0]].pos[g]
    else:
        anc0 = steps[seq[0]].pos[anchor_ring]
        v = anc0 - bs
        nv = float(np.hypot(*v))
        u = v / nv if nv > 0 else np.array([1.0, 0.0])
        mid = 0.5 * (ring_geom.inner_m + ring_geom.outer_m)
        prev = nearest_chain_point(bs + u * mid, anc0, r_u2u, d_safe,
                                   band(anc0), bs)
        steps[seq[0]].pos[g] = prev
        seq = seq[1:]
    for i in seq:
        st = steps[i]
        if g in st.pos:
            prev = st.pos[g]
            continue
        before = steps[i - 1].pos
        budget = max((float(np.hypot(*(st.pos[r] - before[r])))
                      for r in done_rings), default=0.0)
        target = nxt[i] if nxt[i] is not None else st.pos[anchor_ring]
        anchor_pos = st.pos[anchor_ring]
        q = advance_point(prev, anchor_pos, target, budget,
                          r_u2u, d_safe, band(anchor_pos), bs)
        st.pos[g] = q
        prev = q
        meta["escorts"] += 1


def _fill_all(steps, ref, ring_range, rings, bs, r_u2u, d_safe, meta):
    """After a pair processing, close every hole: rings fill in chain order
    outward from the fixed ring, each anchored to its neighbor toward it."""
    done = {ref}
    for g in sorted(ring_range, key=lambda r: abs(r - ref)):
        if g == ref:
            continue
        anchor_ring = g - 1 if g > ref else g + 1
        _fill_ring(steps, g, anchor_ring, rings[g], bs, r_u2u, d_safe,
                   done, meta)
        done.add(g)


def _attach_ring(steps, ref, adj, cps, hovers, orders, rings, bs,
                 r_u2u, d_safe, meta):
    """Process one adjacent ring pair: match shared steps, then insert new
    steps for the attach-ring CPs that could not share one."""
    events = _event_list(steps, ref)
    refpath = _ref_path(steps, ref)
    path_cum = np.concatenate([[0.0], np.cumsum(
        np.hypot(*np.diff(refpath, axis=0).T))]) if len(refpath) > 1 \
        else np.zeros(max(len(refpath), 1))
    adj_ids = orders[adj]
    if not adj_ids:
        meta["pair_processings"] += 1
        return
    ev_cp = [cp for _, cp in events]
    outer_pos = cps[adj_ids]
    inner_pos = cps[ev_cp] if ev_cp else np.zeros((0, 2))
    hover_out = hovers[adj_ids]
    hover_in = hovers[ev_cp] if ev_cp else np.zeros(0)
    conn = connectable_sets(outer_pos, inner_pos, r_u2u)
    order, matching, extra = _best_matching(outer_pos, inner_pos, hover_out,
                                            hover_in, conn, events, path_cum,
                                            d_safe)
    pair_step: dict[int, _Step] = {}
    for a_local, e_local in list(matching.pairs) + extra:
        si, _ = events[e_local]
        st = steps[si]
        st.pos[adj] = cps[adj_ids[a_local]].copy()
        st.collect[adj] = int(adj_ids[a_local])
        pair_step[a_local] = st
    meta["pairs_matched"] += len(matching.pairs)
    meta["pairs_relaxed"] += len(extra)
    _insert_unmatched(steps, ref, adj, order, pair_step, adj_ids, cps,
                      rings[ref], bs, r_u2u, d_safe, meta)
    meta["pair_processings"] += 1


def plan(scenario: Scenario, cluster_set: ClusterSet, topology: Topology,
         radii: CoverageRadii) -> MissionPlan:
    """Build a synchronized mission by point matching.

    The ring whose serial tour-plus-hover time is largest paces the mission
    and seeds the step list with its tour. Adjacent rings are then attached
    one pair at a time, inward and outward from the pacing ring: each attach
    ring reuses the fixed ring's collect steps where a shared step is
    feasible, gets minimal-detour inserted steps for the rest, and every
    other ring closes its holes with chained low-displacement waypoints.
    """
    cps = cluster_set.cp_array()
    hovers = cluster_set.hover_array()
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
    steps = [_Step(pos={pacing: cps[c].copy()}, collect={pacing: int(c)})
             for c in orders[pacing]]
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

    down = up = pacing
    while down > 0 or up < m - 1:
        if down > 0:
            ref = down
            _attach_ring(steps, ref, down - 1, cps, hovers, orders, rings,
                         bs, r_u2u, d_safe, meta)
            down -= 1
            _fill_all(steps, ref, range(down, up + 1), rings, bs,
                      r_u2u, d_safe, meta)
        if up < m - 1:
            ref = up
            _attach_ring(steps, ref, up + 1, cps, hovers, orders, rings,
                         bs, r_u2u, d_safe, meta)
            up += 1
            _fill_all(steps, ref, range(down, up + 1), rings, bs,
                      r_u2u, d_safe, meta)

    w = np.array([[st.pos[r] for r in range(m)] for st in steps])
    legs = np.hypot(*np.moveaxis(w - np.roll(w, 1, axis=0), 2, 0))
    worst = legs.max(axis=1)
    mission_steps = []
    for i, st in enumerate(steps):
        hover = max((float(hovers[c]) for c in st.collect.values()),
                    default=0.0)
        mission_steps.append(MissionStep(
            waypoints=tuple((float(x), float(y)) for x, y in w[i]),
            duties=tuple(st.collect.get(r) for r in range(m)),
            hover_s=hover,
            flight_s=float(worst[i]) / v,
        ))
    return MissionPlan(steps=tuple(mission_steps), v_max_mps=v, meta=meta)
