"""Spans around calls into skyhaul's modules, recorded from outside the package.

`from .tsp import solve_tsp` binds the function in the importing module, so a
span is installed at every name a call goes through (`pointmatch.solve_tsp`,
`mission.solve_tsp`, ...), not only at the defining module. The program is a
single thread, so spans nest strictly and a span's children never overlap:
self time is the duration minus the sum of the children's durations.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _point_count(args, kwargs):
    return len(args[0] if args else kwargs["points"])


# (module, name the call goes through, span name, note taken from the arguments)
SITES = (
    ("model", "generate_scenario", "model.generate_scenario", None),
    ("channel", "coverage_radii", "channel.coverage_radii", None),
    ("clustering", "cluster_sensors", "clustering.cluster_sensors", None),
    ("clustering", "kmeans_cluster", "clustering.kmeans_cluster",
     lambda a, kw: a[1] if len(a) > 1 else kw["k"]),
    ("clustering", "min_hover_time", "channel.min_hover_time", None),
    ("partition", "build_topology", "partition.build_topology", None),
    ("pointmatch", "plan", "pointmatch.plan", None),
    ("pointmatch", "advance_point", "pointmatch.advance_point", None),
    ("pointmatch", "p3_waypoint", "pointmatch.p3_waypoint", None),
    ("pointmatch", "nearest_chain_point", "pointmatch.nearest_chain_point", None),
    ("pointmatch", "match_pairs", "pointmatch.match_pairs", None),
    ("pointmatch", "solve_tsp", "tsp.solve_tsp", _point_count),
    ("baselines", "plan_ttp", "baselines.plan_ttp", None),
    ("baselines", "plan_cstp", "baselines.plan_cstp", None),
    ("baselines", "solve_tsp", "tsp.solve_tsp", _point_count),
    ("mission", "evaluate", "mission.evaluate", None),
    ("mission", "completion_time", "mission.completion_time", None),
    ("mission", "lower_bound", "mission.lower_bound", None),
    ("mission", "validate", "mission.validate", None),
    ("mission", "solve_tsp", "tsp.solve_tsp", _point_count),
)

_TIMED = ("clustering.cluster_sensors", "clustering.kmeans_cluster",
          "pointmatch.plan", "pointmatch.advance_point", "pointmatch.p3_waypoint",
          "pointmatch.nearest_chain_point", "pointmatch.match_pairs",
          "tsp.solve_tsp", "mission.evaluate", "mission.lower_bound",
          "mission.validate", "mission.completion_time", "baselines.plan_cstp",
          "channel.coverage_radii", "channel.min_hover_time",
          "partition.build_topology")
_COUNTED = ("clustering.kmeans_cluster", "pointmatch.advance_point",
            "pointmatch.p3_waypoint", "pointmatch.nearest_chain_point",
            "pointmatch.match_pairs", "tsp.solve_tsp", "mission.lower_bound",
            "channel.min_hover_time")
_TSP_CALLERS = ("pointmatch.plan", "baselines.plan_ttp", "mission.lower_bound")


class Span:
    __slots__ = ("name", "start", "end", "parent", "cell", "note", "raised",
                 "child_s")

    def __init__(self, name, start, parent, cell, note):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.cell = cell
        self.note = note
        self.raised = False
        self.child_s = 0.0

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    """Collects spans in memory; `cell` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.cell = None
        self._open: list[int] = []

    def _wrap(self, fn, name, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(name, 0.0, parent, self.cell,
                        note(args, kwargs) if note else None)
            idx = len(self.spans)
            self.spans.append(span)
            self._open.append(idx)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                span.end = perf_counter()
                self._open.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.dur
        return traced

    @contextmanager
    def installed(self, modules):
        """Replace each call site in `modules` (name -> module) by a traced
        wrapper; the originals are put back on exit. A site the package no
        longer has is skipped and its metrics read zero."""
        saved = []
        try:
            for mod_name, attr, span_name, note in SITES:
                mod = modules[mod_name]
                if not hasattr(mod, attr):
                    continue
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, span_name, note))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "cell": s.cell, "note": s.note,
                    "raised": s.raised, "self_s": s.self_s}) + "\n")


def layer_metrics(spans: list[Span], all_spans: list[Span]) -> dict[str, float]:
    """Per-layer totals over `spans` (one pass); parents are looked up in
    `all_spans`, the list the parent indices refer to."""
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    out = {}
    for name in _TIMED:
        out[f"{name}.s"] = sum(s.dur for s in by_name[name])
    for name in _COUNTED:
        out[f"{name}.calls"] = len(by_name[name])
    out["pointmatch.plan.self_s"] = sum(s.self_s for s in by_name["pointmatch.plan"])
    out["pointmatch.plan.raised"] = sum(s.raised for s in by_name["pointmatch.plan"])
    out["baselines.plan_ttp.self_s"] = sum(
        s.self_s for s in by_name["baselines.plan_ttp"])
    out["tsp.solve_tsp.points"] = sum(s.note for s in by_name["tsp.solve_tsp"])
    for caller in _TSP_CALLERS:
        out[f"{caller}.tsp_s"] = sum(
            s.dur for s in by_name["tsp.solve_tsp"]
            if s.parent is not None and all_spans[s.parent].name == caller)

    kmeans = by_name["clustering.kmeans_cluster"]
    out["clustering.k_tried"] = len({(s.cell, s.note) for s in kmeans})
    # cluster_sensors returns the partition of its last k-means run
    last_run: dict[int, Span] = {}
    for s in kmeans:
        if s.parent is not None:
            last_run[s.parent] = s
    kmeans_s = sum(s.dur for s in kmeans)
    out["clustering.accepted_share"] = (
        sum(s.dur for s in last_run.values()) / kmeans_s if kmeans_s else 0.0)
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric across passes; counts repeat exactly, so their
    median is the count itself."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
