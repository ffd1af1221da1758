"""Every output of the pipeline, pinned by digest.

`golden_digests.json` holds one sha256 per cell, planner and field: the
clustering (labels, CPs, hovers), the ring topology (association, ring tour
orders and lengths) under "prepare", and each planner's waypoints, duties,
`meta` and `EvalReport`, or the error it raised. The cells are the
benchmark's (seeds read from bench/workloads.json), the acceptance battery's
stress regimes, N=3000 over 8 km, and 200 sensors over 50 and 100 km, whose
16 and 32 rings give pmtp many rings to fill. A mismatch names the first cell,
planner and field that moved.

Regenerate the file with `PYTHONPATH=src python3 tests/test_golden.py` only
in a change that moves outputs by design, and list the changed cells in
CHANGES.md. A change that claims the same outputs leaves the file as it is;
regenerating it to make a mismatch go away hides a defect, which should be
reported instead.

The floats depend on the numpy build (LAPACK's `eigvals` in pmtp's waypoint
solver may round differently), so under a numpy version other than the one
that wrote the file only the integer fields are compared, and the test says
so in its output.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
from conftest import record_acceptance
from test_acceptance import _PLANNERS, _STRESS_REGIMES

from skyhaul.cli import prepare
from skyhaul.mission import evaluate
from skyhaul.model import (ChannelParams, apply_config_overrides,
                           generate_scenario)

GOLDEN = Path(__file__).resolve().parent / "golden_digests.json"
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.json"
INTEGER_FIELDS = ("labels", "association", "tour_orders", "duties")


def _cells():
    """(name, size_m, sensors, seed, radio overrides) of every pinned cell."""
    for name, wl in json.loads(WORKLOADS.read_text())["workloads"].items():
        for seed in wl["seeds"]:
            yield (f"{name} s{seed}", wl["size_m"], wl["sensors"], seed,
                   wl["radio"])
    for (label, size, radio), seed in itertools.product(_STRESS_REGIMES,
                                                         range(6)):
        yield f"stress {label} s{seed}", size, 400, seed, radio
    for seed in range(3):
        yield f"N=3000 8 km s{seed}", 8000.0, 3000, seed, {}
    # wide sparse fields: 16 and 32 rings, so pmtp fills holes across many
    for km in (50, 100):
        yield f"N=200 {km} km s1", km * 1000.0, 200, 1, {}


def _plain(value):
    """`value` as JSON-able Python data, the same under numpy 1 and 2."""
    if isinstance(value, np.ndarray):
        return [list(value.shape), value.tolist()]
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def _digest(value) -> str:
    text = json.dumps(_plain(value), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _error(err: Exception) -> dict:
    return {"error": _digest(f"{type(err).__name__}: {err}")}


def _cell_digests(size, sensors, seed, radio) -> dict:
    """{planner or "prepare": {field: sha256}} for one cell."""
    params = apply_config_overrides(ChannelParams(), radio)
    scenario = generate_scenario(size, size, sensors, params=params, seed=seed)
    try:
        radii, cluster_set, topology = prepare(scenario)
    except Exception as err:
        return {"prepare": _error(err)}
    out = {"prepare": {
        "labels": _digest(cluster_set.labels),
        "cps": _digest(cluster_set.cps),
        "hover_s": _digest(cluster_set.hover_s),
        "association": _digest(topology.association),
        "tour_orders": _digest([t.order for t in topology.tours]),
        "tour_lengths": _digest([t.length_m for t in topology.tours]),
    }}
    for name, planner in _PLANNERS:
        try:
            plan = planner(scenario, cluster_set, topology, radii)
            report = evaluate(plan, scenario, topology, radii, cluster_set)
        except Exception as err:
            out[name] = _error(err)
            continue
        out[name] = {"waypoints": _digest(plan.waypoints),
                     "duties": _digest(plan.duties),
                     "meta": _digest(plan.meta),
                     "report": _digest(report)}
    return out


def _all_digests() -> dict:
    return {name: _cell_digests(*cell) for name, *cell in _cells()}


def _first_moved(expected: dict, actual: dict, fields) -> str | None:
    """'cell / planner / field' of the first digest that differs, comparing
    only `fields` (None: every field)."""
    if list(expected) != list(actual):
        return f"the cell list: {sorted(set(expected) ^ set(actual))}"
    for cell, planners in expected.items():
        for planner, digests in planners.items():
            got = actual[cell].get(planner, {})
            if set(digests) != set(got):
                return f"{cell} / {planner} / outcome ({sorted(got)})"
            for field, digest in digests.items():
                if fields is not None and field not in fields:
                    continue
                if got[field] != digest:
                    return f"{cell} / {planner} / {field}"
    return None


def test_outputs_match_the_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    actual = _all_digests()
    same_numpy = golden["numpy"] == np.__version__
    fields = None if same_numpy else INTEGER_FIELDS
    moved = _first_moved(golden["cells"], actual, fields)
    scope = ("every field" if same_numpy else
             f"integer fields only ({', '.join(INTEGER_FIELDS)}): the file "
             f"was written under numpy {golden['numpy']}, this is "
             f"numpy {np.__version__}")
    record_acceptance("golden digests", moved is None,
                      f"{len(actual)} cells, {scope}"
                      + (f"; first moved: {moved}" if moved else ""))
    assert moved is None, f"first moved: {moved}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({"numpy": np.__version__,
                                  "cells": _all_digests()}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
