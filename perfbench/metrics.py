"""Metric names and units, and the per-layer report.

``BENCHMARK.json`` at the repository root is the one list of metric
names, units and directions; this module reads it.  Only the traced
operations are named here.  Every workload reports every metric: a
layer a workload never enters reports zero calls, which is the
prediction for that pairing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Sequence

from perfbench.spans import EVENT, Summary
from perfbench.tails import percentile

#: metric name -> value
Metrics = Dict[str, float]

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: Metrics a run reports with tracing off, and with tracing on.
END_TO_END = tuple(m["name"] for m in SPEC["end_to_end"])
PER_LAYER = tuple(m["name"] for m in SPEC["per_layer"])
#: metric name -> unit, for every metric
UNITS = {m["name"]: m["unit"]
         for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Traced operations, ``<layer>.<op>``; the layer is a ``repro`` package.
OPS = (
    "sim.run", "sim.step",
    "cp.submit_order", "cp.route", "cp.place", "cp.rollup",
    "inv.sweep",
    "flight.physics_step", "flight.control_step",
    "mavlink.encode", "mavlink.decode",
    "mavproxy.vfc_send", "mavproxy.vfc_telemetry",
    "net.send",
    "binder.transact", "binder.transact_async", "binder.flush_async",
    "android.handle_txn",
    "devices.read",
    "vdc.waypoint_reached", "vdc.waypoint_completed",
    "vdc.create_virtual_drone",
)

LAYERS = tuple(dict.fromkeys(op.split(".")[0] for op in OPS))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: Summary, traced_s: float, overhead_frac: float, *,
                  orders: int = 0, sim_s: float = 0.0, waypoints: int = 0,
                  faults: int = 0,
                  migrations: Optional[Dict[str, int]] = None,
                  admission_waits_s: Sequence[float] = (),
                  doubling_ratio: float = 0.0) -> Metrics:
    """The per-layer report of one traced run: every metric of
    ``PER_LAYER`` it can compute.

    ``traced_s`` is the wall time of the traced region, and
    ``overhead_frac`` how much longer it took, in reference seconds, than
    the same work run without hooks.
    """
    calls, own, outcomes = summary.calls, summary.self_s, summary.outcomes
    values: Dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for op in OPS:
        n, s = calls.get(op, 0), own.get(op, 0.0)
        values[f"{op}.calls"] = n
        values[f"{op}.self_s"] = s
        values[f"{op}.us_per_call"] = _ratio(s * 1e6, n)
        layer_self[op.split(".")[0]] += s
    for layer, s in layer_self.items():
        values[f"{layer}.self_s"] = s
    events = calls.get(EVENT, 0)
    submits = calls.get("cp.submit_order", 0)
    accepted = outcomes.get("cp.submit_order.accepted", 0)
    migrations = migrations or {}
    values.update({
        "sim.events": events,
        "sim.events_per_order": _ratio(events, orders),
        "sim.events_per_sim_s": _ratio(events, sim_s),
        "cp.submit_order.accepted": accepted,
        "cp.submit_order.busy": outcomes.get("cp.submit_order.busy", 0),
        "cp.submit_order.no_capacity":
            outcomes.get("cp.submit_order.no_capacity", 0),
        "cp.submit_order.accept_ratio": _ratio(accepted, submits),
        "cp.attempts_per_order": _ratio(submits, orders),
        "cp.route.calls_per_order": _ratio(calls.get("cp.route", 0), orders),
        "cp.route.calls_from_sweep":
            summary.calls_by_parent.get(("cp.route", "inv.sweep"), 0),
        "cp.migrations.completed": migrations.get("completed", 0),
        "cp.migrations.failed": migrations.get("failed", 0),
        "cp.admission_wait_p50_sim_s":
            percentile(sorted(admission_waits_s), 50.0)
            if admission_waits_s else 0.0,
        "inv.sweep.self_share": _ratio(own.get("inv.sweep", 0.0), traced_s),
        "flight.steps_per_sim_s":
            _ratio(calls.get("flight.physics_step", 0), sim_s),
        "mavproxy.vfc_send.denied":
            outcomes.get("mavproxy.vfc_send.denied", 0),
        "net.send.dropped": outcomes.get("net.send.dropped", 0),
        "binder.transact.errors": outcomes.get("binder.transact.errors", 0),
        "binder.txn_per_waypoint":
            _ratio(calls.get("binder.transact", 0), waypoints),
        "android.handle_txn.denied":
            outcomes.get("android.handle_txn.denied", 0),
        "faults.injected": faults,
        "other.self_s": traced_s - sum(layer_self.values()),
        "tracing.overhead_frac": overhead_frac,
        "city.wall_ratio_per_doubling": doubling_ratio,
    })
    return {name: float(values[name]) for name in PER_LAYER
            if name in values}
