"""In-memory span tracer for the traced benchmark run.

The traced run wraps public functions of each layer from outside the
program (see :data:`HOOKS`); nothing under ``src/`` knows it is being
traced.  Every wrapped call records one span: its name, wall start and
end, the sim clock at entry, and the index of the enclosing span.  Spans
live in flat arrays while the run executes and are reduced (or written
out) only after it ends, so the run itself does no I/O.

A span's *self time* is its duration minus the time its child spans
cover.  All work is single-threaded and the wrappers open and close in
call order, so children of one span never overlap and the covered time
is the sum of their durations.

Each event the simulator executes is wrapped in an ``event`` span.  It
is not a layer: it only stops code that runs inside a callback from
being charged to the event loop (``sim.run``/``sim.step``).  Time in an
``event`` span not claimed by a layer span is reported as
``other.self_s`` together with time outside every span.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Span name of a simulator event callback (see the module docstring).
EVENT = "event"


class Tracer:
    """Records properly nested spans into flat arrays."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: Returns the sim clock (µs) stamped on each span; replaced with
        #: the run's simulator clock once the rig exists.
        self.sim_now: Callable[[], int] = lambda: 0
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.sim_us = array("q")
        self._open: List[int] = []
        #: ``<span name>.<outcome>`` -> count (errors, denials, drops).
        self.outcomes: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.start)
        stack = self._open
        self.parent.append(stack[-1] if stack else -1)
        stack.append(index)
        self.name_of.append(nid)
        self.sim_us.append(self.sim_now())
        self.end.append(0.0)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._open.pop()

    def count(self, label: str) -> None:
        self.outcomes[label] = self.outcomes.get(label, 0) + 1

    def __len__(self) -> int:
        return len(self.start)

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, in open order."""
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self)):
                out.write(json.dumps({
                    "id": i, "parent": self.parent[i],
                    "name": self.names[self.name_of[i]],
                    "start_s": self.start[i], "end_s": self.end[i],
                    "sim_us": self.sim_us[i]}) + "\n")


def self_times(parent, start, end) -> List[float]:
    """Self time of each span: its duration minus its children's."""
    covered = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    return [end[i] - start[i] - covered[i] for i in range(len(start))]


class Summary:
    """Per-name totals of one trace."""

    def __init__(self, tracer: Tracer):
        names = tracer.names
        own = self_times(tracer.parent, tracer.start, tracer.end)
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        #: (span name, parent span name or "") -> calls
        self.calls_by_parent: Dict[Tuple[str, str], int] = {}
        name_of, parent = tracer.name_of, tracer.parent
        for i, nid in enumerate(name_of):
            name = names[nid]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + own[i]
            p = parent[i]
            key = (name, names[name_of[p]] if p >= 0 else "")
            self.calls_by_parent[key] = self.calls_by_parent.get(key, 0) + 1
        self.outcomes = dict(tracer.outcomes)


# -- the layer hooks ---------------------------------------------------------

def _raised(result, exc) -> Optional[str]:
    return "errors" if exc is not None else None


def _submit_outcome(result, exc) -> Optional[str]:
    if exc is None:
        return "accepted"
    kind = type(exc).__name__
    if kind == "PortalBusyError":
        return "busy"
    if kind == "NoFeasiblePlacementError":
        return "no_capacity"
    return "errors"


def _dropped(result, exc) -> Optional[str]:
    return "dropped" if result is False else None


def _denied(result, exc) -> Optional[str]:
    if isinstance(result, dict) and result.get("denied"):
        return "denied"
    return None


#: (module, class, method, span name, outcome classifier or None).  The
#: span name is ``<layer>.<op>``; the layer is the ``repro`` package.
HOOKS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.sim.simulator", "Simulator", "run", "sim.run", None),
    ("repro.sim.simulator", "Simulator", "step", "sim.step", None),
    ("repro.cloud.controlplane.plane", "CityControlPlane", "submit_order",
     "cp.submit_order", _submit_outcome),
    ("repro.cloud.controlplane.ring", "ConsistentHashRouter", "route",
     "cp.route", None),
    ("repro.cloud.controlplane.placement", "BinPackingPlacer", "place",
     "cp.place", None),
    ("repro.cloud.controlplane.placement", "FirstFitPlacer", "place",
     "cp.place", None),
    ("repro.cloud.controlplane.plane", "CityControlPlane", "rollup",
     "cp.rollup", None),
    # The invariant sweeps have no public entry point: each monitor
    # reschedules its private _tick on the sim clock.
    ("repro.loadgen.city", "CityInvariantMonitor", "_tick", "inv.sweep",
     None),
    ("repro.loadgen.invariants", "InvariantMonitor", "_tick", "inv.sweep",
     None),
    ("repro.flight.physics", "QuadcopterPhysics", "step",
     "flight.physics_step", None),
    ("repro.flight.autopilot", "Autopilot", "control_step",
     "flight.control_step", None),
    ("repro.mavlink.codec", "MavlinkCodec", "encode", "mavlink.encode", None),
    ("repro.mavlink.codec", "MavlinkCodec", "decode", "mavlink.decode", None),
    ("repro.mavproxy.vfc", "VirtualFlightController", "send",
     "mavproxy.vfc_send", None),
    ("repro.mavproxy.vfc", "VirtualFlightController", "heartbeat",
     "mavproxy.vfc_telemetry", None),
    ("repro.mavproxy.vfc", "VirtualFlightController", "global_position",
     "mavproxy.vfc_telemetry", None),
    ("repro.net.network", "Channel", "send", "net.send", _dropped),
    ("repro.binder.driver", "BinderProcess", "transact", "binder.transact",
     _raised),
    ("repro.binder.driver", "BinderProcess", "transact_async",
     "binder.transact_async", _raised),
    # Batched one-way delivery runs as a sim event with no public entry.
    ("repro.binder.driver", "BinderDriver", "_flush_async",
     "binder.flush_async", None),
    ("repro.android.services.base", "SystemService", "handle_txn",
     "android.handle_txn", _denied),
    ("repro.devices.camera", "Camera", "capture", "devices.read", None),
    ("repro.devices.gps", "GpsReceiver", "read_fix", "devices.read", None),
    ("repro.devices.imu", "Imu", "read", "devices.read", None),
    ("repro.devices.barometer", "Barometer", "read_pressure",
     "devices.read", None),
    ("repro.devices.barometer", "Barometer", "read_altitude",
     "devices.read", None),
    ("repro.devices.magnetometer", "Magnetometer", "read_heading",
     "devices.read", None),
    ("repro.vdc.controller", "VirtualDroneController", "waypoint_reached",
     "vdc.waypoint_reached", None),
    ("repro.vdc.controller", "VirtualDroneController", "waypoint_completed",
     "vdc.waypoint_completed", None),
    ("repro.vdc.controller", "VirtualDroneController",
     "create_virtual_drone", "vdc.create_virtual_drone", None),
)

#: Count-only hooks: (module, class, method, outcome label).
COUNTERS = (
    ("repro.mavproxy.vfc", "VirtualFlightController", "_deny",
     "mavproxy.vfc_send.denied"),
)


def _span(tracer: Tracer, name: str, fn: Callable,
          outcome: Optional[Callable]) -> Callable:
    nid = tracer.name_id(name)
    open_, close = tracer.open, tracer.close
    if outcome is None:
        def traced(*args, **kwargs):
            index = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)
        return traced

    def classified(*args, **kwargs):
        index = open_(nid)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            close(index)
            tracer.count(f"{name}.{outcome(None, exc)}")
            raise
        close(index)
        label = outcome(result, None)
        if label is not None:
            tracer.count(f"{name}.{label}")
        return result
    return classified


def _counted(tracer: Tracer, label: str, fn: Callable) -> Callable:
    def counted(*args, **kwargs):
        tracer.count(label)
        return fn(*args, **kwargs)
    return counted


def _event_scheduler(tracer: Tracer, at: Callable) -> Callable:
    nid = tracer.name_id(EVENT)
    open_, close = tracer.open, tracer.close

    def traced_at(self, time_us, fn, *args, **kwargs):
        def event():
            index = open_(nid)
            try:
                return fn()
            finally:
                close(index)
        return at(self, time_us, event, *args, **kwargs)
    return traced_at


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install every hook for the duration of the ``with`` block.

    Build the rig inside the block: objects that capture a bound method
    at construction (a binder node's handler, say) keep whatever the
    class held at that moment.
    """
    patched = []

    def patch(module: str, cls_name: str, method: str, make) -> None:
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__[method]
        patched.append((cls, method, original))
        setattr(cls, method, make(original))

    try:
        patch("repro.sim.simulator", "Simulator", "at",
              lambda fn: _event_scheduler(tracer, fn))
        for module, cls_name, method, name, outcome in HOOKS:
            patch(module, cls_name, method,
                  lambda fn, n=name, o=outcome: _span(tracer, n, fn, o))
        for module, cls_name, method, label in COUNTERS:
            patch(module, cls_name, method,
                  lambda fn, lb=label: _counted(tracer, lb, fn))
        yield tracer
    finally:
        for cls, method, original in reversed(patched):
            setattr(cls, method, original)
