"""Service dispatch against the recorded reference replies, reply for reply.

``SystemService.handle_txn`` has one body (memoized dispatch lanes,
interned counters, ``to_dict`` payloads).  The replies it must produce
were recorded from the original getattr/asdict reference body before
that body was deleted (``fixtures/dispatch_reference.json``): the storm
workload, the same storm under explored same-tick schedules, unknown
codes and a policy denial.  Storm replies are compared as sha256
digests of their canonical JSON; the error replies verbatim.  The lane
must also keep honoring instance-level op overrides (fault and security
tests monkey-patch ``op_*`` methods on live services).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.loadgen import FleetScenario, FleetHarness
from repro.loadgen.workloads import STORM_CALLS
from repro.sched import make_tie_breaker

REFERENCE = json.loads(
    (Path(__file__).parent / "fixtures" / "dispatch_reference.json")
    .read_text())

#: same-tick schedules the reference replies were recorded under.
EXPLORED_SCHEDULES = [0, 1, 2, 3, 4]


def make_rig(waypoint: bool = True):
    harness = FleetHarness(FleetScenario(
        seed=42, drones=1, tenants_per_drone=1, workload_mix=["storm"]))
    slot = harness.slots[0]
    node = slot.node
    tenant = slot.tenants[0]
    if waypoint:
        node.vdc.waypoint_reached(tenant)
    app = next(iter(node.vdc.drones[tenant].env.apps.values()))
    return node, app


def reply_digest(reply) -> str:
    return hashlib.sha256(
        json.dumps(reply, sort_keys=True).encode()).hexdigest()


def storm_call(app, i):
    svc, code, data = STORM_CALLS[i % len(STORM_CALLS)]
    return reply_digest(app.call_service(svc, code, dict(data)))


def test_storm_replies_identical_across_configs():
    _, app = make_rig()
    expected = REFERENCE["storm"]
    for i, want in enumerate(expected):
        assert storm_call(app, i) == want, (STORM_CALLS[i % 4][:2], i)


@pytest.mark.parametrize("schedule", EXPLORED_SCHEDULES)
def test_storm_replies_identical_under_explored_schedules(schedule):
    """The recorded replies must not depend on same-tick event order.

    The rig advances its simulator under an explored schedule between
    call batches, so the background fleet events interleave permuted;
    replies must stay byte-equal to the reference recorded under the
    same schedule.
    """
    node, app = make_rig()
    expected = REFERENCE["schedules"][str(schedule)]
    node.sim.set_tie_breaker(make_tie_breaker("random", 42, schedule))
    try:
        for i, want in enumerate(expected):
            assert storm_call(app, i) == want, (i, schedule)
            if i % 10 == 9:
                node.sim.run_for(50_000)
    finally:
        node.sim.set_tie_breaker(None)


@pytest.mark.parametrize("svc", ["CameraService", "SensorService",
                                 "LocationManagerService"])
def test_unknown_code_error_identical(svc):
    _, app = make_rig()
    reply = app.call_service(svc, "no_such_op", {})
    assert reply == REFERENCE["unknown_code"][svc]
    assert "error" in reply


def test_policy_denial_identical_without_waypoint():
    """Before waypoint_reached the device policy denies camera capture."""
    _, app = make_rig(waypoint=False)
    reply = app.call_service("CameraService", "capture", {})
    assert reply == REFERENCE["denial_before_waypoint"]
    assert reply.get("denied") is True


def test_fast_lane_honors_instance_op_override():
    """The lane memo must not capture bound methods: security/fault tests
    monkey-patch ``op_*`` on live service instances."""
    node, app = make_rig()
    assert app.call_service("CameraService", "capture", {}).get(
        "status") == "ok"  # lane is now warm
    service = node.device_env.system_server.services["CameraService"]
    service.op_capture = lambda txn: {"status": "ok", "poisoned": True}
    reply = app.call_service("CameraService", "capture", {})
    assert reply.get("poisoned") is True
    del service.op_capture
    assert "poisoned" not in app.call_service("CameraService", "capture", {})


def test_fault_hook_runs_after_unknown_code_and_before_access_check():
    """An injected service fault answers known codes with a transient
    error, counted as ``outcome="fault"``; unknown codes still get the
    unknown-code reply and denied callers never reach the policy check."""
    import repro.obs as obs

    node, app = make_rig(waypoint=False)
    service = node.device_env.system_server.services["CameraService"]
    service.fault_hook = lambda txn: "injected camera fault"
    registry = obs.enable(node.sim)
    try:
        assert app.call_service("CameraService", "no_such_op", {}) == \
            REFERENCE["unknown_code"]["CameraService"]
        denied_before = service.denied_calls
        reply = app.call_service("CameraService", "capture", {})
        assert reply == {"error": "injected camera fault", "transient": True}
        assert service.denied_calls == denied_before
        assert registry.counter(
            "android.service.calls", service="CameraService",
            code="capture", outcome="fault").value == 1
    finally:
        obs.reset()
    service.fault_hook = None
    assert app.call_service("CameraService", "capture", {}) == \
        REFERENCE["denial_before_waypoint"]
