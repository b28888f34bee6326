"""Injected faults are flagged by the city invariant monitor.

The monitor checks routing only for records admitted since its last
sweep (all of them again after the ring changes) and walks the fleet's
host map and the plane's active tenants instead of every record.  Each
fault below must still be flagged with the same rule, subject and
detail, at the first sweep after it happens.

``fixtures/city_mutations.json`` holds, per fault, the first flag of
every (rule, subject) pair as the full-scan monitor of commit ed279bf
raised it.  Re-record, only for a change meant to alter what is
flagged, with::

    PYTHONPATH=src python -m tests.cloud.controlplane.test_city_monitor
"""

import json
from pathlib import Path

import pytest

from repro.loadgen import CityHarness, CityScenario
from tests.cloud.controlplane.test_city import SMALL

FIXTURE = Path(__file__).parent / "fixtures" / "city_mutations.json"

#: The monitor sweeps at sim time 0 and then every SWEEP_US.
SWEEP_US = 2_000_000
#: Faults are injected half a second before a sweep.
INJECT_US = 20_500_000
#: A fault that would derail the rest of the run ends it before the
#: sweep after the one that must flag it.
STOP_US = INJECT_US + SWEEP_US + SWEEP_US // 2
WRONG_SHARD_USER = "user0005"
REMOVED_SHARD = "shard-1"


class _Stop(Exception):
    pass


def _first_sweep_after(t_us):
    return (t_us // SWEEP_US + 1) * SWEEP_US


def _stop():
    raise _Stop()


def _queued_tenant(harness):
    """A tenant queued on a drone that cannot launch before STOP_US: one
    in flight (its next launch is a dispatch delay after it lands)."""
    for drone in harness.plane.fleet.states():
        if drone.in_flight and drone.pending:
            return drone, next(iter(drone.pending))
    raise AssertionError("no drone in flight with tenants queued")


def wrong_shard(harness):
    """Every order of one user is admitted on a shard it does not
    route to."""
    plane = harness.plane
    shard_for = plane.shard_for

    def misrouting(user):
        shard = shard_for(user)
        if user != WRONG_SHARD_USER:
            return shard
        return next(s for s in plane.shards if s is not shard)

    plane.shard_for = misrouting


def removed_shard(harness):
    """The ring loses a shard mid-run."""
    harness.sim.at(INJECT_US,
                   lambda: harness.plane.router.remove_shard(REMOVED_SHARD))


def double_placement(harness):
    """A queued tenant is also queued on a second drone."""
    def inject():
        drone, tenant = _queued_tenant(harness)
        other = next(d for d in harness.plane.fleet.states()
                     if d is not drone and not d.hosts(tenant))
        other.pending[tenant] = drone.pending[tenant]
    harness.sim.at(INJECT_US, inject)
    harness.sim.at(STOP_US, _stop)


def completed_but_hosted(harness):
    """A queued tenant's record says it completed."""
    def inject():
        _, tenant = _queued_tenant(harness)
        harness.plane.records[tenant].state = "completed"
    harness.sim.at(INJECT_US, inject)
    harness.sim.at(STOP_US, _stop)


def queued_but_unhosted(harness):
    """A queued tenant drops off its drone's queue."""
    def inject():
        drone, tenant = _queued_tenant(harness)
        drone.pending.pop(tenant)
    harness.sim.at(INJECT_US, inject)
    harness.sim.at(STOP_US, _stop)


FAULTS = {
    "wrong_shard": wrong_shard,
    "removed_shard": removed_shard,
    "double_placement": double_placement,
    "completed_but_hosted": completed_but_hosted,
    "queued_but_unhosted": queued_but_unhosted,
}


def run_with(fault):
    harness = CityHarness(CityScenario(**SMALL))
    FAULTS[fault](harness)
    try:
        harness.run()
    except _Stop:
        pass
    return harness


def first_flags(harness):
    """[rule, subject, t_us, detail] of each pair's first violation."""
    first = {}
    for v in harness.monitor.violations:
        first.setdefault((v.rule, v.subject), [v.rule, v.subject, v.t_us,
                                               v.detail])
    return sorted(first.values())


def recorded():
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module", params=sorted(FAULTS))
def faulted(request):
    return request.param, run_with(request.param)


def test_first_flags_match_full_scan_monitor(faulted):
    fault, harness = faulted
    assert first_flags(harness) == recorded()[fault]


def test_wrong_shard_flagged_at_first_sweep_after_admission():
    harness = run_with("wrong_shard")
    records = [r for r in harness.plane.records.values()
               if r.user == WRONG_SHARD_USER]
    assert records
    flags = {}
    for v in harness.monitor.violations:
        if v.rule == "routing":
            flags.setdefault(v.subject, v)
    assert sorted(flags) == sorted(r.tenant for r in records)
    for record in records:
        assert flags[record.tenant].t_us \
            == _first_sweep_after(record.submitted_t_us)


def test_removed_shard_reflags_every_record_it_owned():
    harness = run_with("removed_shard")
    owned = sorted(r.tenant for r in harness.plane.records.values()
                   if r.shard_id == REMOVED_SHARD
                   and r.submitted_t_us < INJECT_US)
    assert owned
    flagged = sorted({v.subject for v in harness.monitor.violations
                      if v.rule == "routing"
                      and v.t_us == _first_sweep_after(INJECT_US)})
    assert flagged == owned


@pytest.mark.parametrize("fault,rule", [
    ("double_placement", "single-placement"),
    ("completed_but_hosted", "conservation"),
    ("queued_but_unhosted", "conservation"),
])
def test_placement_fault_flagged_at_next_sweep(fault, rule):
    harness = run_with(fault)
    flags = [v for v in harness.monitor.violations if v.rule == rule]
    assert flags
    assert min(v.t_us for v in flags) == _first_sweep_after(INJECT_US)


def test_fixture_covers_every_fault():
    assert sorted(recorded()) == sorted(FAULTS)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {fault: first_flags(run_with(fault)) for fault in sorted(FAULTS)},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
