"""A drone's flight loop stops at its last landing, serial or sharded.

``FleetHarness._finalize_slot`` powers a drone down the instant its
last flight completes.  That includes the SITL fast loop: a landed,
disarmed drone whose stats are frozen has nothing left to fly.  A shard
of the executor ends there anyway, so the serial run must fly exactly
the fast-loop ticks each drone flies alone.
"""

from collections import defaultdict

import pytest

import repro.obs as obs
from repro.flight.sitl import SitlDrone
from repro.loadgen.executor import run_shard
from repro.loadgen.harness import FleetHarness
from repro.loadgen.scenario import FleetScenario

#: Four drones whose last landings are staggered by their chaos plans.
SCENARIO = FleetScenario(seed=11, drones=4, tenants_per_drone=1,
                         chaos_level=1)


class TickLedger:
    """Counts the fast-loop ticks that run (the loop is still on), per
    SITL, and each drone's count at the moment it is finalized."""

    def __init__(self, monkeypatch):
        self.ticks = defaultdict(int)
        self.at_finalize = {}
        real_tick = SitlDrone._tick
        real_finalize = FleetHarness._finalize_slot

        def tick(sitl):
            if sitl._running:
                self.ticks[id(sitl)] += 1
            real_tick(sitl)

        def finalize(harness, slot):
            if slot.final_counts is None:
                self.at_finalize[slot.index] = self.ticks[id(slot.node.sitl)]
            real_finalize(harness, slot)

        monkeypatch.setattr(SitlDrone, "_tick", tick)
        monkeypatch.setattr(FleetHarness, "_finalize_slot", finalize)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


def test_no_tick_after_finalize_and_serial_matches_sharded(monkeypatch):
    ledger = TickLedger(monkeypatch)
    harness = FleetHarness(SCENARIO)
    harness.run()
    # Keep the simulator going: nothing may fly a finalized drone.
    sim = harness.system.sim
    sim.run(until=sim.now + 10_000_000)
    serial = {}
    for slot in harness.slots:
        ran = ledger.ticks[id(slot.node.sitl)]
        assert ran == ledger.at_finalize[slot.index], (
            f"drone {slot.index} ticked {ran - ledger.at_finalize[slot.index]}"
            f" time(s) after its last flight completed")
        serial[slot.index] = ran
    assert sorted(serial) == list(range(SCENARIO.drones))
    # The landings are staggered, so only the last drone was still
    # flying at the end: a stopped loop is what makes the counts differ.
    assert len(set(serial.values())) == SCENARIO.drones

    sharded = {}
    for index in range(SCENARIO.drones):
        ledger.at_finalize.clear()
        run_shard(SCENARIO.to_json(), [index])
        sharded[index] = ledger.at_finalize[index]
    assert serial == sharded
