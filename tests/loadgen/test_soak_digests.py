"""Fleet soaks reproduce the results recorded before the fast-loop pass.

``fixtures/soak_digests.json`` was recorded at commit 137bf94, before a
drone's flight loop was stopped at its last landing and before the lean
pass over the physics, controllers and MAVLink checksum.  Each case is
perfbench's soak shape (4 drones x 4 tenants, chaos level 1) at one
seed, pinned by the SHA-256 of ``FleetResult.to_json()``: tenant stats,
invariant verdicts and sweep count, restarts, faults and waypoints.
Those are rounded and discrete, so each case also hashes every drone's
flight state (physics and estimator, with ``float.hex``) the moment its
last flight completes: a last-bit change anywhere in the fast loop
shows there.  Propulsion energy is left out of that hash, since it is
summed with ``sum()``, which Python 3.12+ compensates; the rounded
energies in the result still pin it.  Every value must come out exactly
the same, because those changes alter no decision.  Re-record, only for
a change meant to alter behaviour, with::

    PYTHONPATH=src python -m tests.loadgen.test_soak_digests
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.loadgen import FleetHarness, FleetScenario

FIXTURE = Path(__file__).parent / "fixtures" / "soak_digests.json"

#: perfbench's SOAK shape.
SHAPE = dict(drones=4, tenants_per_drone=4, chaos_level=1)
SEEDS = (1, 7)


def flight_state(sitl):
    """Hash of one drone's ground truth and estimate, bit for bit."""
    phys, pilot = sitl.physics, sitl.autopilot
    att, pos = pilot.attitude_est, pilot.position_est
    values = (list(phys.position) + list(phys.velocity)
              + [phys.roll, phys.pitch, phys.yaw] + list(phys.rates)
              + list(phys.motor_thrust) + list(phys._last_accel_body)
              + [att.roll, att.pitch, att.yaw] + list(att.rates)
              + list(pos.position) + list(pos.velocity))
    text = ",".join(float(v).hex() for v in values)
    text += (f"|{phys.on_ground}|{phys.time_us}|{pilot.time_us}"
             f"|{pilot.fast_loop_count}|{pilot.armed}|{pilot.mode.name}")
    return hashlib.sha256(text.encode()).hexdigest()


class RecordingHarness(FleetHarness):
    """Records each drone's flight state as its last flight completes."""

    def __init__(self, scenario):
        self.flight_states = {}
        super().__init__(scenario)

    def _finalize_slot(self, slot):
        if slot.final_counts is None:
            self.flight_states[slot.index] = flight_state(slot.node.sitl)
        super()._finalize_slot(slot)


def outcome(seed):
    harness = RecordingHarness(FleetScenario(seed=seed, **SHAPE))
    result = harness.run()
    states = [harness.flight_states[i] for i in range(SHAPE["drones"])]
    return {
        "sha256": hashlib.sha256(result.to_json().encode()).hexdigest(),
        "flight_states_sha256": hashlib.sha256(
            ",".join(states).encode()).hexdigest(),
        "duration_s": result.duration_s,
        "tenants_completed": len(result.completed),
        "violations": len(result.violations),
    }


def recorded():
    return json.loads(FIXTURE.read_text())["cases"]


@pytest.mark.parametrize("seed", SEEDS)
def test_soak_matches_recorded_outcome(seed):
    assert outcome(seed) == recorded()[f"seed{seed}"]


def test_fixture_covers_every_seed():
    assert sorted(recorded()) == sorted(f"seed{s}" for s in SEEDS)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(
        {"cases": {f"seed{seed}": outcome(seed) for seed in SEEDS}},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
