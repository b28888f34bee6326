"""Physics steps reproduce the trajectories recorded before the lean pass.

``fixtures/physics_trajectory.json`` was recorded at commit 137bf94,
before :meth:`QuadcopterPhysics.step` and ``propulsion_power_w`` were
rewritten without list comprehensions, generators and index loops.  A
scripted 2 000-step flight (ground idle, takeoff, tilt, clamped and
integer commands, a hover wobble, a fall back to the ground) is flown
once with a seeded gust RNG and wind and once with ``rng=None``; the
full state every 100 steps is hashed with ``float.hex``, so a single
rounding difference anywhere shows.

``sum()`` of floats is compensated from Python 3.12 on, and
``total_thrust``/``propulsion_power_w`` use it, so the fixture holds one
recording per summation flavour: ``naive_sum`` (taken with 3.11) and
``compensated_sum`` (taken with 3.13).  Re-record, only for a change
meant to alter the dynamics, with each flavour's interpreter::

    PYTHONPATH=src python -m tests.flight.test_physics_trajectory
"""

import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from repro.flight import QuadcopterPhysics

FIXTURE = Path(__file__).parent / "fixtures" / "physics_trajectory.json"

STEPS = 2000
EVERY = 100


def command(i):
    """The scripted motor command of step ``i``."""
    if i < 150:
        return (0, 0, 0, 0)                       # idle on the ground
    if i < 500:
        return (0.7, 0.7, 0.7, 0.7)               # takeoff
    if i < 700:
        return (0.58, 0.64, 0.66, 0.55)           # roll, pitch and yaw torque
    if i < 800:
        return (1.4, -0.2, 1.0, 0.3)              # clamped at both ends
    if i < 850:
        return (2, -1, 1, 0)                      # integer commands
    if i < 1300:
        wobble = 0.03 * math.sin(i / 15.0)
        return (0.42 + wobble, 0.42 - wobble, 0.42, 0.42 + wobble / 2)
    if i < 1700:
        return (0.2, 0.2, 0.2, 0.2)               # fall to ground contact
    return (0.0, 0.0, 0.0, 0.0)


def dt(i):
    """50 Hz with a late tick now and then, 400 Hz in the middle."""
    if 900 <= i < 1100:
        return 0.0025
    return 0.0213 if i % 7 == 0 else 0.02


def state_digest(phys):
    values = (list(phys.position) + list(phys.velocity)
              + [phys.roll, phys.pitch, phys.yaw] + list(phys.rates)
              + list(phys.motor_thrust) + list(phys._last_accel_body)
              + [phys.propulsion_energy_j, phys.total_thrust(),
                 phys.propulsion_power_w()])
    snap = phys.snapshot()
    values += [snap.latitude, snap.longitude, snap.altitude_m]
    text = ",".join(float(v).hex() for v in values)
    text += f"|{phys.on_ground}|{phys.time_us}"
    return hashlib.sha256(text.encode()).hexdigest()


def trajectory(seeded):
    if seeded:
        phys = QuadcopterPhysics(rng=random.Random(2024),
                                 wind_enu=(2.0, -1.0, 0.3))
    else:
        phys = QuadcopterPhysics(rng=None)
    digests = []
    for i in range(STEPS):
        phys.step(dt(i), command(i))
        if (i + 1) % EVERY == 0:
            digests.append(state_digest(phys))
    return digests


CASES = {"seeded": True, "rng_none": False}

#: Which recording this interpreter must match.
FLAVOUR = ("compensated_sum" if sum([1.0, 1e100, 1.0, -1e100]) == 2.0
           else "naive_sum")


@pytest.mark.parametrize("name", list(CASES))
def test_trajectory_matches_recording(name):
    recorded = json.loads(FIXTURE.read_text())[FLAVOUR][name]
    assert trajectory(CASES[name]) == recorded


def test_script_reaches_every_regime():
    """The script leaves the ground, tilts, and lands back on it."""
    phys = QuadcopterPhysics(rng=None)
    peak = 0.0
    tilted = landed_after_flight = False
    for i in range(STEPS):
        phys.step(dt(i), command(i))
        peak = max(peak, phys.position[2])
        tilted = tilted or abs(phys.roll) > 0.05
        if peak > 5.0 and phys.on_ground:
            landed_after_flight = True
    assert peak > 5.0 and tilted and landed_after_flight


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    fixture = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    fixture[FLAVOUR] = {name: trajectory(seeded)
                        for name, seeded in CASES.items()}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FLAVOUR} into {FIXTURE}")
