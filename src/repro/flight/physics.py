"""6-DOF quadcopter rigid-body physics.

Parameterized to the paper's prototype: a DJI FlameWheel F450 airframe
with four T-Motor MN2213 950Kv motors and 9.5" props, all-up weight about
1.5 kg with the Pi, Navio2, and the 5000 mAh pack.

The model takes four motor thrust commands (normalized 0..1), converts
them through a first-order motor lag into thrusts, computes body torques
from the X-configuration geometry, and integrates attitude and position
with semi-implicit Euler.  Euler angles are fine here: the controller
never approaches gimbal lock in the evaluated regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.devices.state import DroneStateSnapshot
from repro.flight.geo import GeoPoint, offset_geopoint

GRAVITY = 9.80665


@dataclass
class QuadcopterParams:
    """Physical parameters (prototype defaults)."""

    mass_kg: float = 1.5
    arm_length_m: float = 0.225          # F450 motor arm
    max_thrust_per_motor_n: float = 9.0  # MN2213 + 9.5" prop at 12V
    motor_tau_s: float = 0.04            # ESC+prop spin-up lag
    inertia: Tuple[float, float, float] = (0.013, 0.013, 0.024)
    linear_drag: float = 0.35            # N per (m/s)
    angular_drag: float = 0.04
    yaw_torque_coeff: float = 0.016      # Nm of yaw per N of thrust

    def hover_throttle(self) -> float:
        """Normalized per-motor command that balances gravity."""
        return (self.mass_kg * GRAVITY / 4.0) / self.max_thrust_per_motor_n


class QuadcopterPhysics:
    """The vehicle's ground-truth state and dynamics."""

    def __init__(self, params: Optional[QuadcopterParams] = None,
                 home: Optional[GeoPoint] = None, rng=None,
                 wind_enu: Tuple[float, float, float] = (0.0, 0.0, 0.0)):
        self.params = params or QuadcopterParams()
        self.home = home or GeoPoint(43.6084298, -85.8110359, 0.0)
        self._rng = rng
        self.wind_enu = wind_enu
        # State: ENU position/velocity, Euler attitude, body rates.
        self.position = [0.0, 0.0, 0.0]
        self.velocity = [0.0, 0.0, 0.0]
        self.roll = 0.0
        self.pitch = 0.0
        self.yaw = 0.0
        self.rates = [0.0, 0.0, 0.0]
        # Actual (lagged) motor thrusts in newtons.
        self.motor_thrust = [0.0, 0.0, 0.0, 0.0]
        self.on_ground = True
        self.time_us = 0
        self._last_accel_body = (0.0, 0.0, 0.0)
        #: cumulative propulsion energy drawn, joules (for billing/power).
        self.propulsion_energy_j = 0.0
        #: snapshot() is memoized between steps.  Sensors on the same tick
        #: all sample identical ground truth, so the geodetic conversion
        #: and snapshot construction run once per step instead of once per
        #: sensor read.  Direct state pokes (tests) must be followed by
        #: step() before the cached view refreshes.
        self._state_version = 0
        self._snapshot_cache: Optional[DroneStateSnapshot] = None
        self._snapshot_version = -1

    # -- state access -----------------------------------------------------------
    def geoposition(self) -> GeoPoint:
        return offset_geopoint(
            self.home, self.position[0], self.position[1], self.position[2]
        )

    def snapshot(self) -> DroneStateSnapshot:
        """The ground truth that sensors sample."""
        if self._snapshot_version == self._state_version:
            return self._snapshot_cache
        geo = self.geoposition()
        snap = DroneStateSnapshot(
            time_us=self.time_us,
            latitude=geo.latitude,
            longitude=geo.longitude,
            altitude_m=self.position[2],
            position_enu=tuple(self.position),
            velocity_enu=tuple(self.velocity),
            accel_body=self._last_accel_body,
            roll=self.roll,
            pitch=self.pitch,
            yaw=self.yaw,
            angular_rates=tuple(self.rates),
            on_ground=self.on_ground,
        )
        self._snapshot_cache = snap
        self._snapshot_version = self._state_version
        return snap

    def total_thrust(self) -> float:
        return sum(self.motor_thrust)

    def propulsion_power_w(self) -> float:
        """Electrical power drawn by the motors (induced-power model)."""
        thrust = self.total_thrust()
        if thrust <= 0.0:
            return 0.0
        # P = T^(3/2) / sqrt(2 rho A) / figure-of-merit, per rotor.
        rho = 1.225
        disk_area = math.pi * (0.120) ** 2  # 9.5" prop
        per_motor = [
            (t ** 1.5) / math.sqrt(2 * rho * disk_area) / 0.55
            for t in self.motor_thrust
        ]
        return sum(per_motor)

    # -- dynamics -------------------------------------------------------------------
    def step(self, dt_s: float, motor_commands: Tuple[float, float, float, float]) -> None:
        """Advance the vehicle by ``dt_s`` under the given motor commands.

        Motor order (X configuration, ArduPilot numbering): 1 front-right
        (CCW), 2 back-left (CCW), 3 front-left (CW), 4 back-right (CW).
        """
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        p = self.params
        commands = [min(1.0, max(0.0, c)) for c in motor_commands]
        # First-order motor response toward commanded thrust.
        alpha = 1.0 - math.exp(-dt_s / p.motor_tau_s)
        for i in range(4):
            target = commands[i] * p.max_thrust_per_motor_n
            self.motor_thrust[i] += (target - self.motor_thrust[i]) * alpha

        t1, t2, t3, t4 = self.motor_thrust
        thrust = t1 + t2 + t3 + t4
        # X config: motors 3,2 on the left/back-left, 1,4 right... compute
        # torques with the standard 45-degree arm projection.
        arm = p.arm_length_m * math.sqrt(0.5)
        torque_roll = arm * ((t2 + t3) - (t1 + t4))    # left minus right
        torque_pitch = arm * ((t1 + t3) - (t2 + t4))   # front minus back
        torque_yaw = p.yaw_torque_coeff * ((t1 + t2) - (t3 + t4))  # CCW - CW

        # Angular dynamics.
        ix, iy, iz = p.inertia
        rp, rq, rr = self.rates
        rp += (torque_roll - p.angular_drag * rp) / ix * dt_s
        rq += (torque_pitch - p.angular_drag * rq) / iy * dt_s
        rr += (torque_yaw - p.angular_drag * rr) / iz * dt_s
        self.rates = [rp, rq, rr]
        self.roll += rp * dt_s
        self.pitch += rq * dt_s
        self.yaw = (self.yaw + rr * dt_s) % (2 * math.pi)

        # Thrust direction.  Conventions: yaw 0 faces north, positive
        # clockwise (compass); positive roll = right side down (accelerates
        # right); positive pitch = nose up (accelerates backward).
        sr, cr = math.sin(self.roll), math.cos(self.roll)
        sp, cp = math.sin(self.pitch), math.cos(self.pitch)
        sy, cy = math.sin(self.yaw), math.cos(self.yaw)
        forward_force = thrust * (-sp)          # nose up -> backward
        right_force = thrust * (sr * cp)        # right down -> right
        up_force = thrust * (cp * cr)
        # Body-forward in ENU is (sin yaw, cos yaw); body-right is
        # (cos yaw, -sin yaw) for compass yaw.
        force_e = forward_force * sy + right_force * cy
        force_n = forward_force * cy - right_force * sy
        force_u = up_force - p.mass_kg * GRAVITY

        gust = (0.0, 0.0, 0.0)
        if self._rng is not None:
            gust = tuple(self._rng.gauss(0.0, 0.05) for _ in range(3))
        rel_v = [self.velocity[i] - self.wind_enu[i] for i in range(3)]
        accel = [
            (force_e - p.linear_drag * rel_v[0]) / p.mass_kg + gust[0],
            (force_n - p.linear_drag * rel_v[1]) / p.mass_kg + gust[1],
            (force_u - p.linear_drag * rel_v[2]) / p.mass_kg + gust[2],
        ]
        # Dynamic acceleration rotated into the body frame (yaw only; the
        # small-tilt approximation is plenty for the IMU model, which adds
        # the gravity components itself).
        self._last_accel_body = (
            accel[0] * sy + accel[1] * cy,
            accel[0] * cy - accel[1] * sy,
            accel[2],
        )

        for i in range(3):
            self.velocity[i] += accel[i] * dt_s
        for i in range(3):
            self.position[i] += self.velocity[i] * dt_s

        # Ground contact.
        if self.position[2] <= 0.0:
            self.position[2] = 0.0
            if self.velocity[2] < 0.0:
                self.velocity[2] = 0.0
            if thrust < p.mass_kg * GRAVITY * 0.95:
                self.on_ground = True
                self.velocity = [0.0, 0.0, 0.0]
                self.rates = [0.0, 0.0, 0.0]
                self.roll = self.pitch = 0.0
        if self.position[2] > 0.02:
            self.on_ground = False

        self.propulsion_energy_j += self.propulsion_power_w() * dt_s
        self.time_us += int(round(dt_s * 1e6))
        self._state_version += 1
