"""State estimation: complementary attitude filter + position fusion.

ArduPilot's fast loop "processes values from one or more inertial motion
units and adjusts the motors" — the estimator is the first half of that.
Attitude comes from gyro integration corrected slowly by the
accelerometer's gravity direction; position/velocity fuse GPS and
barometer with simple first-order corrections.
"""

from __future__ import annotations

from math import atan2, exp, pi, sqrt
from typing import Optional, Tuple

from repro.devices.imu import GRAVITY, ImuReading


#: The loop rate `alpha` is tuned against.  The blend weight must scale
#: with the actual sample interval or the filter's time constant changes
#: with loop rate: SITLs running the fast loop slower than 400 Hz (the
#: fleet harness uses 50 Hz) would correct gyro drift 8x+ more weakly,
#: and the resulting steady attitude bias (~gyro_bias * tau) is enough to
#: park a hover several metres off target.
DESIGN_RATE_HZ = 400.0

_TWO_PI = 2 * pi


class AttitudeEstimator:
    """Complementary filter over IMU samples.

    ``alpha`` is the gyro weight per sample *at 400 Hz*; internally it is
    converted to a time constant so the filter behaves identically at any
    loop rate.
    """

    def __init__(self, alpha: float = 0.999, yaw_gain: float = 0.05):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = alpha
        # (1 - alpha) per sample at DESIGN_RATE_HZ == dt/tau per second.
        self.tau_s = 1.0 / (DESIGN_RATE_HZ * (1.0 - alpha))
        self.yaw_gain = yaw_gain
        self.roll = 0.0
        self.pitch = 0.0
        self.yaw = 0.0
        self.rates: Tuple[float, float, float] = (0.0, 0.0, 0.0)
        self.samples = 0

    def update(self, imu: ImuReading, dt_s: float,
               heading_rad: Optional[float] = None) -> None:
        """Fold in one IMU sample (and optionally a compass heading)."""
        p, q, r = imu.gyro
        self.rates = (p, q, r)
        gyro_roll = self.roll + p * dt_s
        gyro_pitch = self.pitch + q * dt_s
        ax, ay, az = imu.accel
        # Gravity direction gives absolute roll/pitch when not accelerating
        # hard; weight it by (1 - alpha).
        accel_norm = sqrt(ax * ax + ay * ay + az * az)
        if 0.5 * GRAVITY < accel_norm < 1.5 * GRAVITY:
            accel_roll = atan2(ay, az)
            accel_pitch = atan2(-ax, sqrt(ay * ay + az * az))
            alpha = exp(-dt_s / self.tau_s)
            self.roll = alpha * gyro_roll + (1 - alpha) * accel_roll
            self.pitch = alpha * gyro_pitch + (1 - alpha) * accel_pitch
        else:
            self.roll = gyro_roll
            self.pitch = gyro_pitch
        if heading_rad is not None:
            yaw_gyro = self.yaw + r * dt_s
            # Blend on the circle to avoid wrap glitches; the compass
            # arrives at only 10 Hz so it gets its own, larger gain.
            err = (heading_rad - yaw_gyro + pi) % _TWO_PI - pi
            self.yaw = (yaw_gyro + self.yaw_gain * err) % _TWO_PI
        else:
            self.yaw = (self.yaw + r * dt_s) % _TWO_PI
        self.samples += 1


class PositionEstimator:
    """First-order GPS/baro fusion in the local ENU frame."""

    def __init__(self, gps_gain: float = 0.15, baro_gain: float = 0.2):
        self.gps_gain = gps_gain
        self.baro_gain = baro_gain
        self.position = [0.0, 0.0, 0.0]
        self.velocity = [0.0, 0.0, 0.0]
        self._initialized = False

    def predict(self, accel_enu: Tuple[float, float, float], dt_s: float) -> None:
        accel_e, accel_n, accel_u = accel_enu
        velocity = self.velocity
        position = self.position
        ve = velocity[0] + accel_e * dt_s
        vn = velocity[1] + accel_n * dt_s
        vu = velocity[2] + accel_u * dt_s
        velocity[0] = ve
        velocity[1] = vn
        velocity[2] = vu
        position[0] += ve * dt_s
        position[1] += vn * dt_s
        position[2] += vu * dt_s

    def correct_gps(self, east: float, north: float,
                    vel_e: float, vel_n: float) -> None:
        if not self._initialized:
            self.position[0], self.position[1] = east, north
            self.velocity[0], self.velocity[1] = vel_e, vel_n
            self._initialized = True
            return
        self.position[0] += self.gps_gain * (east - self.position[0])
        self.position[1] += self.gps_gain * (north - self.position[1])
        self.velocity[0] += self.gps_gain * (vel_e - self.velocity[0])
        self.velocity[1] += self.gps_gain * (vel_n - self.velocity[1])

    def correct_baro(self, altitude_m: float) -> None:
        self.position[2] += self.baro_gain * (altitude_m - self.position[2])
