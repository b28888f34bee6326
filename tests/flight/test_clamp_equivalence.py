"""The fast-loop clamps return exactly what min()/max() returned.

The PID and the motor mixer clamp with conditional expressions instead
of builtin ``min``/``max`` calls.  The references below are the builtin
forms.  Outputs are compared by ``repr``, which tells ``0.0`` from
``-0.0``, ``1`` from ``1.0`` and shows NaN, so "equal" here means the
same value and type, not just ``==``.
"""

import itertools
import math
import random

from repro.flight.controllers import Pid, mix_motors

EDGES = (0.0, -0.0, 1.0, -1.0, 0.5, 1, 0, -1, 2, 1e-300, -1e-300,
         math.inf, -math.inf, math.nan, 0.35, -0.35, 0.8, -0.8)


def same(a, b):
    return repr(a) == repr(b)


def reference_mix(throttle, roll, pitch, yaw):
    m1 = throttle - roll + pitch + yaw
    m2 = throttle + roll - pitch + yaw
    m3 = throttle + roll + pitch - yaw
    m4 = throttle - roll - pitch - yaw
    return tuple(max(0.0, min(1.0, m)) for m in (m1, m2, m3, m4))


class ReferencePid:
    def __init__(self, kp, ki=0.0, kd=0.0, limit=float("inf"),
                 i_limit=float("inf")):
        self.kp, self.ki, self.kd = kp, ki, kd
        self.limit, self.i_limit = limit, i_limit
        self._integral = 0.0
        self._last_error = None

    def update(self, error, dt_s):
        self._integral += error * dt_s
        self._integral = max(-self.i_limit, min(self.i_limit, self._integral))
        derivative = 0.0
        if self._last_error is not None and dt_s > 0:
            derivative = (error - self._last_error) / dt_s
        self._last_error = error
        out = self.kp * error + self.ki * self._integral + self.kd * derivative
        return max(-self.limit, min(self.limit, out))


def test_mix_motors_matches_builtin_clamps():
    values = (0.0, -0.0, 0.41, 1, 0, 1.5, -0.2, math.nan, math.inf)
    for args in itertools.product(values, repeat=4):
        got, want = mix_motors(*args), reference_mix(*args)
        assert all(same(g, w) for g, w in zip(got, want)), args


def test_pid_matches_builtin_clamps():
    rng = random.Random(5)
    gains = [(0.10, 0.05, 0.003, 0.8, 0.4), (0.25, 0.10, 0.0, 0.35, 0.25),
             (1.0, 0.0, 0.0, math.inf, math.inf), (0.2, 0.02, 0.0, 0.0, 0.0)]
    for kp, ki, kd, limit, i_limit in gains:
        pid = Pid(kp, ki, kd, limit=limit, i_limit=i_limit)
        ref = ReferencePid(kp, ki, kd, limit=limit, i_limit=i_limit)
        errors = list(EDGES) + [rng.uniform(-20, 20) for _ in range(400)]
        for error in errors:
            dt = rng.choice((0.02, 0.0025, 0.0213, 0.0))
            assert same(pid.update(error, dt), ref.update(error, dt)), error
            assert same(pid._integral, ref._integral)

