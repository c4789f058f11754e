"""Drive schedules and gate-time formulas for both gate schemes.

Sign convention throughout: Omega_1(t) = +A(t), Omega_3(t) = -A(t), with
A(t) >= 0 the common amplitude.  Times are in units of 1/g, rates in units
of g.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def resonant_gate_time(omega_max: float) -> float:
    """Gate time of the resonant scheme, T = sqrt(3) pi / (sqrt(2) Omega_max)."""
    if omega_max <= 0:
        raise ValueError("omega_max must be positive")
    return np.sqrt(3.0) * np.pi / (np.sqrt(2.0) * omega_max)


def dispersive_gate_time(omega: float, g: float = 1.0) -> float:
    """Gate time of the dispersive scheme, T = g pi / Omega^2."""
    if omega <= 0:
        raise ValueError("omega must be positive")
    return g * np.pi / omega**2


def adiabatic_amplitude(omega_max: float, t: float) -> float:
    """Smooth turn-on/turn-off pulse 2 Omega_max sin^2(sqrt(2/3) Omega_max t).

    The argument sweeps 0..pi over the resonant gate time, so the pulse
    starts and ends at zero and its area satisfies the swap condition
    exactly for every Omega_max.
    """
    if np.any(np.asarray(t) < 0):
        raise ValueError("t must be >= 0")
    return 2.0 * omega_max * np.sin(np.sqrt(2.0 / 3.0) * omega_max * t) ** 2


@dataclass(frozen=True)
class DriveSchedule:
    """Time-dependent common Rabi amplitude A(t) on [0, T].

    kind 'adiabatic' uses the sin^2 pulse (A(0) = A(T) = 0); kind
    'constant' holds A(t) = peak.  Schedules are pure functions of time.
    """

    kind: str
    peak: float
    total_time: float

    def __post_init__(self):
        if self.kind not in ("constant", "adiabatic"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not 0 <= self.peak < np.inf:
            raise ValueError(f"peak amplitude must be finite and >= 0, got {self.peak}")
        if not 0 < self.total_time < np.inf:
            raise ValueError(f"total_time must be finite and positive, got {self.total_time}")

    @classmethod
    def adiabatic(cls, omega_max: float) -> "DriveSchedule":
        """sin^2 pulse with its matched gate time."""
        return cls("adiabatic", omega_max, resonant_gate_time(omega_max))

    @classmethod
    def constant(cls, omega: float, total_time: float) -> "DriveSchedule":
        return cls("constant", omega, total_time)

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    def amplitude(self, t: float) -> float:
        """A(t); the drives are Omega_1 = +A, Omega_3 = -A."""
        if self.kind == "constant":
            return self.peak if np.isscalar(t) else np.full_like(np.asarray(t, float), self.peak)
        return adiabatic_amplitude(self.peak, t)


def pulse_area(schedule: DriveSchedule) -> float:
    """Integral of A(t)/sqrt(3) over [0, T], in closed form.

    A constant drive gives peak T; the sin^2 pulse 2 peak sin^2(a t), with
    a = sqrt(2/3) peak, gives peak (T - sin(2 a T) / (2 a)) for any T.
    Equals pi/sqrt(2) for any schedule satisfying the one-step swap
    condition, which the adiabatic pulse does at its matched gate time.

    For x = 2 a T below 0.5 the difference cancels (relative error about
    6 eps / x^2), so it is summed as the series of (x - sin x) / (2 a).
    """
    peak, total = schedule.peak, schedule.total_time
    if peak == 0.0:
        return 0.0
    if schedule.is_constant:
        return peak * total / np.sqrt(3.0)
    a = np.sqrt(2.0 / 3.0) * peak
    x = 2.0 * a * total
    if x >= 0.5:
        return peak * (total - np.sin(x) / (2.0 * a)) / np.sqrt(3.0)
    # x - sin x = x^3/3! - x^5/5! + ..., summed until a term no longer counts
    term, series, k = x**3 / 6.0, 0.0, 3
    while series + term != series:
        series += term
        term *= -x * x / ((k + 1) * (k + 2))
        k += 2
    return peak * series / (2.0 * a) / np.sqrt(3.0)
