from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from scipy.integrate import quad

from cavityfredkin.pulses import (
    DriveSchedule,
    adiabatic_amplitude,
    dispersive_gate_time,
    pulse_area,
    resonant_gate_time,
)

AREA_TARGET = np.pi / np.sqrt(2.0)


class TestGateTimes:
    def test_resonant_values(self):
        assert resonant_gate_time(0.05) == pytest.approx(76.9538, abs=1e-3)
        assert resonant_gate_time(0.1) == pytest.approx(38.4769, abs=1e-3)

    def test_resonant_inverse_proportionality(self):
        assert resonant_gate_time(0.04) == pytest.approx(2 * resonant_gate_time(0.08))

    def test_dispersive_values(self):
        assert dispersive_gate_time(0.02) == pytest.approx(7853.9816, abs=1e-3)
        assert dispersive_gate_time(0.1) == pytest.approx(314.1593, abs=1e-3)

    def test_dispersive_quartic_scaling(self):
        assert dispersive_gate_time(0.025) == pytest.approx(16 * dispersive_gate_time(0.1))

    @pytest.mark.parametrize("fn", [resonant_gate_time, dispersive_gate_time])
    def test_rejects_nonpositive_drive(self, fn):
        with pytest.raises(ValueError):
            fn(0.0)


class TestAdiabaticAmplitude:
    def test_starts_at_zero(self):
        assert adiabatic_amplitude(0.05, 0.0) == 0.0

    def test_peak_at_half_time(self):
        om = 0.05
        t_half = resonant_gate_time(om) / 2
        assert adiabatic_amplitude(om, t_half) == pytest.approx(2 * om, abs=1e-12)

    def test_returns_to_zero_at_gate_time(self):
        om = 0.07
        assert adiabatic_amplitude(om, resonant_gate_time(om)) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            adiabatic_amplitude(0.05, -1.0)


class TestDriveSchedule:
    def test_adiabatic_matches_amplitude_function(self):
        s = DriveSchedule.adiabatic(0.05)
        for t in np.linspace(0, s.total_time, 7):
            assert s.amplitude(t) == adiabatic_amplitude(0.05, t)

    def test_amplitude_nonnegative(self):
        s = DriveSchedule.adiabatic(0.08)
        ts = np.linspace(0, s.total_time, 1001)
        assert min(s.amplitude(t) for t in ts) >= 0.0

    def test_repeated_evaluation_is_bit_identical(self):
        s = DriveSchedule.adiabatic(0.03)
        assert all(s.amplitude(t) == s.amplitude(t) for t in (0.1, 5.7, 33.3))

    def test_constant(self):
        s = DriveSchedule.constant(0.02, 10.0)
        assert s.amplitude(0.0) == 0.02
        assert s.amplitude(9.9) == 0.02
        assert s.is_constant

    def test_validation(self):
        with pytest.raises(ValueError):
            DriveSchedule("ramp", 0.1, 1.0)
        with pytest.raises(ValueError):
            DriveSchedule.constant(0.1, 0.0)
        with pytest.raises(ValueError):
            DriveSchedule.constant(-0.1, 1.0)
        for value in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"peak amplitude must be finite.*got {value}"):
                DriveSchedule.constant(value, 1.0)
            with pytest.raises(ValueError, match=f"total_time must be finite.*got {value}"):
                DriveSchedule.constant(0.1, value)


class TestPulseArea:
    @pytest.mark.parametrize("om", [0.02, 0.05, 0.1])
    def test_adiabatic_area_condition(self, om):
        assert pulse_area(DriveSchedule.adiabatic(om)) == pytest.approx(
            AREA_TARGET, abs=1e-8
        )

    def test_constant_matched_area(self):
        om = 0.04
        s = DriveSchedule.constant(om, resonant_gate_time(om))
        assert pulse_area(s) == pytest.approx(AREA_TARGET, abs=1e-8)

    def test_zero_amplitude(self):
        assert pulse_area(DriveSchedule.constant(0.0, 5.0)) == 0.0


def test_pulse_area_matches_quadrature():
    # the closed form against adaptive quadrature of A(t)/sqrt(3), on seeded
    # draws of kind, peak and total time, matched or not to the gate time
    rng = np.random.default_rng(20261019)
    for _ in range(150):
        kind = ("constant", "adiabatic")[rng.integers(2)]
        s = DriveSchedule(kind, rng.uniform(0.01, 0.2), rng.uniform(1.0, 400.0))
        want, _ = quad(lambda t: s.amplitude(t) / np.sqrt(3.0), 0.0, s.total_time,
                       epsabs=0.0, epsrel=1e-13, limit=500)
        assert pulse_area(s) == pytest.approx(want, rel=1e-10, abs=0.0)


def test_short_pulse_area_matches_taylor_series():
    # sin^2 pulses far shorter than the gate, x = 2 a T from 1e-6 to 2: the
    # area peak (x - sin x) / (2 a sqrt3) against its Taylor series summed
    # in exact rational arithmetic
    rng = np.random.default_rng(20261020)

    def series_area(peak, total):
        a = np.sqrt(2.0 / 3.0) * peak
        x = Fraction(2.0 * a * total)
        diff = sum(Fraction((-1) ** k, factorial(2 * k + 3)) * x ** (2 * k + 3) for k in range(20))
        return float(Fraction(peak) * diff / Fraction(2.0 * a) / Fraction(np.sqrt(3.0)))

    cases = [(0.001, 0.01), (0.01, 0.01), (0.01, 1.0)]
    for _ in range(100):
        peak = 10.0 ** rng.uniform(-4.0, -0.7)
        x = 10.0 ** rng.uniform(-6.0, np.log10(2.0))
        cases.append((peak, x / (2.0 * np.sqrt(2.0 / 3.0) * peak)))
    for peak, total in cases:
        got = pulse_area(DriveSchedule("adiabatic", peak, total))
        assert got == pytest.approx(series_area(peak, total), rel=1e-13, abs=0.0)
