"""Tests of the benchmark's output checker: it accepts the independent
reference and rejects slightly wrong results.

Run with ``python3 -m pytest gatebench/test_check.py -q``.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import reference  # noqa: E402

DECAY_FREE = [("resonant", 0.05), ("resonant", 0.1), ("dispersive", 0.05), ("dispersive", 0.1)]


def reference_rows():
    rows = []
    for scheme, drive in DECAY_FREE:
        fid, leak = reference.gate_point(scheme, drive)
        rows.append({"scheme": scheme, "drive": drive, "fidelity": fid, "leakage": leak})
    return rows


def reference_populations(scheme, drive, n_times=60):
    times = np.linspace(0.0, reference.gate_time(scheme, drive), n_times)
    pops = reference.register_populations(reference.evolve_kets(scheme, drive, times))
    # (input, time, output), clipped to [0, 1] as the simulator writes them
    return times, np.clip(pops.transpose(2, 0, 1), 0.0, 1.0)


def test_fidelity_formula_on_known_channels():
    u = reference.fredkin()
    units = np.eye(8)[:, None, :, None] * np.eye(8)[None, :, None, :]  # |m><n|
    ideal = np.einsum("ai,mnij,bj->mnab", u, units, u)
    depolarized = np.einsum("mn,ab->mnab", np.eye(8), np.eye(8) / 8)
    assert reference.pauli_fidelity(ideal) == pytest.approx(1.0, abs=1e-12)
    assert reference.pauli_fidelity(depolarized) == pytest.approx(1 / 8, abs=1e-12)


def test_decay_free_accepts_reference():
    assert checks.check_decay_free(reference_rows()) == []


@pytest.mark.parametrize("column", ["fidelity", "leakage"])
@pytest.mark.parametrize("shift", [1e-3, -1e-3])
def test_decay_free_rejects_shift(column, shift):
    rows = reference_rows()
    rows[2][column] += shift
    problems = checks.check_decay_free(rows)
    assert len(problems) == 1 and column in problems[0]


@pytest.mark.parametrize("scheme, drive", [("resonant", 0.1), ("dispersive", 0.07)])
def test_populations_accept_reference(scheme, drive):
    times, pops = reference_populations(scheme, drive)
    assert checks.check_populations(scheme, drive, times, pops) == []


@pytest.mark.parametrize("scheme, drive", [("resonant", 0.1), ("dispersive", 0.07)])
def test_populations_reject_swapped_columns(scheme, drive):
    times, pops = reference_populations(scheme, drive)
    pops[:, :, [5, 6]] = pops[:, :, [6, 5]]
    problems = checks.check_populations(scheme, drive, times, pops)
    assert any("reference" in p for p in problems)


def test_populations_reject_small_errors():
    times, pops = reference_populations("resonant", 0.1)
    shifted = pops.copy()
    shifted[3, 10:, 3] -= 1e-4
    assert any("reference" in p for p in checks.check_populations("resonant", 0.1, times, shifted))
    over = pops.copy()
    over[0, -1, 0] = 1.0 + 1e-9
    assert any("[0, 1]" in p for p in checks.check_populations("resonant", 0.1, times, over))
    short = times.copy()
    short[-1] *= 0.99
    assert any("gate time" in p for p in checks.check_populations("resonant", 0.1, short, pops))


def test_resonant_spectator_property():
    times, pops = reference_populations("resonant", 0.1)
    pops[2, -1, 2] = 0.95  # the register state |0 1 0> (q = 2) leaks away
    problems = checks.check_populations("resonant", 0.1, times, pops)
    assert any("spectator 2" in p for p in problems)


def lossy_point(fidelity, kappa, preset="", scheme="resonant", drive=0.05):
    gamma = {"toroidal": 2.62 / 750, "nanocavity": 1.6e7 / 2.5e9}.get(preset, kappa)
    return {"scheme": scheme, "drive": drive, "kappa": kappa, "gamma": gamma,
            "preset": preset, "fidelity": fidelity}


def test_lossy_accepts_decreasing_series_and_presets():
    points = [lossy_point(0.985, 0.008), lossy_point(0.97, 0.012),
              lossy_point(0.9803, 3.5 / 750, "toroidal"),
              lossy_point(0.9806, 4e5 / 2.5e9, "nanocavity", "dispersive", 0.02)]
    assert checks.check_lossy(points) == [[], [], [], []]


def test_lossy_rejects_rise_in_kappa():
    points = [lossy_point(0.97, 0.008), lossy_point(0.971, 0.012)]
    problems = checks.check_lossy(points)
    assert problems[0] == [] and "rises" in problems[1][0]


def test_lossy_rejects_point_above_decay_free_reference():
    ref, _ = reference.gate_point("resonant", 0.05)
    problems = checks.check_lossy([lossy_point(ref + 1e-3, 0.01)])
    assert any("above" in p for p in problems[0])


@pytest.mark.parametrize("offset", [0.011, -0.011])
def test_lossy_rejects_preset_off_paper(offset):
    problems = checks.check_lossy([lossy_point(0.9653 + offset, 3.5 / 750, "toroidal",
                                               "dispersive", 0.02)])
    assert any("paper" in p for p in problems[0])


def test_choi_accepts_physical_and_rejects_transpose():
    kets = reference.final_kets("resonant", 0.05)
    assert checks.check_choi(reference.channel_images(kets)) == []
    transpose = np.einsum("ma,nb->mnab", np.eye(8), np.eye(8)).transpose(0, 1, 3, 2)
    assert any("eigenvalue" in p for p in checks.check_choi(transpose))


def test_read_csv(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("# cavityfredkin 0.1.0\n# scheme = resonant\n"
                    "param,scheme,drive,fidelity\n0.05,resonant,0.05,nan\n")
    header, rows = checks.read_csv(str(path))
    assert header == ["param", "scheme", "drive", "fidelity"]
    assert rows[0]["scheme"] == "resonant" and np.isnan(rows[0]["fidelity"])
