"""Acceptance suite: every shipped claim at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s to see them live).
The heavy dissipative points take a few minutes each on two cores; the
whole module is sized to finish in roughly a quarter hour.
"""

import time

import numpy as np
import pytest
import scipy.linalg as la

from cavityfredkin.channel import (
    QuantumChannel,
    average_gate_fidelity,
    fredkin_ideal,
    reconstruct_channel,
)
from cavityfredkin.cli import ExperimentConfig, run_experiment
from cavityfredkin.hilbert import build_space, qubit_embedding
from cavityfredkin.model import (
    PhysParams,
    antisymmetric_drive,
    dispersive_block,
    dispersive_eigensystem,
    full_hamiltonian,
    resonant_eigensystem,
)
from cavityfredkin.propagate import (
    DecayParams,
    DrivenOperator,
    evolve_density,
    evolve_density_final,
    evolve_state,
)
from cavityfredkin.pulses import DriveSchedule, dispersive_gate_time, pulse_area

SECTOR = build_space(fock_cap=2, sector_cap=2)

FIG5_DRIVES = (0.02, 0.05, 0.1)


def report(num, ok, desc, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc} ({detail})")
    assert ok, f"criterion {num}: {desc}: {detail}"


def gate_channel(scheme, omega, kappa=0.0, gamma=0.0):
    if scheme == "resonant":
        params = PhysParams.resonant()
        schedule = DriveSchedule.adiabatic(omega)
    else:
        params = PhysParams.dispersive()
        schedule = DriveSchedule.constant(omega, dispersive_gate_time(omega))
    return reconstruct_channel(params, schedule, DecayParams(kappa=kappa, gamma=gamma), space=SECTOR)


@pytest.fixture(scope="module")
def fig4_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig4") / "fig4.csv"
    cfg = ExperimentConfig(
        task="sweep",
        scheme="resonant,dispersive",
        sweep_parameter="Omega_over_g",
        sweep_start=0.02,
        sweep_stop=0.1,
        sweep_points=5,
        output=str(out),
        workers=2,
    )
    return run_experiment(cfg)["rows"]


@pytest.fixture(scope="module")
def fig5_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig5") / "fig5.csv"
    cfg = ExperimentConfig(
        task="sweep",
        scheme="resonant,dispersive",
        Omega_over_g="0.02,0.05,0.1",
        sweep_parameter="kappa_over_g",
        sweep_start=0.0,
        sweep_stop=0.01,
        sweep_points=3,
        gamma_equals_kappa=True,
        output=str(out),
        workers=2,
    )
    return run_experiment(cfg)["rows"]


def test_criterion_1_decay_free_resonant_gate():
    t0 = time.perf_counter()
    ch = gate_channel("resonant", 0.05)
    fid = average_gate_fidelity(ch)
    elapsed = time.perf_counter() - t0
    ok = abs(fid - 0.9998) <= 0.0005 and elapsed < 60.0
    report(1, ok, "decay-free resonant gate",
           f"F = {fid:.6f} vs 0.9998 +/- 0.0005, {elapsed:.1f} s")


def test_criterion_2_decay_free_dispersive_gate():
    t0 = time.perf_counter()
    ch = gate_channel("dispersive", 0.02)
    fid = average_gate_fidelity(ch)
    elapsed = time.perf_counter() - t0
    ok = abs(fid - 0.998) <= 0.0015 and elapsed < 600.0
    report(2, ok, "decay-free dispersive gate",
           f"F = {fid:.6f} vs 0.998 +/- 0.0015, {elapsed:.1f} s")


def test_criterion_3_drive_band_resonant(fig4_rows):
    fids = {r["param"]: r["fidelity"] for r in fig4_rows if r["scheme"] == "resonant"}
    assert sorted(fids) == [0.02, 0.04, 0.06, 0.08, 0.1]
    ok = all(f > 0.99 for f in fids.values())
    report(3, ok, "resonant fidelity band over the drive grid",
           "min F = {:.5f}".format(min(fids.values())))


def test_criterion_4_drive_envelope_dispersive(fig4_rows):
    fids = [r["fidelity"] for r in sorted(
        (r for r in fig4_rows if r["scheme"] == "dispersive"),
        key=lambda r: r["param"],
    )]
    diffs = np.diff(fids)
    non_monotonic = bool((diffs > 0).any() and (diffs < 0).any())
    ok = 0.995 <= max(fids) <= 1.0 and 0.95 <= min(fids) <= 0.97 and non_monotonic
    report(4, ok, "dispersive fidelity envelope over the drive grid",
           f"max {max(fids):.4f}, min {min(fids):.4f}, non-monotonic {non_monotonic}")


def test_criterion_5_decay_endpoints(fig5_rows):
    best = {}
    for scheme in ("resonant", "dispersive"):
        endpoint = [r["fidelity"] for r in fig5_rows
                    if r["scheme"] == scheme and r["param"] == 0.01]
        best[scheme] = max(endpoint)
    ok = best["resonant"] >= 0.95 and best["dispersive"] >= 0.92
    report(5, ok, "fidelity endpoints at kappa = gamma = 0.01 g",
           f"resonant best {best['resonant']:.4f} >= 0.95, "
           f"dispersive best {best['dispersive']:.4f} >= 0.92")


def test_criterion_5b_monotonic_degradation(fig5_rows):
    worst = 0.0
    for scheme in ("resonant", "dispersive"):
        for drive in FIG5_DRIVES:
            fids = [r["fidelity"] for r in sorted(
                (r for r in fig5_rows
                 if r["scheme"] == scheme and r["drive"] == drive),
                key=lambda r: r["param"],
            )]
            assert len(fids) == 3
            worst = max(worst, float(np.diff(fids).max()))
    ok = worst <= 1e-9
    report("5b", ok, "fidelity non-increasing in kappa for every curve",
           f"largest upward step {worst:.2e}")


TORO = {"kappa": 3.5 / 750.0, "gamma": 2.62 / 750.0}
NANO = {"kappa": 4e5 / 2.5e9, "gamma": 1.6e7 / 2.5e9}


@pytest.mark.parametrize(
    "preset,scheme,omega,quoted",
    [
        ("toroidal", "resonant", 0.05, 0.9803),
        ("toroidal", "dispersive", 0.02, 0.9653),
        ("nanocavity", "resonant", 0.05, 0.9798),
        ("nanocavity", "dispersive", 0.02, 0.9806),
    ],
)
def test_criterion_6_experimental_presets(tmp_path, preset, scheme, omega, quoted):
    cfg = ExperimentConfig(
        task="fidelity",
        scheme=scheme,
        Omega_over_g=str(omega),
        preset=preset,
        output=str(tmp_path / f"{preset}_{scheme}.csv"),
    )
    fid = run_experiment(cfg)["fidelity"]
    ok = abs(fid - quoted) <= 0.01
    report(6, ok, f"{preset} preset, {scheme} scheme",
           f"F = {fid:.4f} vs {quoted} +/- 0.01")


@pytest.fixture(scope="module")
def resonant_populations(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig2") / "pops.csv"
    cfg = ExperimentConfig(task="populations", scheme="resonant", output=str(out))
    return run_experiment(cfg)["files"]


def _final_and_peak(files, q_init, col):
    rows = []
    with open(files[q_init]) as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("t_in_invg"):
                continue
            rows.append([float(x) for x in line.split(",")])
    data = np.array(rows)
    return data[-1, 1 + col], data[:, 1 + col].max()


def test_criterion_7_population_swap(resonant_populations):
    swap_final, _ = _final_and_peak(resonant_populations, 6, 5)
    spectators = {}
    for q in (0, 1, 2, 3, 4, 7):
        spectators[q], _ = _final_and_peak(resonant_populations, q, q)
    ok = swap_final >= 0.99 and all(v >= 0.99 for v in spectators.values())
    report(7, ok, "resonant population swap and frozen spectators",
           f"P(|011>) = {swap_final:.4f}; "
           f"min spectator retention {min(spectators.values()):.4f}")


@pytest.fixture(scope="module")
def dispersive_populations(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig3") / "pops.csv"
    cfg = ExperimentConfig(task="populations", scheme="dispersive", output=str(out))
    return run_experiment(cfg)["files"]


def test_criterion_8_dispersive_cycle(dispersive_populations):
    # |001> (q=1) exchanges fully through |100> (q=2) and returns
    ret_001, _ = _final_and_peak(dispersive_populations, 1, 1)
    _, peak_100 = _final_and_peak(dispersive_populations, 1, 2)
    swap_final, _ = _final_and_peak(dispersive_populations, 6, 5)
    ret_101, _ = _final_and_peak(dispersive_populations, 3, 3)
    ret_111, _ = _final_and_peak(dispersive_populations, 7, 7)
    ok = (ret_001 >= 0.98 and peak_100 >= 0.9 and swap_final >= 0.98
          and ret_101 >= 0.99 and ret_111 >= 0.99)
    report(8, ok, "dispersive cycle, swap and frozen double-occupation states",
           f"P(|001>) back {ret_001:.4f} via peak P(|100>) {peak_100:.4f}; "
           f"P(|011>) {swap_final:.4f}; P(|101>) {ret_101:.4f}; "
           f"P(|111>) {ret_111:.4f}")


def test_criterion_9_analytic_oracles():
    g = 1.0
    es = resonant_eigensystem(g)
    s3 = np.sqrt(3.0)
    resonant_ok = np.allclose(
        sorted(es.values), sorted([0.0, -g, g, -s3, s3]), atol=1e-12
    )

    dispersive_ok = True
    for (gg, J, delta) in ((1.0, 1.0, 1.0), (1.0, 0.7, 0.3)):
        esd = dispersive_eigensystem(gg, J, delta)
        block = dispersive_block(gg, J, delta)
        dispersive_ok &= esd.residuals(block).max() < 1e-10 * gg
        dispersive_ok &= np.allclose(
            sorted(esd.values), np.linalg.eigvalsh(block), atol=1e-10 * gg
        )

    area = pulse_area(DriveSchedule.adiabatic(0.05))
    area_ok = abs(area - np.pi / np.sqrt(2.0)) < 1e-8

    u = fredkin_ideal().matrix
    images = np.zeros((8, 8, 8, 8), dtype=complex)
    depol = np.zeros((8, 8, 8, 8), dtype=complex)
    for m in range(8):
        depol[m, m] = np.eye(8) / 8.0
        for n in range(8):
            e = np.zeros((8, 8))
            e[m, n] = 1.0
            images[m, n] = u @ e @ u.conj().T
    f_ideal = average_gate_fidelity(QuantumChannel(images=images))
    f_depol = average_gate_fidelity(QuantumChannel(images=depol))
    fidelity_ok = f_ideal == pytest.approx(1.0, abs=1e-13) and f_depol == pytest.approx(
        0.125, abs=1e-13
    )

    ok = resonant_ok and dispersive_ok and area_ok and fidelity_ok
    report(9, ok, "analytic oracles",
           f"eigenvalues {resonant_ok}/{dispersive_ok}, area {area_ok}, "
           f"fidelity endpoints {fidelity_ok}")


def test_criterion_10_property_suite():
    results = {}
    params = PhysParams.resonant()
    sched = DriveSchedule.adiabatic(0.05)
    h = DrivenOperator(
        static=full_hamiltonian(SECTOR, params, 0.0, 0.0),
        drive=antisymmetric_drive(SECTOR),
        amplitude=sched.amplitude,
    )
    psi0 = qubit_embedding(SECTOR, 6)

    traj = evolve_state(h, psi0, sched.total_time)
    results["norm"] = np.abs(np.linalg.norm(traj.states, axis=1) - 1.0).max() < 1e-6

    decay = DecayParams(kappa=0.005, gamma=0.005)
    traj_d = evolve_density(
        h, decay, np.outer(psi0, psi0.conj()), sched.total_time, n_samples=10
    )
    traces = np.einsum("tii->t", traj_d.states).real
    results["trace"] = np.abs(traces - 1.0).max() < 1e-6

    rng = np.random.default_rng(5)
    dim = SECTOR.dim
    r1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    r2 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    al, be = 0.6 - 0.1j, -0.4 + 0.9j
    outs, _ = evolve_density_final(
        h, decay, np.stack([r1, r2, al * r1 + be * r2]), 5.0
    )
    results["linearity"] = np.abs(al * outs[0] + be * outs[1] - outs[2]).max() < 1e-8

    # sector truncation vs the unrestricted space
    full = build_space(fock_cap=2)
    sched_f = DriveSchedule.adiabatic(0.1)
    finals = {}
    for space in (SECTOR, full):
        hh = DrivenOperator(
            static=full_hamiltonian(space, params, 0.0, 0.0),
            drive=antisymmetric_drive(space),
            amplitude=sched_f.amplitude,
        )
        finals[space.dim] = evolve_state(
            hh, qubit_embedding(space, 6), sched_f.total_time, dt=0.005, n_samples=2
        ).states[-1]
    lifted = np.zeros(full.dim, dtype=complex)
    for i, lab in enumerate(SECTOR.basis):
        lifted[full.index_of[lab]] = finals[68][i]
    results["sector"] = abs(1.0 - abs(np.vdot(lifted, finals[729])) ** 2) < 1e-8

    # fixed-step integration against the dense matrix exponential
    hc = full_hamiltonian(SECTOR, PhysParams.dispersive(), 0.02, -0.02)
    t_probe = 50.0
    expected = la.expm(-1j * t_probe * hc.toarray()) @ psi0
    got = evolve_state(hc, psi0, t_probe).states[-1]
    results["expm"] = abs(1.0 - abs(np.vdot(expected, got)) ** 2) < 1e-8

    a = evolve_state(h, psi0, sched.total_time, dt=0.01, n_samples=2).states[-1]
    b = evolve_state(h, psi0, sched.total_time, dt=0.005, n_samples=2).states[-1]
    results["step_halving"] = abs(1.0 - abs(np.vdot(a, b)) ** 2) < 1e-7

    ok = all(results.values())
    report(10, ok, "property suite", ", ".join(f"{k}={v}" for k, v in results.items()))
