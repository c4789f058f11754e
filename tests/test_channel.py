import numpy as np
import pytest
import scipy.linalg as la

from cavityfredkin.channel import (
    IdealGate,
    QuantumChannel,
    _oriented_pairs,
    average_fidelity_from_kets,
    average_gate_fidelity,
    fredkin_ideal,
    pauli_tensor_basis,
    reconstruct_channel,
    scheme_hamiltonian,
)
from cavityfredkin.hilbert import build_space, qubit_basis_index, qubit_extraction
from cavityfredkin.model import PhysParams
from cavityfredkin.propagate import (
    DecayParams,
    evolve_density_final,
    evolve_states,
    evolve_states_final,
)
from cavityfredkin.hilbert import SparseOperator
from cavityfredkin.pulses import DriveSchedule, dispersive_gate_time


@pytest.fixture(scope="module")
def sector():
    return build_space(fock_cap=2, sector_cap=2)


def channel_from_images(images):
    return QuantumChannel(images=np.asarray(images, dtype=complex))


def conjugation_channel(u):
    images = np.zeros((8, 8, 8, 8), dtype=complex)
    for m in range(8):
        for n in range(8):
            e = np.zeros((8, 8))
            e[m, n] = 1.0
            images[m, n] = u @ e @ u.conj().T
    return channel_from_images(images)


class TestFredkinIdeal:
    def test_permutation_rows(self):
        u = fredkin_ideal().matrix
        assert np.allclose(u @ np.eye(8)[:, 6], np.eye(8)[:, 5])
        assert np.allclose(u @ np.eye(8)[:, 0], np.eye(8)[:, 0])

    def test_self_inverse_unitary(self):
        u = fredkin_ideal().matrix
        assert np.abs(u @ u - np.eye(8)).max() == 0.0
        assert np.abs(u @ u.conj().T - np.eye(8)).max() == 0.0

    def test_swaps_only_5_and_6(self):
        u = fredkin_ideal().matrix
        diff = np.flatnonzero(np.diag(u) == 0.0)
        assert diff.tolist() == [5, 6]


class TestPauliTensorBasis:
    def test_first_element_is_identity(self):
        basis = pauli_tensor_basis()
        assert np.abs(basis[0] - np.eye(8)).max() == 0.0

    def test_unitary_and_hermitian(self):
        for u in pauli_tensor_basis():
            assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-14
            assert np.abs(u - u.conj().T).max() < 1e-14

    def test_trace_orthogonality(self):
        basis = pauli_tensor_basis()
        gram = np.einsum("iab,jba->ij", basis.conj().transpose(0, 2, 1), basis)
        assert np.abs(gram - 8 * np.eye(64)).max() < 1e-12

    def test_built_once_and_read_only(self):
        basis = pauli_tensor_basis()
        assert pauli_tensor_basis() is basis
        with pytest.raises(ValueError, match="read-only"):
            basis[0, 0, 0] = 2.0


class TestAverageGateFidelity:
    def test_ideal_conjugation_gives_unity(self):
        ch = conjugation_channel(fredkin_ideal().matrix)
        assert average_gate_fidelity(ch) == pytest.approx(1.0, abs=1e-13)

    def test_depolarizing_map(self):
        images = np.zeros((8, 8, 8, 8), dtype=complex)
        for m in range(8):
            images[m, m] = np.eye(8) / 8.0
        assert average_gate_fidelity(channel_from_images(images)) == pytest.approx(
            0.125, abs=1e-14
        )

    def test_identity_map_against_brute_force(self):
        images = np.zeros((8, 8, 8, 8), dtype=complex)
        for m in range(8):
            for n in range(8):
                images[m, n, m, n] = 1.0
        got = average_gate_fidelity(channel_from_images(images))
        # independent oracle: explicit 64-term loop
        u = fredkin_ideal().matrix
        total = 0.0 + 0.0j
        for uj in pauli_tensor_basis():
            total += np.trace(u @ uj.conj().T @ u.conj().T @ uj)
        expected = (total.real + 64.0) / 576.0
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(352.0 / 576.0, abs=1e-12)

    def test_warns_on_imaginary_residue(self):
        images = np.zeros((8, 8, 8, 8), dtype=complex)
        for m in range(8):
            images[m, m] = np.eye(8) / 8.0
        images[0, 0] += 1e-6j * np.eye(8)
        with pytest.warns(UserWarning, match="imaginary"):
            average_gate_fidelity(channel_from_images(images))


@pytest.fixture(scope="module")
def resonant_channel(sector):
    return reconstruct_channel(
        PhysParams.resonant(),
        DriveSchedule.adiabatic(0.05),
        DecayParams(),
        space=sector,
    )


class TestReconstructChannel:
    def test_zero_time_is_identity_map(self, sector):
        h = scheme_hamiltonian(
            sector, PhysParams.resonant(), DriveSchedule.adiabatic(0.05)
        )
        reg = [qubit_basis_index(sector, q) for q in range(8)]
        kets = np.zeros((sector.dim, 8), dtype=complex)
        for q in range(8):
            kets[reg[q], q] = 1.0
        finals, _ = evolve_states_final(h, kets, 0.0)
        assert np.abs(finals - kets).max() < 1e-14
        unit = np.zeros((sector.dim, sector.dim), dtype=complex)
        unit[reg[3], reg[5]] = 1.0
        out = evolve_density_final(h, DecayParams(kappa=0.01), unit[None], 0.0)[0][0]
        assert np.abs(out - unit).max() < 1e-14

    def test_resonant_gate_close_to_ideal(self, resonant_channel):
        fid = average_gate_fidelity(resonant_channel)
        assert fid >= 0.999
        assert resonant_channel.metadata["leakage"] < 1e-4

    def test_choi_matrix_physical(self, resonant_channel):
        choi = resonant_channel.choi_matrix()
        assert la.eigvalsh(choi).min() >= -1e-6
        assert np.trace(choi).real <= 8.0 + 1e-6

    def test_global_phase_invariance(self, resonant_channel):
        m = resonant_channel.metadata["qubit_matrix"]
        f0 = average_fidelity_from_kets(m)
        f1 = average_fidelity_from_kets(np.exp(1j * 0.77) * m)
        assert abs(f0 - f1) < 1e-12
        # the matrix-unit images are outer products: a common ket phase
        # cancels exactly, so the full fidelity is phase-blind as well
        f_images = average_gate_fidelity(resonant_channel)
        phased = QuantumChannel(images=resonant_channel.images * 1.0)
        assert average_gate_fidelity(phased) == pytest.approx(f_images, abs=1e-15)

    def test_cross_formula_consistency(self, resonant_channel):
        f18 = average_gate_fidelity(resonant_channel)
        fpro = average_fidelity_from_kets(resonant_channel.metadata["qubit_matrix"])
        assert abs(f18 - fpro) < 1e-8

    def test_state_and_density_paths_agree(self, sector):
        # without decay the channel takes the ket route; the density route's
        # images come from the master equation on the 36 oriented matrix units
        params = PhysParams.resonant()
        sched = DriveSchedule.adiabatic(0.1)
        ch_s = reconstruct_channel(params, sched, DecayParams(), space=sector)
        assert ch_s.metadata["method"] == "state"
        reg = [qubit_basis_index(sector, q) for q in range(8)]
        pairs = _oriented_pairs()
        units = np.zeros((len(pairs), sector.dim, sector.dim), dtype=complex)
        for k, (m, n) in enumerate(pairs):
            units[k, reg[m], reg[n]] = 1.0
        outs, _ = evolve_density_final(scheme_hamiltonian(sector, params, sched), DecayParams(),
                                       units, sched.total_time)
        m, n = np.array(pairs).T
        assert np.abs(ch_s.images[m, n] - qubit_extraction(sector, outs)).max() < 1e-8

    @pytest.mark.parametrize("decay, method", [
        (DecayParams(), "state"),
        (DecayParams(kappa=0.01), "density"),
        (DecayParams(gamma=0.01), "density"),
    ])
    def test_route_follows_decay_rates(self, sector, decay, method):
        ch = reconstruct_channel(PhysParams.resonant(), DriveSchedule.adiabatic(0.1),
                                 decay, space=sector)
        assert ch.metadata["method"] == method
        assert ("qubit_matrix" in ch.metadata) == (method == "state")

    @pytest.mark.parametrize("decay, dt", [
        pytest.param(DecayParams(), 0.01, id="0.01"),
        pytest.param(DecayParams(), 0.0073, id="0.0073"),
        pytest.param(DecayParams(kappa=0.01, gamma=0.01), 0.0073, id="lossy-0.0073"),
    ])
    def test_metadata_records_the_step_used(self, sector, decay, dt):
        # 76.953 / 0.01 is not whole: the run takes 7696 steps of 0.0099991
        params, sched = PhysParams.resonant(), DriveSchedule.adiabatic(0.05)
        ch = reconstruct_channel(params, sched, decay, space=sector, dt=dt)
        h = scheme_hamiltonian(sector, params, sched)
        if decay.dissipative:
            # one unit of the channel's master-equation run, over its T and dt
            unit = np.zeros((1, sector.dim, sector.dim), dtype=complex)
            _, run = evolve_density_final(h, decay, unit, sched.total_time, dt=dt)
        else:
            kets = np.zeros((sector.dim, 1), dtype=complex)
            kets[qubit_basis_index(sector, 0), 0] = 1.0
            (traj,) = evolve_states(h, kets, sched.total_time, dt=dt)
            run = traj.metadata
        assert ch.metadata["n_steps"] == run["n_steps"] == np.ceil(sched.total_time / dt)
        assert ch.metadata["dt"] == run["dt"]
        assert ch.metadata["dt"] * ch.metadata["n_steps"] == pytest.approx(sched.total_time)

    def test_jump_operators_spare_the_register(self, sector):
        # embedded register states host no photons and no |e>: pure decay
        # with no Hamiltonian leaves every matrix unit untouched
        reg = [qubit_basis_index(sector, q) for q in range(8)]
        units = np.zeros((3, sector.dim, sector.dim), dtype=complex)
        for k, (m, n) in enumerate([(0, 0), (3, 5), (6, 6)]):
            units[k, reg[m], reg[n]] = 1.0
        out, _ = evolve_density_final(
            SparseOperator.zero(sector), DecayParams(kappa=0.5, gamma=0.8), units, 50.0
        )
        assert np.abs(out - units).max() < 1e-12

    def test_blown_up_run_raises(self, sector, monkeypatch):
        # kappa dt = 10 lies far outside RK4's stability region; the run
        # used to return fidelity nan with trace_drift 0.0, then to step the
        # whole gate into inf and NaN before the drift check raised.  The dt
        # check now names the rates before any step, so numpy never warns
        # (the test settings turn a RuntimeWarning into an error)
        import cavityfredkin.propagate as propagate

        def no_step(*args):
            raise AssertionError("the run was stepped")

        monkeypatch.setattr(propagate, "_propagate", no_step)
        with pytest.raises(ValueError, match="kappa = 1000"):
            reconstruct_channel(
                PhysParams.resonant(), DriveSchedule.adiabatic(0.1),
                DecayParams(kappa=1000.0), space=sector,
            )

    def test_read_out_propagates_nan(self, sector, monkeypatch):
        import cavityfredkin.channel as channel

        def blown_up(h, decay, units, t, dt):
            # the dark unit |000><000| keeps trace 1, the others turn NaN
            out = units.copy()
            out[1:] = np.nan
            return out, {"dt": dt, "n_steps": 1, "drift": np.zeros(len(units))}

        monkeypatch.setattr(channel, "evolve_density_final", blown_up)
        ch = reconstruct_channel(
            PhysParams.resonant(), DriveSchedule.adiabatic(0.1),
            DecayParams(kappa=0.01), space=sector,
        )
        assert np.isnan(ch.metadata["trace_drift"])
        assert np.isnan(ch.metadata["leakage"])
        assert np.isnan(ch.metadata["choi_min_eig"])

    def test_density_route_checks_complete_positivity(self, sector, monkeypatch):
        import cavityfredkin.channel as channel

        args = (PhysParams.resonant(), DriveSchedule.adiabatic(0.1), DecayParams(kappa=0.01))
        ch = reconstruct_channel(*args, space=sector)
        value = ch.metadata["choi_min_eig"]
        assert value == np.linalg.eigvalsh(ch.choi_matrix()).min()
        assert value >= -channel.CHOI_TOL
        run = channel.evolve_density_final

        def transposed(h, decay, units, t, dt):
            # eps(X)^T: a positive map that is not completely positive
            outs, meta = run(h, decay, units, t, dt=dt)
            return outs.transpose(0, 2, 1), meta

        monkeypatch.setattr(channel, "evolve_density_final", transposed)
        with pytest.raises(ValueError, match="not completely positive: smallest Choi eigenvalue -"):
            reconstruct_channel(*args, space=sector)

    def test_state_route_is_not_checked(self, resonant_channel):
        assert resonant_channel.metadata["method"] == "state"
        assert "choi_min_eig" not in resonant_channel.metadata


def pauli_einsum_fidelity(images, u):
    """The Pauli sum of average_gate_fidelity as three-operand einsums."""
    basis = pauli_tensor_basis()
    eps_of = np.einsum("jmn,mnab->jab", basis, images)
    rotated = np.einsum("ab,jbc,dc->jad", u, basis.conj().transpose(0, 2, 1), u.conj())
    return (np.einsum("jab,jba->", rotated, eps_of).real + 64.0) / 576.0


@pytest.mark.parametrize("decay", [DecayParams(), DecayParams(kappa=0.01, gamma=0.01)])
def test_fidelity_matches_pauli_einsum(sector, decay):
    """The kernel's dot product agrees with the einsum form, for the
    default ideal (whose kernel is built once) and for another gate."""
    ch = reconstruct_channel(PhysParams.resonant(), DriveSchedule.adiabatic(0.1),
                             decay, space=sector)
    u = fredkin_ideal().matrix
    assert abs(average_gate_fidelity(ch) - pauli_einsum_fidelity(ch.images, u)) < 1e-14
    cz = np.diag([1.0] * 7 + [-1.0])
    assert abs(average_gate_fidelity(ch, IdealGate(cz))
               - pauli_einsum_fidelity(ch.images, cz)) < 1e-14


def test_repeated_run_is_bit_identical(sector):
    """The per-process constants (space, unit terms, fidelity kernel) carry no
    state from one run to the next."""
    args = (PhysParams.resonant(), DriveSchedule.adiabatic(0.1), DecayParams())
    first = reconstruct_channel(*args, space=sector)
    fid = average_gate_fidelity(first)
    reconstruct_channel(PhysParams.dispersive(),
                        DriveSchedule.constant(0.1, dispersive_gate_time(0.1)), DecayParams())
    again = reconstruct_channel(*args, space=build_space(2, 2))
    assert np.array_equal(again.images, first.images)
    assert average_gate_fidelity(again) == fid


@pytest.mark.parametrize("scheme", ["resonant", "dispersive"])
def test_lossy_channel_is_mirror_symmetric(sector, scheme):
    """The array's mirror atom 1 <-> atom 3 acts on the register as the swap
    q1 <-> q3 in |q2 q1 q3>, and the channel commutes with it.

    Every chain is split into mirror sectors, so mirror images such as
    |000><101| and |000><110| (delta = -1) are propagated on the same
    sector closures: they agree to 7e-18 dispersive (31 416 steps) and
    exactly resonant.  Images powered on different closures would be about
    1e-12 apart, which the bound of 1e-15 rejects."""
    tol = 1e-15
    if scheme == "resonant":
        params, sched = PhysParams.resonant(), DriveSchedule.adiabatic(0.1)
    else:
        params = PhysParams.dispersive()
        sched = DriveSchedule.constant(0.1, dispersive_gate_time(0.1))
    ch = reconstruct_channel(params, sched, DecayParams(kappa=0.005, gamma=0.005),
                             space=sector)
    pi = np.array([4 * (q >> 2) + 2 * (q & 1) + ((q >> 1) & 1) for q in range(8)])
    mirrored = ch.images[pi][:, pi][:, :, pi][:, :, :, pi]
    assert np.abs(mirrored - ch.images).max() < tol
    for m in range(8):
        assert np.abs(ch.images[m, m] - ch.images[m, m].conj().T).max() < 1e-12


class TestTruncationConvergence:
    def test_fock_cap_three_matches(self):
        """One decay-free fidelity point on the unrestricted spaces: raising
        the photon cutoff from 2 to 3 must not move the result."""
        fids = {}
        for cap in (2, 3):
            # high-photon sectors raise the spectral norm: step accordingly
            space = build_space(fock_cap=cap)
            ch = reconstruct_channel(
                PhysParams.resonant(),
                DriveSchedule.adiabatic(0.1),
                DecayParams(),
                space=space,
                dt=0.004,
            )
            fids[cap] = average_gate_fidelity(ch)
        assert abs(fids[2] - fids[3]) < 1e-6

    def test_sector_matches_unrestricted(self, sector):
        params = PhysParams.resonant()
        sched = DriveSchedule.adiabatic(0.1)
        f_sector = average_gate_fidelity(
            reconstruct_channel(params, sched, DecayParams(), space=sector, dt=0.005)
        )
        f_full = average_gate_fidelity(
            reconstruct_channel(
                params, sched, DecayParams(), space=build_space(2), dt=0.005
            )
        )
        assert abs(f_sector - f_full) < 1e-8
