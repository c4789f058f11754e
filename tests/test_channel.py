import numpy as np
import pytest
import scipy.linalg as la

from cavityfredkin.channel import (
    QuantumChannel,
    average_fidelity_from_kets,
    average_gate_fidelity,
    fredkin_ideal,
    pauli_tensor_basis,
    reconstruct_channel,
    scheme_hamiltonian,
)
from cavityfredkin.hilbert import build_space, qubit_basis_index
from cavityfredkin.model import PhysParams
from cavityfredkin.propagate import (
    DecayParams,
    IntegrationError,
    evolve_density_final,
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
        "resonant",
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
        finals = evolve_states_final(h, kets, 0.0)
        assert np.abs(finals - kets).max() < 1e-14
        unit = np.zeros((sector.dim, sector.dim), dtype=complex)
        unit[reg[3], reg[5]] = 1.0
        out = evolve_density_final(h, DecayParams(kappa=0.01), unit[None], 0.0)[0]
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
        params = PhysParams.resonant()
        sched = DriveSchedule.adiabatic(0.1)
        ch_s = reconstruct_channel(
            "resonant", params, sched, DecayParams(), space=sector, method="state"
        )
        ch_d = reconstruct_channel(
            "resonant", params, sched, DecayParams(), space=sector, method="density"
        )
        assert np.abs(ch_s.images - ch_d.images).max() < 1e-8

    def test_jump_operators_spare_the_register(self, sector):
        # embedded register states host no photons and no |e>: pure decay
        # with no Hamiltonian leaves every matrix unit untouched
        reg = [qubit_basis_index(sector, q) for q in range(8)]
        units = np.zeros((3, sector.dim, sector.dim), dtype=complex)
        for k, (m, n) in enumerate([(0, 0), (3, 5), (6, 6)]):
            units[k, reg[m], reg[n]] = 1.0
        out = evolve_density_final(
            SparseOperator.zero(sector), DecayParams(kappa=0.5, gamma=0.8), units, 50.0
        )
        assert np.abs(out - units).max() < 1e-12

    # the run overflows on purpose; numpy warns before the abort
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blown_up_run_raises(self, sector):
        # kappa dt = 10 lies far outside RK4's stability region; the run
        # used to return fidelity nan with trace_drift 0.0
        with pytest.raises(IntegrationError, match="non-finite output"):
            reconstruct_channel(
                "resonant", PhysParams.resonant(), DriveSchedule.adiabatic(0.1),
                DecayParams(kappa=1000.0), space=sector,
            )

    def test_read_out_propagates_nan(self, sector, monkeypatch):
        import cavityfredkin.channel as channel

        def blown_up(h, decay, units, t, dt):
            # the dark unit |000><000| keeps trace 1, the others turn NaN
            out = units.copy()
            out[1:] = np.nan
            return out

        monkeypatch.setattr(channel, "evolve_density_final", blown_up)
        ch = reconstruct_channel(
            "resonant", PhysParams.resonant(), DriveSchedule.adiabatic(0.1),
            DecayParams(kappa=0.01), space=sector,
        )
        assert np.isnan(ch.metadata["trace_drift"])
        assert np.isnan(ch.metadata["leakage"])

    def test_validation(self, sector):
        with pytest.raises(ValueError, match="scheme"):
            reconstruct_channel(
                "other", PhysParams.resonant(), DriveSchedule.adiabatic(0.05), DecayParams()
            )
        with pytest.raises(ValueError, match="delta"):
            reconstruct_channel(
                "resonant", PhysParams.dispersive(), DriveSchedule.adiabatic(0.05), DecayParams()
            )
        with pytest.raises(ValueError, match="fast path"):
            reconstruct_channel(
                "resonant",
                PhysParams.resonant(),
                DriveSchedule.adiabatic(0.05),
                DecayParams(kappa=0.01),
                method="state",
            )


@pytest.mark.parametrize("scheme", ["resonant", "dispersive"])
def test_lossy_channel_is_mirror_symmetric(sector, scheme):
    """The array's mirror atom 1 <-> atom 3 acts on the register as the swap
    q1 <-> q3 in |q2 q1 q3>, and the channel commutes with it.

    Mirror images such as |000><101| and |000><110| (delta = -1) are powered
    on different closures through 2^15 dispersive steps, which leaves them
    1.1e-12 apart; the resonant images agree to 3e-16."""
    if scheme == "resonant":
        params, sched, tol = PhysParams.resonant(), DriveSchedule.adiabatic(0.1), 1e-12
    else:
        params, tol = PhysParams.dispersive(), 5e-12
        sched = DriveSchedule.constant(0.1, dispersive_gate_time(0.1))
    ch = reconstruct_channel(scheme, params, sched, DecayParams(kappa=0.005, gamma=0.005),
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
                "resonant",
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
            reconstruct_channel("resonant", params, sched, DecayParams(), space=sector, dt=0.005)
        )
        f_full = average_gate_fidelity(
            reconstruct_channel(
                "resonant", params, sched, DecayParams(), space=build_space(2), dt=0.005
            )
        )
        assert abs(f_sector - f_full) < 1e-8
