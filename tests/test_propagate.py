import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from cavityfredkin.hilbert import (
    SparseOperator,
    build_space,
    excitation_of,
    qubit_embedding,
)
from cavityfredkin.model import PhysParams, antisymmetric_drive, full_hamiltonian
from cavityfredkin.propagate import (
    DecayParams,
    DrivenOperator,
    IntegrationError,
    LindbladGenerator,
    _power_apply,
    evolve_density,
    evolve_density_final,
    evolve_state,
    evolve_states,
    evolve_states_final,
    jump_operators,
    population_series,
)
from cavityfredkin.pulses import DriveSchedule, resonant_gate_time


@pytest.fixture(scope="module")
def sector():
    return build_space(fock_cap=2, sector_cap=2)


@pytest.fixture(scope="module")
def tiny():
    # 17 states: enough structure for dense-superoperator oracles
    return build_space(fock_cap=1, sector_cap=1)


def two_level_space():
    return build_space(fock_cap=1, sector_cap=0)  # {|000>|000>, |010>|000>}


def resonant_drive(space, om_max):
    sched = DriveSchedule.adiabatic(om_max)
    return (
        DrivenOperator(
            static=full_hamiltonian(space, PhysParams.resonant(), 0.0, 0.0),
            drive=antisymmetric_drive(space),
            amplitude=sched.amplitude,
        ),
        sched.total_time,
    )


def vectorized_generator(space, h, decay):
    """Full row-major vec(rho) generator L0 + sum of dissipators, built here
    independently of the propagator's own superoperator code."""
    dim = space.dim
    ident = sp.identity(dim, format="csr", dtype=complex)
    hm = h.matrix
    lsup = -1j * (sp.kron(hm, ident) - sp.kron(ident, hm.T))
    for rate, c in jump_operators(space, decay):
        cm = c.matrix
        cdc = cm.conj().T @ cm
        lsup = lsup + rate * (
            sp.kron(cm, cm.conj()) - 0.5 * (sp.kron(cdc, ident) + sp.kron(ident, cdc.T))
        )
    return lsup.tocsr()


def sparse_max(m):
    m = sp.csr_matrix(m)
    return float(np.abs(m.data).max()) if m.nnz else 0.0


class TestEvolveState:
    def test_zero_hamiltonian_is_identity(self, sector):
        psi0 = qubit_embedding(sector, 3)
        traj = evolve_state(SparseOperator.zero(sector), psi0, 5.0)
        assert np.abs(traj.states[-1] - psi0).max() < 1e-14

    def test_two_level_rabi_against_analytic(self):
        space = two_level_space()
        om = 0.3
        h = SparseOperator(
            space, sp.csr_matrix(np.array([[0.0, om], [om, 0.0]], dtype=complex))
        )
        psi0 = np.array([1.0, 0.0], dtype=complex)
        traj = evolve_state(h, psi0, 20.0, dt=0.01)
        p0 = np.abs(traj.states[:, 0]) ** 2
        assert np.abs(p0 - np.cos(om * traj.times) ** 2).max() < 1e-8

    def test_time_dependent_drive_matches_area_formula(self):
        # H(t) = A(t) sigma_x: commuting at all times, so the exact result
        # only depends on the accumulated area
        space = two_level_space()
        zero = SparseOperator.zero(space)
        x = SparseOperator(space, sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)))
        om = 0.05
        sched = DriveSchedule.adiabatic(om)
        h = DrivenOperator(static=zero, drive=x, amplitude=sched.amplitude)
        traj = evolve_state(h, np.array([1.0, 0.0], dtype=complex), sched.total_time, dt=0.01)
        area = np.sqrt(3.0) * np.pi / np.sqrt(2.0)  # integral of the pulse
        assert abs(traj.states[-1][0] - np.cos(area)) < 1e-8

    def test_resonant_population_swap(self, sector):
        h, t_gate = resonant_drive(sector, 0.1)
        traj = evolve_state(h, qubit_embedding(sector, 6), t_gate)
        pops = population_series(traj, [("011", "000")])
        assert pops["|011>|000>"][-1] >= 0.99

    def test_norm_preserved(self, sector):
        h, t_gate = resonant_drive(sector, 0.05)
        traj = evolve_state(h, qubit_embedding(sector, 6), t_gate)
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-6

    def test_trajectory_sampling_contract(self, sector):
        h, t_gate = resonant_drive(sector, 0.05)
        traj = evolve_state(h, qubit_embedding(sector, 0), t_gate)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(t_gate, rel=1e-12)
        assert np.all(np.diff(traj.times) > 0)
        assert len(traj.times) == 500

    def test_rejects_unnormalized_state(self, sector):
        with pytest.raises(ValueError, match="normalized"):
            evolve_state(SparseOperator.zero(sector), np.ones(sector.dim), 1.0)

    def test_rejects_oversized_step(self, sector):
        h = full_hamiltonian(sector, PhysParams.dispersive(), 0.02, -0.02)
        with pytest.raises(ValueError, match="dt"):
            evolve_state(h, qubit_embedding(sector, 0), 1.0, dt=1.0)

    def test_step_halving_convergence(self, sector):
        h, t_gate = resonant_drive(sector, 0.05)
        psi0 = qubit_embedding(sector, 6)
        a = evolve_state(h, psi0, t_gate, dt=0.01).states[-1]
        b = evolve_state(h, psi0, t_gate, dt=0.005).states[-1]
        assert abs(1.0 - abs(np.vdot(a, b)) ** 2) < 1e-7

    def test_matches_matrix_exponential_oracle(self, sector):
        h = full_hamiltonian(sector, PhysParams.dispersive(), 0.02, -0.02)
        psi0 = qubit_embedding(sector, 6)
        t = 50.0
        expected = la.expm(-1j * t * h.toarray()) @ psi0
        got = evolve_state(h, psi0, t, dt=0.01).states[-1]
        assert abs(1.0 - abs(np.vdot(expected, got)) ** 2) < 1e-8
        got_final = evolve_states_final(h, psi0[:, None], t)[:, 0]
        assert abs(1.0 - abs(np.vdot(expected, got_final)) ** 2) < 1e-8

    def test_drift_abort_catches_unresolved_drive(self):
        # amplitude vanishing on the peak-probe grid but violent in between:
        # the dt precondition cannot see it, the drift monitor must
        space = two_level_space()
        zero = SparseOperator.zero(space)
        x = SparseOperator(space, sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)))
        t_final = 40.0
        h = DrivenOperator(
            static=zero,
            drive=x,
            amplitude=lambda t: 10.0 * np.sin(256 * np.pi * t / t_final) ** 2,
        )
        with pytest.raises(IntegrationError, match="norm drift"):
            evolve_state(h, np.array([1.0, 0.0], dtype=complex), t_final, dt=0.05)


class TestEvolveStates:
    def test_stack_matches_single_kets(self, sector):
        h, t_gate = resonant_drive(sector, 0.1)
        kets = np.stack([qubit_embedding(sector, q) for q in (0, 5, 6)], axis=1)
        trajs = evolve_states(h, kets, t_gate, n_samples=40)
        assert len(trajs) == 3
        for j, traj in enumerate(trajs):
            alone = evolve_state(h, kets[:, j], t_gate, n_samples=40)
            assert np.array_equal(traj.times, alone.times)
            assert np.abs(traj.states - alone.states).max() < 1e-13
            assert traj.metadata["n_steps"] == alone.metadata["n_steps"]

    def test_rejects_unnormalized_column(self, sector):
        kets = np.stack([qubit_embedding(sector, 0), 2 * qubit_embedding(sector, 1)], axis=1)
        with pytest.raises(ValueError, match="normalized"):
            evolve_states(SparseOperator.zero(sector), kets, 1.0)

    def test_drift_abort_names_the_column(self):
        space = two_level_space()
        x = SparseOperator(space, sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)))
        t_final = 40.0
        h = DrivenOperator(
            static=SparseOperator.zero(space),
            drive=x,
            amplitude=lambda t: 10.0 * np.sin(256 * np.pi * t / t_final) ** 2,
        )
        with pytest.raises(IntegrationError, match="norm drift"):
            evolve_states(h, np.eye(2, dtype=complex), t_final, dt=0.05)


class TestSectorRestriction:
    def test_sector_and_full_space_trajectories_agree(self, sector):
        full = build_space(fock_cap=2)
        om = 0.1
        t_gate = resonant_gate_time(om)
        finals = {}
        for space in (sector, full):
            # the unrestricted space hosts high-excitation sectors with a
            # larger spectral norm, so it needs the finer step
            h, _ = resonant_drive(space, om)
            traj = evolve_state(h, qubit_embedding(space, 6), t_gate, dt=0.005)
            finals[space.dim] = traj.states[-1]
        # embed the sector result into the full space and compare
        lifted = np.zeros(full.dim, dtype=complex)
        for i, lab in enumerate(sector.basis):
            lifted[full.index_of[lab]] = finals[68][i]
        assert abs(1.0 - abs(np.vdot(lifted, finals[729])) ** 2) < 1e-8


class TestEvolveDensity:
    def test_unitary_limit_matches_state_evolution(self, sector):
        h, t_gate = resonant_drive(sector, 0.1)
        psi0 = qubit_embedding(sector, 6)
        traj_s = evolve_state(h, psi0, t_gate, n_samples=5)
        traj_d = evolve_density(
            h, DecayParams(), np.outer(psi0, psi0.conj()), t_gate, n_samples=5
        )
        outer = np.einsum("ti,tj->tij", traj_s.states, traj_s.states.conj())
        assert np.abs(outer - traj_d.states).max() < 1e-6

    def test_cavity_decay_closed_form(self, tiny):
        kappa, t_final = 0.3, 5.0
        i = tiny.state_index("000", "001")
        rho0 = np.outer(tiny.basis_vector(i), tiny.basis_vector(i))
        traj = evolve_density(
            SparseOperator.zero(tiny), DecayParams(kappa=kappa), rho0, t_final
        )
        pop = traj.states[:, i, i].real
        assert np.abs(pop - np.exp(-kappa * traj.times)).max() < 1e-8

    def test_atomic_branching_closed_form(self, tiny):
        gamma, t_final = 0.4, 6.0
        i = tiny.state_index("0e0", "000")
        rho0 = np.outer(tiny.basis_vector(i), tiny.basis_vector(i))
        traj = evolve_density(
            SparseOperator.zero(tiny), DecayParams(gamma=gamma), rho0, t_final
        )
        target = (1.0 - np.exp(-gamma * traj.times)) / 2.0
        for atoms in ("000", "010"):
            j = tiny.state_index(atoms, "000")
            assert np.abs(traj.states[:, j, j].real - target).max() < 1e-8

    def test_trace_preserved(self, sector):
        h, t_gate = resonant_drive(sector, 0.05)
        psi0 = qubit_embedding(sector, 6)
        decay = DecayParams(kappa=0.005, gamma=0.005)
        traj = evolve_density(h, decay, np.outer(psi0, psi0.conj()), t_gate, n_samples=20)
        traces = np.einsum("tii->t", traj.states).real
        assert np.abs(traces - 1.0).max() < 1e-6

    def test_hermiticity_and_positivity_preserved(self, sector):
        h, t_gate = resonant_drive(sector, 0.1)
        psi0 = qubit_embedding(sector, 6)
        decay = DecayParams(kappa=0.01, gamma=0.01)
        traj = evolve_density(h, decay, np.outer(psi0, psi0.conj()), t_gate, n_samples=5)
        final = traj.states[-1]
        assert np.abs(final - final.conj().T).max() < 1e-8
        assert la.eigvalsh(final).min() >= -1e-6

    def test_generator_linearity(self, tiny):
        rng = np.random.default_rng(3)
        h = full_hamiltonian(tiny, PhysParams.resonant(), 0.05, -0.05)
        decay = DecayParams(kappa=0.02, gamma=0.01)
        dim = tiny.dim
        r1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        r2 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        al, be = 0.3 - 0.2j, 1.1 + 0.7j
        outs = evolve_density_final(h, decay, np.stack([r1, r2, al * r1 + be * r2]), 4.0)
        assert np.abs(al * outs[0] + be * outs[1] - outs[2]).max() < 1e-8

    def test_matches_dense_superoperator_exponential(self, tiny):
        """Independent oracle: expm of the full vectorized generator."""
        h = full_hamiltonian(tiny, PhysParams.resonant(), 0.05, -0.05)
        decay = DecayParams(kappa=0.05, gamma=0.03)
        dim = tiny.dim
        lsup = vectorized_generator(tiny, h, decay).toarray()
        psi0 = qubit_embedding(tiny, 6)
        rho0 = np.outer(psi0, psi0.conj())
        t_final = 3.0
        expected = (la.expm(lsup * t_final) @ rho0.reshape(-1)).reshape(dim, dim)
        got = evolve_density(h, decay, rho0, t_final).states[-1]
        assert np.abs(expected - got).max() < 1e-8

    def test_powered_and_stepped_paths_agree(self, tiny):
        # constant generator: repeated squaring must reproduce the loop
        h = full_hamiltonian(tiny, PhysParams.dispersive(), 0.05, -0.05)
        decay = DecayParams(kappa=0.02, gamma=0.02)
        psi0 = qubit_embedding(tiny, 5)
        rho0 = np.outer(psi0, psi0.conj())
        gen = LindbladGenerator(tiny, h, decay)
        t_final = 8.0
        n_steps = 1 << 10
        powered = gen.evolve(rho0, t_final, n_steps=None, dt=t_final / n_steps)[0]
        stepped = gen.evolve(
            rho0, t_final, dt=t_final / n_steps, sample_steps=[n_steps], n_steps=n_steps
        )[0]
        assert np.abs(powered - stepped).max() < 1e-12

    def test_sector_chains_partition_operator_space(self, tiny):
        h = full_hamiltonian(tiny, PhysParams.resonant(), 0.02, -0.02)
        gen = LindbladGenerator(tiny, h, DecayParams(kappa=0.1, gamma=0.1))
        counts = sum(len(c["idx"]) for c in gen.chains)
        assert counts == tiny.dim**2
        union = np.sort(np.concatenate([c["idx"] for c in gen.chains]))
        assert np.array_equal(union, np.arange(tiny.dim**2))
        # closure: the full generator has no elements between chains
        dim = tiny.dim
        ident = sp.identity(dim, format="csr", dtype=complex)
        lsup = -1j * (sp.kron(h.matrix, ident) - sp.kron(ident, h.matrix.T))
        cvals = np.array([excitation_of(lab) for lab in tiny.basis])
        delta = (cvals[:, None] - cvals[None, :]).reshape(-1)
        coo = lsup.tocoo()
        assert np.all(delta[coo.row] == delta[coo.col])

    def test_trace_drift_abort(self, tiny):
        # a non-Lindblad generator breaks trace conservation: feed the
        # monitor a Hermitian input under a doctored jump list by evolving
        # with dt at the stability edge of a stiff decay
        h = SparseOperator.zero(tiny)
        decay = DecayParams(kappa=60.0)
        i = tiny.state_index("000", "001")
        rho0 = np.outer(tiny.basis_vector(i), tiny.basis_vector(i))
        with pytest.raises(IntegrationError, match="trace drift"):
            evolve_density(h, decay, rho0, 10.0, dt=0.05)


class TestRealChainForm:
    """The delta = 0 chain runs in real Hermitian coordinates."""

    @pytest.mark.parametrize("scheme", ["resonant", "dispersive"])
    def test_basis_unitary_and_generators_real(self, sector, scheme):
        decay = DecayParams(kappa=0.01, gamma=0.02)
        if scheme == "resonant":
            drive_h, _ = resonant_drive(sector, 0.05)
            static, drive = drive_h.static, drive_h.drive
        else:
            static = full_hamiltonian(sector, PhysParams.dispersive(), 0.1, -0.1)
            drive = None
        gen = LindbladGenerator(sector, static, decay, drive, None)
        l0 = vectorized_generator(sector, static, decay)
        zero = DecayParams()
        ld = vectorized_generator(sector, drive, zero) if drive is not None else None
        for chain in gen.chains:
            idx = chain["idx"]
            u = chain["basis"]
            if chain["delta"] != 0:
                assert u is None
                assert sparse_max(chain["l0"] - l0[idx][:, idx]) < 1e-15
                continue
            assert sparse_max(u @ u.conj().T - sp.identity(len(idx))) < 1e-15
            assert chain["l0"].dtype == np.float64
            expect = u @ l0[idx][:, idx] @ u.conj().T
            assert sparse_max(chain["l0"] - expect) < 1e-12 * sparse_max(expect)
            if drive is None:
                assert chain["ld"] is None
            else:
                assert chain["ld"].dtype == np.float64
                expect = u @ ld[idx][:, idx] @ u.conj().T
                assert sparse_max(chain["ld"] - expect) < 1e-12 * sparse_max(expect)

    def test_hermitian_input_has_real_coordinates(self, sector):
        h = full_hamiltonian(sector, PhysParams.dispersive(), 0.1, -0.1)
        gen = LindbladGenerator(sector, h, DecayParams())
        (chain,) = [c for c in gen.chains if c["delta"] == 0]
        rng = np.random.default_rng(5)
        a = rng.standard_normal((sector.dim, sector.dim)) + 1j * rng.standard_normal((sector.dim, sector.dim))
        coords = chain["basis"] @ (a + a.conj().T).reshape(-1)[chain["idx"]]
        assert np.abs(coords.imag).max() < 1e-14

    def test_non_hermitian_generator_raises(self, tiny):
        h = full_hamiltonian(tiny, PhysParams.resonant(), 0.05, -0.05)
        skew = SparseOperator(tiny, h.matrix + sp.triu(h.matrix, k=1))
        with pytest.raises(ValueError, match="Hermiticity"):
            LindbladGenerator(tiny, skew, DecayParams(kappa=0.1))

    def test_dispersive_final_states_match_complex_step_map(self, sector):
        """Real-coordinate powering against the complex RK4 step map of the
        whole vectorized generator, applied n times."""
        from cavityfredkin.channel import _oriented_pairs, _register_indices

        h = full_hamiltonian(sector, PhysParams.dispersive(), 0.1, -0.1)
        decay = DecayParams(kappa=0.01, gamma=0.01)
        reg = _register_indices(sector)
        pairs = _oriented_pairs()
        units = np.zeros((len(pairs), sector.dim, sector.dim), dtype=complex)
        for k, (m, n) in enumerate(pairs):
            units[k, reg[m], reg[n]] = 1.0
        # 256 steps with 16 delta = 0 inputs (32 real columns): one squaring,
        # then 128 direct products
        n_steps, dt = 256, 0.01
        got = evolve_density_final(h, decay, units, n_steps * dt, dt=dt)

        a = (dt * vectorized_generator(sector, h, decay)).tocsr()
        x = units.reshape(len(pairs), -1).T.copy()
        for _ in range(n_steps):
            y = x
            for div in (4.0, 3.0, 2.0, 1.0):
                y = x + (a @ y) / div
            x = y
        expected = x.T.reshape(units.shape)
        assert np.abs(got - expected).max() < 1e-10


class TestAmplitudeEvaluations:
    """The drive is evaluated once per distinct RK4 stage time: 2 n + 1
    values for n steps, shared by every chain and input column."""

    @staticmethod
    def counting(sched):
        calls = []

        def amp(t):
            calls.append(t)
            return sched.amplitude(t)

        return amp, calls

    def test_lindblad_loop(self, tiny):
        sched = DriveSchedule.adiabatic(0.1)
        amp, calls = self.counting(sched)
        static = full_hamiltonian(tiny, PhysParams.resonant(), 0.0, 0.0)
        gen = LindbladGenerator(tiny, static, DecayParams(kappa=0.05), antisymmetric_drive(tiny), amp)
        units = np.zeros((3, tiny.dim, tiny.dim), dtype=complex)
        units[0, 0, 0] = units[1, 1, 1] = units[2, 2, 1] = 1.0
        n_steps = 50
        gen.evolve(units, 1.0, sample_steps=[n_steps], n_steps=n_steps)
        assert len(calls) == 2 * n_steps + 1
        assert len(set(calls)) == len(calls)

    def test_state_loop(self, sector):
        sched = DriveSchedule.adiabatic(0.1)
        amp, calls = self.counting(sched)
        h = DrivenOperator(
            static=full_hamiltonian(sector, PhysParams.resonant(), 0.0, 0.0),
            drive=antisymmetric_drive(sector),
            amplitude=amp,
        )
        kets = np.stack([qubit_embedding(sector, q) for q in range(8)], axis=1)
        evolve_states_final(h, kets, 1.0, dt=0.01)
        probes = 257  # peak-amplitude scan of the dt precondition
        assert len(calls) == probes + 2 * 100 + 1


@pytest.mark.parametrize("n", [0, 1, 3, 255, 256, 1000])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_power_apply_matches_matrix_power(n, dtype):
    rng = np.random.default_rng(n)
    d = 40
    if dtype == np.float64:
        step, _ = np.linalg.qr(rng.standard_normal((d, d)))
        x = rng.standard_normal((d, 3))
    else:
        step, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        x = rng.standard_normal((d, 3)) + 1j * rng.standard_normal((d, 3))
    step = 0.999 * step  # spectral radius below 1: powers stay bounded
    got = _power_apply(step, x, n)
    assert got.dtype == dtype
    assert np.abs(got - np.linalg.matrix_power(step, n) @ x).max() < 1e-10


class TestPopulationSeries:
    def test_probabilities_bounded(self, sector):
        h, t_gate = resonant_drive(sector, 0.05)
        traj = evolve_state(h, qubit_embedding(sector, 6), t_gate)
        pops = population_series(traj, ["110", "011", ("010", "010")])
        for series in pops.values():
            assert np.all(series >= 0.0) and np.all(series <= 1.0)

    def test_density_trajectory_population(self, tiny):
        kappa = 0.3
        i = tiny.state_index("000", "001")
        rho0 = np.outer(tiny.basis_vector(i), tiny.basis_vector(i))
        traj = evolve_density(SparseOperator.zero(tiny), DecayParams(kappa=kappa), rho0, 2.0)
        pops = population_series(traj, [("000", "001")])
        assert np.abs(pops["|000>|001>"] - np.exp(-kappa * traj.times)).max() < 1e-8

    def test_unknown_label_raises(self, sector):
        h, t_gate = resonant_drive(sector, 0.1)
        traj = evolve_state(h, qubit_embedding(sector, 0), t_gate, n_samples=3)
        with pytest.raises(KeyError):
            population_series(traj, [("222", "000")])
