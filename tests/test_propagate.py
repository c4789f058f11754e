import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

import cavityfredkin.propagate as propagate
from cavityfredkin.hilbert import (
    SparseOperator,
    build_space,
    chiral_parity,
    excitation_of,
    mirror_map,
    qubit_embedding,
)
from cavityfredkin.model import PhysParams, antisymmetric_drive, full_hamiltonian
from cavityfredkin.propagate import (
    DecayParams,
    DrivenOperator,
    IntegrationError,
    LindbladGenerator,
    _amplitude_samples,
    _closure_groups,
    _map_pattern,
    _power_apply,
    _rk4_loop,
    _rk4_map_loop,
    _rk4_map_terms,
    _rk4_taylor_step,
    _spectral_norm,
    check_dt,
    decay_scale,
    evolve_density,
    evolve_density_final,
    evolve_state,
    evolve_states,
    evolve_states_final,
    jump_operators,
    population_series,
)
from cavityfredkin.pulses import DriveSchedule, dispersive_gate_time, resonant_gate_time


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


def expm_density(space, h, decay, rho0, t_final):
    """Independent oracle: expm of the full vectorized generator applied to
    vec(rho0)."""
    lsup = vectorized_generator(space, h, decay).toarray()
    return (la.expm(lsup * t_final) @ rho0.reshape(-1)).reshape(space.dim, space.dim)


def matrix_units(space):
    """The 36 oriented register matrix units that channel reconstruction
    evolves, as a (36, dim, dim) stack."""
    from cavityfredkin.channel import _oriented_pairs
    from cavityfredkin.hilbert import register_indices

    reg = register_indices(space)
    pairs = _oriented_pairs()
    units = np.zeros((len(pairs), space.dim, space.dim), dtype=complex)
    for k, (m, n) in enumerate(pairs):
        units[k, reg[m], reg[n]] = 1.0
    return units


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
        got_final = evolve_states_final(h, psi0[:, None], t)[0][:, 0]
        assert abs(1.0 - abs(np.vdot(expected, got_final)) ** 2) < 1e-8

    @pytest.mark.parametrize("params", [PhysParams.resonant(), PhysParams.dispersive()])
    def test_spectral_norm_is_exact(self, params):
        # 40 steps of power iteration gave 8.5422 against 8.5517 here
        full = build_space(fock_cap=2)
        for op in (full_hamiltonian(full, params, 0.0, 0.0), antisymmetric_drive(full)):
            exact = np.abs(np.linalg.eigvalsh(op.toarray())).max()
            assert abs(_spectral_norm(op) - exact) < 1e-12

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
        h = SparseOperator.zero(sector)
        kets = np.stack([qubit_embedding(sector, 0), 2 * qubit_embedding(sector, 1)], axis=1)
        for entry in (evolve_states, evolve_states_final):
            with pytest.raises(ValueError, match="normalized"):
                entry(h, kets, 1.0)
            # one ket is a (dim, 1) stack, not a (dim,) vector
            with pytest.raises(ValueError, match=r"kets must have shape \(68, n\), got \(68,\)"):
                entry(h, kets[:, 0], 1.0)

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


class TestRunMetadata:
    """Every entry reports its one run: the step used, the step count and
    the final drift of each input."""

    @pytest.mark.parametrize("driven", [False, True], ids=["constant", "driven"])
    @pytest.mark.parametrize("entry", ["evolve_states", "evolve_states_final",
                                       "evolve_densities", "evolve_density_final"])
    def test_steps_and_drift(self, tiny, entry, driven):
        if driven:
            h = resonant_drive(tiny, 0.1)[0]
        else:
            h = full_hamiltonian(tiny, PhysParams.dispersive(), 0.1, -0.1)
        t_final, dt = 1.2345, 0.01
        kets = np.stack([qubit_embedding(tiny, q) for q in (5, 6)], axis=1)
        decay = DecayParams(kappa=0.02, gamma=0.01)
        # trace 1, trace 0 and a non-Hermitian input of trace 1 + 2i
        rhos = np.stack([np.outer(kets[:, 0], kets[:, 0]), np.outer(kets[:, 0], kets[:, 1]),
                         np.outer(kets[:, 1], kets[:, 1]) * (1 + 2j)])
        if entry == "evolve_states":
            trajs = evolve_states(h, kets, t_final, dt, n_samples=7)
            runs = [(t.metadata, abs(np.linalg.norm(t.states[-1]) - 1.0)) for t in trajs]
        elif entry == "evolve_states_final":
            finals, run = evolve_states_final(h, kets, t_final, dt)
            runs = [({**run, "drift": d}, abs(np.linalg.norm(f) - 1.0))
                    for d, f in zip(run["drift"], finals.T)]
        elif entry == "evolve_densities":
            trajs = list(propagate.evolve_densities(h, decay, rhos, t_final, dt, n_samples=7))
            runs = [(t.metadata, abs(np.trace(t.states[-1]) - np.trace(r)))
                    for t, r in zip(trajs, rhos)]
        else:
            finals, run = evolve_density_final(h, decay, rhos, t_final, dt)
            runs = [({**run, "drift": d}, abs(np.trace(f) - np.trace(r)))
                    for d, f, r in zip(run["drift"], finals, rhos)]
        assert len(runs) == (2 if entry.startswith("evolve_states") else 3)
        for meta, drift in runs:
            assert {"dt", "n_steps", "drift"} <= set(meta)
            assert meta["n_steps"] == int(np.ceil(t_final / dt)) == 124
            assert meta["dt"] * meta["n_steps"] == pytest.approx(t_final, rel=1e-12, abs=0)
            assert meta["drift"] == pytest.approx(drift, rel=0, abs=1e-15)
        if entry.endswith("final"):
            assert set(run) == {"dt", "n_steps", "drift"}
        else:
            assert all(set(t.metadata) == {"space", "dt", "n_steps", "drift"} for t in trajs)


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
    @pytest.mark.parametrize("rates", [dict(kappa=np.nan), dict(gamma=np.nan),
                                       dict(kappa=np.inf), dict(gamma=-0.1)])
    def test_decay_rates_must_be_finite_and_nonnegative(self, rates):
        """A NaN rate used to pass the check and run as decay-free."""
        value = next(iter(rates.values()))
        with pytest.raises(ValueError, match=f"finite and >= 0.*{value}"):
            DecayParams(**rates)

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
        outs, _ = evolve_density_final(h, decay, np.stack([r1, r2, al * r1 + be * r2]), 4.0)
        assert np.abs(al * outs[0] + be * outs[1] - outs[2]).max() < 1e-8

    def test_matches_dense_superoperator_exponential(self, tiny):
        """Independent oracle: expm of the full vectorized generator."""
        h = full_hamiltonian(tiny, PhysParams.resonant(), 0.05, -0.05)
        decay = DecayParams(kappa=0.05, gamma=0.03)
        psi0 = qubit_embedding(tiny, 6)
        rho0 = np.outer(psi0, psi0.conj())
        t_final = 3.0
        expected = expm_density(tiny, h, decay, rho0, t_final)
        got = evolve_density(h, decay, rho0, t_final).states[-1]
        assert np.abs(expected - got).max() < 1e-8

    def test_powered_and_stepped_paths_agree(self, tiny):
        # constant generator: repeated squaring must reproduce the loop
        h = full_hamiltonian(tiny, PhysParams.dispersive(), 0.05, -0.05)
        decay = DecayParams(kappa=0.02, gamma=0.02)
        psi0 = qubit_embedding(tiny, 5)
        rho0 = np.outer(psi0, psi0.conj())
        gen = LindbladGenerator(h, decay)
        t_final = 8.0
        n_steps = 1 << 10
        powered = gen.evolve(rho0[None], t_final, n_steps)[0][0, 0]
        stepped = gen.evolve(rho0[None], t_final, n_steps, sample_steps=[n_steps])[0][0, 0]
        assert np.abs(powered - stepped).max() < 1e-12

    def test_sector_chains_partition_operator_space(self, tiny):
        h = full_hamiltonian(tiny, PhysParams.resonant(), 0.02, -0.02)
        gen = LindbladGenerator(h, DecayParams(kappa=0.1, gamma=0.1))
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
        # with dt at the stability edge of a stiff decay.  The entries' dt
        # check rejects this run (dt times the decay scale 180 is 9), so
        # the generator, which has no dt check, runs it directly
        h = SparseOperator.zero(tiny)
        decay = DecayParams(kappa=60.0)
        i = tiny.state_index("000", "001")
        rho0 = np.outer(tiny.basis_vector(i), tiny.basis_vector(i))
        gen = LindbladGenerator(h, decay)
        with pytest.raises(IntegrationError, match="trace drift"):
            gen.evolve(rho0[None], 10.0, 200, sample_steps=range(201))

    def test_trace_drift_abort_on_non_hermitian_input(self, tiny):
        # the trace of every input is checked, not only of Hermitian ones: a
        # Lindblad generator and its RK4 step preserve tr X for any X.  256
        # steps of 0.05 at kappa = 60 leave RK4's stability region, in the
        # sampled and in the powered final-only path alike
        h = SparseOperator.zero(tiny)
        decay = DecayParams(kappa=60.0)
        i, j = tiny.state_index("000", "001"), tiny.state_index("000", "000")
        x = np.zeros((tiny.dim, tiny.dim), dtype=complex)
        x[i, i] = x[j, i] = 1.0
        gen = LindbladGenerator(h, decay)
        with pytest.raises(IntegrationError, match="trace drift"):
            gen.evolve(x[None], 12.8, 256, sample_steps=range(257))
        with pytest.raises(IntegrationError, match="trace drift"):
            gen.evolve(x[None], 12.8, 256)

    # the run overflows on purpose; numpy warns before the abort
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_output_raises(self, tiny):
        # kappa dt = 10: the stepped run overflows to inf and NaN, which
        # must raise instead of passing on as a result
        h, t_gate = resonant_drive(tiny, 0.1)
        i = tiny.state_index("000", "001")
        rho0 = np.outer(tiny.basis_vector(i), tiny.basis_vector(i))
        gen = LindbladGenerator(h, DecayParams(kappa=1000.0))
        message = r"non-finite output in input column 0; .*used 0\.0.*kappa = 1000"
        with pytest.raises(IntegrationError, match=message):
            gen.evolve(rho0[None], t_gate, propagate._step_count(t_gate, 0.01))

    def test_dt_check_bounds_the_decay_rates(self, tiny):
        # three cavities at kappa = 60 with ||a^dag a|| = 1 give the decay
        # scale 180; dt = 0.05 puts 9 outside RK4's real stability interval
        # (2.785), and both density entries reject the run before any step
        h = SparseOperator.zero(tiny)
        decay = DecayParams(kappa=60.0)
        i = tiny.state_index("000", "001")
        rho0 = np.outer(tiny.basis_vector(i), tiny.basis_vector(i))
        message = r"decay scale 180 \(kappa = 60, gamma = 0\); need dt <= 0\.0155"
        with pytest.raises(ValueError, match=message):
            evolve_density(h, decay, rho0, 10.0, dt=0.05)
        with pytest.raises(ValueError, match=message):
            evolve_density_final(h, decay, rho0[None], 10.0, dt=0.05)
        # 0.015 * 180 = 2.7 lies inside
        out, run = evolve_density_final(h, decay, rho0[None], 0.3, dt=0.015)
        assert run["n_steps"] == 20 and np.isfinite(out).all()

    def test_rejects_inputs_of_another_shape(self, tiny):
        # the final-state entry takes an (n, dim, dim) stack only; a single
        # (dim, dim) matrix used to fail inside with "cannot reshape"
        h = SparseOperator.zero(tiny)
        decay = DecayParams(kappa=0.1)
        with pytest.raises(ValueError, match=r"shape \(n, 17, 17\), got \(17, 17\)"):
            evolve_density_final(h, decay, np.eye(tiny.dim), 1.0)
        with pytest.raises(ValueError, match=r"shape \(n, 17, 17\), got \(1, 17\)"):
            evolve_density(h, decay, np.eye(tiny.dim)[0], 1.0)

    @pytest.mark.parametrize("kappa, gamma", [(60.0, 0.0), (0.0, 0.3), (0.004, 0.0123)])
    def test_decay_scale_is_the_generators(self, tiny, kappa, gamma):
        """The dt rule's decay scale comes from the jump operators without
        building the chain structure, and the dt rule reads the same value:
        it takes dt up to 2.785 / scale and rejects dt beyond it."""
        decay = DecayParams(kappa=kappa, gamma=gamma)
        before = propagate._chain_structure.cache_info()
        scale = decay_scale(tiny, decay)
        zero = SparseOperator.zero(tiny)
        check_dt(zero, decay, 1.0, 0.999 * propagate._RK4_REAL_LIMIT / scale)
        with pytest.raises(ValueError, match=f"decay scale {scale:.3g} "):
            check_dt(zero, decay, 1.0, 1.001 * propagate._RK4_REAL_LIMIT / scale)
        assert propagate._chain_structure.cache_info() == before
        direct = sum(rate * float(abs(c.matrix.conj().T @ c.matrix).sum(axis=1).max())
                     for rate, c in jump_operators(tiny, decay))
        assert scale == pytest.approx(direct, rel=1e-15)


class TestRealChainForm:
    """The delta = 0 chain runs in real Hermitian coordinates, the delta != 0
    chains in the chiral gauge where that is real and in vec coordinates
    otherwise, each composed with the mirror rotation."""

    @pytest.mark.parametrize("scheme", ["resonant", "dispersive"])
    def test_basis_unitary_and_generators_real(self, sector, scheme):
        decay = DecayParams(kappa=0.01, gamma=0.02)
        if scheme == "resonant":
            h, _ = resonant_drive(sector, 0.05)
            static, drive = h.static, h.drive
        else:
            h = static = full_hamiltonian(sector, PhysParams.dispersive(), 0.1, -0.1)
            drive = None
        gen = LindbladGenerator(h, decay)
        l0 = vectorized_generator(sector, static, decay)
        zero = DecayParams()
        ld = vectorized_generator(sector, drive, zero) if drive is not None else None
        perm, sign = mirror_map(sector)
        for chain in gen.chains:
            idx = chain["idx"]
            u = chain["basis"]
            dtype = np.float64
            if chain["delta"] == 0:
                assert chain["kind"] == "hermitian"
            else:
                rot, _ = propagate._mirror_sectors(idx, sector.dim, perm, sign, hermitian=False)
                if scheme == "dispersive":
                    # the detuning keeps these chains complex, in the vec
                    # coordinates turned by the mirror rotation
                    assert chain["kind"] == "vec"
                    assert sparse_max(u - rot) == 0.0
                    dtype = np.complex128
                else:
                    # the chiral gauge, a diagonal of fourth roots of unity,
                    # then the mirror rotation
                    assert chain["kind"] == "gauge"
                    phases = rot.T @ u
                    assert sparse_max(phases - sp.diags(phases.diagonal())) < 1e-15
                    assert np.abs(phases.diagonal() - 1j ** np.round(
                        np.angle(phases.diagonal()) / (np.pi / 2))).max() < 1e-15
            assert sparse_max(u @ u.conj().T - sp.identity(len(idx))) < 1e-15
            assert chain["l0"].dtype == dtype
            expect = u @ l0[idx][:, idx] @ u.conj().T
            assert sparse_max(chain["l0"] - expect) < 1e-12 * sparse_max(expect)
            if drive is None:
                assert chain["ld"] is None
            else:
                assert chain["ld"].dtype == dtype
                expect = u @ ld[idx][:, idx] @ u.conj().T
                assert sparse_max(chain["ld"] - expect) < 1e-12 * sparse_max(expect)

    def test_hermitian_input_has_real_coordinates(self, sector):
        h = full_hamiltonian(sector, PhysParams.dispersive(), 0.1, -0.1)
        gen = LindbladGenerator(h, DecayParams())
        (chain,) = [c for c in gen.chains if c["delta"] == 0]
        rng = np.random.default_rng(5)
        a = rng.standard_normal((sector.dim, sector.dim)) + 1j * rng.standard_normal((sector.dim, sector.dim))
        coords = chain["basis"] @ (a + a.conj().T).reshape(-1)[chain["idx"]]
        assert np.abs(coords.imag).max() < 1e-14

    def test_non_hermitian_generator_raises(self, tiny):
        h = full_hamiltonian(tiny, PhysParams.resonant(), 0.05, -0.05)
        skew = SparseOperator(tiny, h.matrix + sp.triu(h.matrix, k=1))
        with pytest.raises(ValueError, match="Hermiticity"):
            LindbladGenerator(skew, DecayParams(kappa=0.1))

    def test_dispersive_final_states_match_complex_step_map(self, sector):
        """Real-coordinate powering against the complex RK4 step map of the
        whole vectorized generator, applied n times."""
        from cavityfredkin.channel import _oriented_pairs

        h = full_hamiltonian(sector, PhysParams.dispersive(), 0.1, -0.1)
        decay = DecayParams(kappa=0.01, gamma=0.01)
        units = matrix_units(sector)
        pairs = _oriented_pairs()
        # 256 steps: binary powering squares each closure's step map 8 times
        n_steps, dt = 256, 0.01
        got, _ = evolve_density_final(h, decay, units, n_steps * dt, dt=dt)

        a = (dt * vectorized_generator(sector, h, decay)).tocsr()
        x = units.reshape(len(pairs), -1).T.copy()
        for _ in range(n_steps):
            y = x
            for div in (4.0, 3.0, 2.0, 1.0):
                y = x + (a @ y) / div
            x = y
        expected = x.T.reshape(units.shape)
        assert np.abs(got - expected).max() < 1e-10


DECAYS = {
    "kappa": DecayParams(kappa=0.02),
    "gamma": DecayParams(gamma=0.02),
    "both": DecayParams(kappa=0.01, gamma=0.02),
}


def lossy_generator(space, path, decay):
    """Stepped path: resonant adiabatic drive; powered path: constant
    dispersive Hamiltonian."""
    if path == "stepped":
        sched = DriveSchedule.adiabatic(0.5)
        static = full_hamiltonian(space, PhysParams.resonant(), 0.0, 0.0)
        h = DrivenOperator(static, antisymmetric_drive(space), sched.amplitude)
        return LindbladGenerator(h, decay), sched.total_time, 400
    h = full_hamiltonian(space, PhysParams.dispersive(), 0.1, -0.1)
    return LindbladGenerator(h, decay), 1.6, 32


def chain_inputs(chain, units):
    """The chain's block of the vectorized stack, in the coordinates the
    chain is propagated in."""
    x = np.ascontiguousarray(chain["basis"] @ units.reshape(len(units), -1).T[chain["idx"]])
    return x.view(np.float64) if chain["l0"].dtype == np.float64 else x


def sector_parts(chain, x):
    """Each column of ``x`` (in the chain's coordinates) split into its parts
    on the +1 and the -1 mirror sector, as the propagator splits it."""
    plus = (chain["sector"] > 0)[:, None]
    return np.concatenate([np.where(plus, x, 0.0), np.where(plus, 0.0, x)], axis=1)


def full_chain_evolve(gen, units, t_final, n_steps, steps):
    """LindbladGenerator.evolve without pruning: every chain propagated
    whole, all columns included, by the generator's own step loop or by
    powering the chain's full step map."""
    dim, n = gen.space.dim, len(units)
    h = t_final / n_steps
    amps = None if gen.is_constant else _amplitude_samples(gen.amplitude, h, n_steps)
    out = [np.zeros((dim * dim, n), dtype=complex) for _ in steps]
    for chain in gen.chains:
        x = chain_inputs(chain, units)
        if gen.is_constant:
            step = _rk4_taylor_step((chain["l0"] * h).tocsr())
            sampled = [_power_apply(step, x, s) for s in steps]
        else:
            stack = sp.vstack([chain["l0"], chain["ld"]], format="csr")
            sampled = _rk4_loop(stack, x, h, n_steps, steps, amps)
        back = chain["basis"].conj().T
        if x.dtype == np.float64:
            sampled = [np.ascontiguousarray(xs).view(complex) for xs in sampled]
        sampled = [back @ xs for xs in sampled]
        for buf, xs in zip(out, sampled):
            buf[chain["idx"]] = xs
    return [v.T.reshape(n, dim, dim) for v in out]


def bfs_closure(matrices, start):
    """Indices reachable from ``start`` along the nonzero entries (j -> i for
    m[i, j] != 0) of any of ``matrices``: a plain graph search."""
    cols = [sp.csc_matrix(m) for m in matrices]
    seen = set(int(i) for i in start)
    todo = list(seen)
    while todo:
        j = todo.pop()
        for m in cols:
            lo, hi = m.indptr[j], m.indptr[j + 1]
            for i, v in zip(m.indices[lo:hi], m.data[lo:hi]):
                if v != 0 and int(i) not in seen:
                    seen.add(int(i))
                    todo.append(int(i))
    return np.array(sorted(seen), dtype=int)


class TestClosurePruning:
    """Each input is propagated only on the closure of its column."""

    @pytest.mark.parametrize("decay", sorted(DECAYS))
    @pytest.mark.parametrize("path", ["stepped", "powered"])
    def test_matches_full_chain_propagation(self, sector, path, decay):
        gen, t_final, n_steps = lossy_generator(sector, path, DECAYS[decay])
        units = matrix_units(sector)
        if path == "stepped":
            steps = [0, n_steps // 2, n_steps]
            got, _ = gen.evolve(units, t_final, sample_steps=steps, n_steps=n_steps)
            expected = full_chain_evolve(gen, units, t_final, n_steps, steps)
            # entries outside a closure are exact zeros, so the pruned loop
            # drops only zero terms of the same sums
            for g, e in zip(got, expected):
                assert np.array_equal(g, e)
        else:
            (got,), _ = gen.evolve(units, t_final, n_steps=n_steps)
            (expected,) = full_chain_evolve(gen, units, t_final, n_steps, [n_steps])
            assert np.abs(got - expected).max() < 1e-12

    def test_power_limit_applies_to_closure_size(self, sector, monkeypatch):
        # constant generator: closures above the limit go to the step loop,
        # the others are still powered
        gen, t_final, n_steps = lossy_generator(sector, "powered", DECAYS["both"])
        units = matrix_units(sector)
        # 100: the mirror-split delta = 1 closures reach 130 indices
        limit = 100
        monkeypatch.setattr(propagate, "_POWER_DIM_LIMIT", limit)
        sizes = {"powered": [], "stepped": []}
        powered = propagate._powered_samples
        loop = propagate._rk4_loop

        def record_powered(step, block, steps):
            sizes["powered"].append(step.shape[0])
            return powered(step, block, steps)

        def record_loop(stack, y, h, n, steps, amps):
            sizes["stepped"].append(stack.shape[0])
            return loop(stack, y, h, n, steps, amps)

        monkeypatch.setattr(propagate, "_powered_samples", record_powered)
        monkeypatch.setattr(propagate, "_rk4_loop", record_loop)
        (got,), _ = gen.evolve(units, t_final, n_steps=n_steps)
        closures = [len(rows) for chain in gen.chains
                    for rows, _ in _closure_groups(
                        chain["l0"], None, sector_parts(chain, chain_inputs(chain, units)))]
        assert sorted(sizes["powered"]) == sorted(d for d in closures if d <= limit)
        assert len(sizes["stepped"]) == 2  # the delta = 0 and delta = 1 chains
        monkeypatch.undo()
        (expected,) = full_chain_evolve(gen, units, t_final, n_steps, [n_steps])
        assert np.abs(got - expected).max() < 1e-12

    @pytest.mark.parametrize("path", ["stepped", "powered"])
    def test_closures_are_invariant_and_minimal(self, sector, path):
        gen, _, _ = lossy_generator(sector, path, DECAYS["both"])
        units = matrix_units(sector)
        for chain in gen.chains:
            l0, ld = chain["l0"], chain["ld"]
            mats = [l0] if ld is None else [l0, ld]
            x = chain_inputs(chain, units)
            grouped = []
            for rows, cols in _closure_groups(l0, ld, x):
                outside = np.setdiff1d(np.arange(len(chain["idx"])), rows)
                for m in mats:
                    assert sparse_max(m[outside][:, rows]) == 0.0
                for c in cols:
                    assert np.array_equal(rows, bfs_closure(mats, np.flatnonzero(x[:, c])))
                grouped.extend(cols)
            assert sorted(grouped) == np.flatnonzero(np.any(x, axis=0)).tolist()

    def test_dark_unit_has_closure_of_size_one(self, sector):
        from cavityfredkin.hilbert import register_indices

        gen, _, _ = lossy_generator(sector, "stepped", DECAYS["both"])
        dark = np.zeros((1, sector.dim, sector.dim), dtype=complex)
        q0 = register_indices(sector)[0]
        assert sector.basis[q0] == sector.basis[sector.state_index("000", "000")]
        dark[0, q0, q0] = 1.0
        (chain,) = [c for c in gen.chains if c["delta"] == 0]
        x = chain_inputs(chain, dark)
        # real part only: the imaginary column of a diagonal unit is zero
        (group,) = _closure_groups(chain["l0"], chain["ld"], x)
        rows, cols = group
        assert len(rows) == 1 and cols.tolist() == [0]

    def test_zero_real_columns_are_not_propagated(self, sector, monkeypatch):
        gen, t_final, n_steps = lossy_generator(sector, "powered", DECAYS["both"])
        units = matrix_units(sector)
        (chain,) = [c for c in gen.chains if c["delta"] == 0]
        in_chain = np.flatnonzero(np.any(units.reshape(len(units), -1)[:, chain["idx"]], axis=1))
        x = chain_inputs(chain, units[in_chain])
        # 16 delta = 0 units: 32 real columns, of which the 8 imaginary
        # columns of the diagonal units are zero
        assert len(in_chain) == 16 and x.shape[1] == 32
        assert np.count_nonzero(np.any(x, axis=0)) == 24
        # split by the mirror q1 <-> q3: the real columns of |m><m| for m in
        # {1, 2, 5, 6} and both columns of |m><n| for m in {1, 2} and n in
        # {5, 6} have a part in each sector (8 + 16 columns); the other 12
        # nonzero columns lie in one sector
        assert np.count_nonzero(np.any(sector_parts(chain, x), axis=0)) == 36
        widths = []
        powered = propagate._powered_samples

        def counting(step, block, steps):
            assert np.all(np.any(block, axis=0))
            if block.dtype == np.float64:
                widths.append(block.shape[1])
            return powered(step, block, steps)

        monkeypatch.setattr(propagate, "_powered_samples", counting)
        gen.evolve(units, t_final, n_steps=n_steps)
        assert sum(widths) == 36


class TestMirrorSectors:
    """Every chain splits into the +1 and -1 sectors of the mirror
    S = U kron U, and each closure lies in one of them."""

    @pytest.mark.parametrize("path", ["stepped", "powered"])
    def test_coordinates_are_mirror_eigenvectors(self, sector, path):
        gen, _, _ = lossy_generator(sector, path, DECAYS["both"])
        assert len(gen.chains) == 5
        perm, usign = mirror_map(sector)
        for chain in gen.chains:
            idx, basis, sign = chain["idx"], chain["basis"], chain["sector"]
            dim, n = sector.dim, len(idx)
            rows, cols = np.divmod(idx, dim)
            image = np.searchsorted(idx, perm[rows] * dim + perm[cols])
            s = sp.csr_matrix((usign[rows] * usign[cols], (image, np.arange(n))), shape=(n, n))
            assert sparse_max(basis @ basis.conj().T - sp.identity(n)) < 1e-15
            assert sparse_max(basis @ s @ basis.conj().T - sp.diags(sign)) < 1e-15
            assert 0 < np.count_nonzero(sign < 0) < n
            # no entry of the generator joins the two sectors
            for m in (chain["l0"], chain["ld"]):
                if m is not None:
                    coo = m.tocoo()
                    assert np.all(sign[coo.row] == sign[coo.col])

    def test_split_halves_the_powered_closures(self, sector, monkeypatch):
        # the lossy_dispersive configuration: before the split the largest
        # closure was 1390 and the summed d^3 of the delta = 0 closures 3.71e9
        h = full_hamiltonian(sector, PhysParams.dispersive(), 0.1, -0.1)
        gen = LindbladGenerator(h, DecayParams(kappa=0.006, gamma=0.006))
        sizes = []
        powered = propagate._powered_samples

        def record(step, block, steps):
            if step.dtype == np.float64:  # the real delta = 0 chain
                sizes.append(step.shape[0])
            return powered(step, block, steps)

        monkeypatch.setattr(propagate, "_powered_samples", record)
        gen.evolve(matrix_units(sector), 0.04, n_steps=4)
        assert max(sizes) == 718
        assert sum(d**3 for d in sizes) <= 5.2e8

    def test_split_cuts_the_complex_powered_closures(self, sector, monkeypatch):
        # the lossy_dispersive configuration: the complex delta != 0 chains
        # are split too; unsplit, their powered closures summed 3.48e7 d^3
        h = full_hamiltonian(sector, PhysParams.dispersive(), 0.1, -0.1)
        gen = LindbladGenerator(h, DecayParams(kappa=0.006, gamma=0.006))
        assert [c["kind"] for c in gen.chains] == ["vec", "vec", "hermitian", "vec", "vec"]
        sizes = []
        powered = propagate._powered_samples

        def record(step, block, steps):
            if step.dtype == np.complex128:
                sizes.append(step.shape[0])
            return powered(step, block, steps)

        monkeypatch.setattr(propagate, "_powered_samples", record)
        gen.evolve(matrix_units(sector), 0.04, n_steps=4)
        assert max(sizes) == 130
        assert sum(d**3 for d in sizes) <= 8.8e6

    def test_asymmetric_generator_keeps_one_sector(self, tiny):
        # Omega_3 = +Omega_1 breaks the mirror: no split, same dynamics
        h = full_hamiltonian(tiny, PhysParams.resonant(), 0.05, 0.05)
        decay = DecayParams(kappa=0.05, gamma=0.03)
        chains = LindbladGenerator(h, decay).chains
        assert len(chains) == 3
        for chain in chains:
            assert np.all(chain["sector"] == 1.0)
        # on the 68-state sector too, with the dispersive detuning
        space = build_space(fock_cap=2, sector_cap=2)
        h_dispersive = full_hamiltonian(space, PhysParams.dispersive(), 0.1, 0.1)
        chains = LindbladGenerator(h_dispersive, decay).chains
        assert len(chains) == 5
        for chain in chains:
            assert np.all(chain["sector"] == 1.0)
        psi0 = qubit_embedding(tiny, 6)
        rho0 = np.outer(psi0, psi0.conj())
        expected = expm_density(tiny, h, decay, rho0, 3.0)
        got = evolve_density(h, decay, rho0, 3.0).states[-1]
        assert np.abs(expected - got).max() < 1e-8


class TestChainStructure:
    """What depends only on the space is built once per space; a generator
    adds the commutators of its Hamiltonian and the rates times the cached
    unit dissipators."""

    @pytest.mark.parametrize("path", ["stepped", "powered"])
    def test_built_once_and_equal_to_a_fresh_build(self, sector, path, monkeypatch):
        calls = {"_dissipator_superop": 0, "_mirror_sectors": 0}
        for name in calls:
            def counting(*args, _f=getattr(propagate, name), _name=name, **kwargs):
                calls[_name] += 1
                return _f(*args, **kwargs)
            monkeypatch.setattr(propagate, name, counting)
        propagate._chain_structure.cache_clear()
        for rate in (0.002, 0.006, 0.01):
            decay = DecayParams(kappa=rate, gamma=rate)
            gen, _, _ = lossy_generator(sector, path, decay)
            # the kappa and gamma units, and one rotation per chain
            assert calls == {"_dissipator_superop": 2, "_mirror_sectors": 5}
            static = gen_static(sector, path)
            l0 = vectorized_generator(sector, static, decay)
            ld = None if gen.is_constant else vectorized_generator(sector, gen.drive, DecayParams())
            for chain in gen.chains:
                idx, u = chain["idx"], chain["basis"]
                for got, full in ((chain["l0"], l0), (chain["ld"], ld)):
                    if full is None:
                        assert got is None
                        continue
                    expect = u @ full[idx][:, idx] @ u.conj().T
                    assert sparse_max(got - expect) <= 1e-15 * sparse_max(expect)
            assert decay_scale(sector, decay) == pytest.approx(6 * rate + 3 * rate, rel=1e-15)


def gen_static(space, path):
    """The static Hamiltonian of :func:`lossy_generator`."""
    if path == "stepped":
        return full_hamiltonian(space, PhysParams.resonant(), 0.0, 0.0)
    return full_hamiltonian(space, PhysParams.dispersive(), 0.1, -0.1)


class TestContentCaches:
    """Closure groups and spectral norms are cached on exact keys."""

    def test_closure_hit_matches_a_fresh_search(self, sector, monkeypatch):
        monkeypatch.setattr(propagate, "_CLOSURES", {})
        units = matrix_units(sector)
        found = []
        for decay in (DecayParams(kappa=0.01), DecayParams(kappa=0.01, gamma=0.01)):
            gen, _, _ = lossy_generator(sector, "powered", decay)
            (chain,) = [c for c in gen.chains if c["delta"] == 0]
            x = sector_parts(chain, chain_inputs(chain, units))
            first = _closure_groups(chain["l0"], None, x)
            # a copy with other values on the same pattern hits the entry
            again = _closure_groups(2.0 * chain["l0"], None, x.copy())
            assert again is first
            fresh = propagate._find_closure_groups(chain["l0"], None, x)
            assert len(first) == len(fresh)
            for (rows, cols), (f_rows, f_cols) in zip(first, fresh):
                assert np.array_equal(rows, f_rows) and np.array_equal(cols, f_cols)
            found.append(first)
        # the kappa-only and the kappa + gamma generator have their own entries
        assert len(propagate._CLOSURES) == 2
        assert [len(r) for r, _ in found[0]] != [len(r) for r, _ in found[1]]

    def test_closure_key_sees_one_entry(self, tiny, monkeypatch):
        monkeypatch.setattr(propagate, "_CLOSURES", {})
        h = full_hamiltonian(tiny, PhysParams.resonant(), 0.05, -0.05)
        m = sp.csr_matrix(h.matrix)
        x = np.zeros((tiny.dim, 1))
        x[0, 0] = 1.0
        base = _closure_groups(m, None, x)
        changed = m.copy()
        changed.data[changed.data != 0] = 0.0  # same stored pattern, no nonzeros
        assert _closure_groups(changed, None, x) is not base
        assert [len(r) for r, _ in _closure_groups(changed, None, x)] == [1]
        moved = x.copy()
        moved[0, 0], moved[1, 0] = 0.0, 1.0
        assert _closure_groups(m, None, moved) is not base
        assert len(propagate._CLOSURES) == 3

    def test_spectral_norm_is_cached_on_content(self, sector, monkeypatch):
        monkeypatch.setattr(propagate, "_NORMS", {})
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        op = full_hamiltonian(sector, PhysParams.dispersive(), 0.1, -0.1)
        first = _spectral_norm(op)
        assert calls
        # an equal, newly built operator: no diagonalization
        calls.clear()
        assert _spectral_norm(full_hamiltonian(sector, PhysParams.dispersive(), 0.1, -0.1)) == first
        assert calls == []
        # one entry changed: a miss
        m = op.matrix.copy()
        m.data[0] += 0.25
        changed = _spectral_norm(SparseOperator(sector, m))
        assert calls
        # the cached values are the uncached norms, exactly
        for o, value in ((op, first), (SparseOperator(sector, m), changed)):
            assert value == propagate._sector_norm(o.matrix.tocsr(), sector.excitations)


class TestAmplitudeEvaluations:
    """The drive is evaluated once per distinct RK4 stage time: 2 n + 1
    values for n steps, shared by every chain and input column.  The drive
    takes arrays, so the evaluated times (the sum of the arrays' sizes) are
    counted, not the calls."""

    @staticmethod
    def counting(sched):
        calls = []

        def amp(t):
            calls.extend(np.ravel(t).tolist())
            return sched.amplitude(t)

        return amp, calls

    def test_lindblad_loop(self, tiny):
        sched = DriveSchedule.adiabatic(0.1)
        amp, calls = self.counting(sched)
        static = full_hamiltonian(tiny, PhysParams.resonant(), 0.0, 0.0)
        gen = LindbladGenerator(DrivenOperator(static, antisymmetric_drive(tiny), amp),
                                DecayParams(kappa=0.05))
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

    def test_one_call_per_scan(self, sector):
        """One call on the 257 probes of the dt check, one on the stage times."""
        sched = DriveSchedule.adiabatic(0.1)
        sizes = []

        def amp(t):
            sizes.append(np.size(t))
            return sched.amplitude(t)

        h = DrivenOperator(static=full_hamiltonian(sector, PhysParams.resonant(), 0.0, 0.0),
                           drive=antisymmetric_drive(sector), amplitude=amp)
        evolve_states_final(h, qubit_embedding(sector, 6)[:, None], 1.0, dt=0.01)
        assert sizes == [257, 2 * 100 + 1]

    @pytest.mark.parametrize("omega", [0.05, 0.1, 0.0123])
    def test_stage_times_match_scalar_accumulation(self, omega):
        """The stage times are bit-identical to a scalar ``t += h`` loop, and
        the vectorized pulse stays within 2 ulp of scalar calls (numpy's
        array sin may round differently from its scalar one)."""
        sched = DriveSchedule.adiabatic(omega)
        n_steps = int(np.ceil(sched.total_time / 0.01))
        h = sched.total_time / n_steps
        want, t = [], 0.0
        for _ in range(n_steps):
            want += [t, t + h / 2]
            t += h
        want.append(t)
        seen = []

        def amp(times):
            seen.append(np.array(times))
            return sched.amplitude(times)

        got = np.array(_amplitude_samples(amp, h, n_steps))
        assert len(seen) == 1 and seen[0].tobytes() == np.array(want).tobytes()
        scalar = np.array([sched.amplitude(t) for t in want])
        assert np.all(np.abs(got - scalar) <= 2 * np.spacing(np.abs(scalar)))

    def test_scalar_result_is_broadcast(self):
        vals = _amplitude_samples(lambda t: 0.25, 0.1, 4)
        assert vals == [0.25] * 9


def rk4_reference(rate, y, h, n_steps, amps, steps):
    """Classical RK4 written out step by step, with ``rate(y, a)`` the
    derivative at drive amplitude a; returns the samples at ``steps``."""
    samples = {0: y}
    for k in range(1, n_steps + 1):
        a1, a2, a3 = amps[2 * k - 2], amps[2 * k - 1], amps[2 * k]
        k1 = rate(y, a1)
        k2 = rate(y + (0.5 * h) * k1, a2)
        k3 = rate(y + (0.5 * h) * k2, a2)
        k4 = rate(y + h * k3, a3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        samples[k] = y
    return np.stack([samples[int(s)] for s in steps])


class TestSharedSteppers:
    """Kets and density chains share one powering helper for constant
    drives and one stacked RK4 loop for driven ones."""

    def test_sampled_constant_drive_powers_once_per_gap(self, sector, monkeypatch):
        h = full_hamiltonian(sector, PhysParams.dispersive(), 0.1, -0.1)
        kets = np.stack([qubit_embedding(sector, q) for q in (0, 5, 6)], axis=1)
        t_final, dt, n_samples = 3.0, 0.01, 8
        n_steps = 300
        steps = propagate._sample_steps(n_steps, n_samples)
        gaps = np.diff(steps)
        assert len(set(gaps.tolist())) > 1  # uneven sample gaps
        gaps_powered = []
        matrix_power = np.linalg.matrix_power

        def counting(a, n):
            gaps_powered.append(n)
            return matrix_power(a, n)

        monkeypatch.setattr(np.linalg, "matrix_power", counting)
        trajs = evolve_states(h, kets, t_final, dt=dt, n_samples=n_samples)
        monkeypatch.undo()
        # once per distinct gap in each closure group of the kets
        groups = _closure_groups(h.matrix, None, kets)
        assert len(groups) > 1
        assert sorted(gaps_powered) == sorted(list(set(gaps.tolist())) * len(groups))

        hm = h.matrix
        expected = rk4_reference(lambda y, a: -1j * (hm @ y), kets.astype(complex),
                                 t_final / n_steps, n_steps, np.zeros(2 * n_steps + 1), steps)
        for j, traj in enumerate(trajs):
            assert traj.metadata["n_steps"] == n_steps
            assert np.abs(traj.states - expected[:, :, j]).max() <= 1e-11

    def test_driven_ket_loop_matches_two_product_stages(self, sector, monkeypatch):
        h, t_gate = resonant_drive(sector, 0.1)
        block = TestChiralGauge.ket_block(monkeypatch, h, sector)
        kets = np.stack([qubit_embedding(sector, q) for q in range(8)], axis=1)
        x = np.ascontiguousarray(block["basis"] @ kets).view(np.float64)  # gauged, real
        x = np.ascontiguousarray(x[:, np.any(x, axis=0)])
        n_steps = propagate._step_count(t_gate, propagate.DEFAULT_DT)
        dt = t_gate / n_steps
        amps = _amplitude_samples(h.amplitude, dt, n_steps)
        steps = propagate._sample_steps(n_steps, 40)
        l0, ld = block["l0"], block["ld"]
        got = _rk4_loop(sp.vstack([l0, ld], format="csr"), x, dt, n_steps, steps, amps)
        expected = rk4_reference(lambda y, a: l0 @ y + a * (ld @ y), x, dt, n_steps, amps, steps)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("delta", [0, 1])
    def test_driven_chain_loop_matches_two_product_stages(self, sector, delta):
        gen, t_final, n_steps = lossy_generator(sector, "stepped", DECAYS["both"])
        (chain,) = [c for c in gen.chains if c["delta"] == delta]
        x = chain_inputs(chain, matrix_units(sector))
        x = np.ascontiguousarray(x[:, np.any(x, axis=0)])
        h = t_final / n_steps
        amps = _amplitude_samples(gen.amplitude, h, n_steps)
        steps = [0, n_steps // 3, n_steps]
        l0, ld = chain["l0"], chain["ld"]
        got = _rk4_loop(sp.vstack([l0, ld], format="csr"), x, h, n_steps, steps, amps)
        expected = rk4_reference(lambda y, a: l0 @ y + a * (ld @ y), x, h, n_steps, amps, steps)
        assert np.array_equal(got, expected)


class TestComposedStepMaps:
    """A small driven system steps with the composed RK4 step map, one
    sparse product per step, instead of four stage products."""

    MONOMIALS = [(p1, p2, p3) for p1 in (0, 1) for p2 in (0, 1, 2) for p3 in (0, 1)]

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_composed_step_matches_stage_step(self, dtype):
        rng = np.random.default_rng(14 if dtype == np.float64 else 15)
        n = 30

        def values(k):
            v = rng.uniform(-1.0, 1.0, k)
            return v + 1j * rng.uniform(-1.0, 1.0, k) if dtype == np.complex128 else v

        a, b = (sp.random(n, n, density=0.15, format="csr", dtype=dtype, random_state=rng,
                          data_rvs=values) for _ in range(2))
        h = 0.1
        x = values(3 * n).reshape(n, 3)
        terms = _rk4_map_terms(a, b, h)
        assert sorted(terms) == self.MONOMIALS
        for _ in range(5):
            amps = rng.uniform(-2.0, 2.0, 3).tolist()
            step = sum(amps[0] ** p1 * amps[1] ** p2 * amps[2] ** p3 * q
                       for (p1, p2, p3), q in terms.items())
            want = _rk4_loop(sp.vstack([a, b], format="csr"), x, h, 1, [1], amps)[0]
            scale = np.abs(want).max()
            assert np.abs(step @ x - want).max() <= 1e-14 * scale
            got = _rk4_map_loop(a, b, _map_pattern(a, b), x, h, 1, [0, 1], amps)
            assert got.dtype == dtype
            assert np.array_equal(got[0], x)
            assert np.abs(got[1] - want).max() <= 1e-14 * scale

    def test_driven_kets_match_stage_reference(self, sector):
        h, t_gate = resonant_drive(sector, 0.1)
        kets = np.stack([qubit_embedding(sector, q) for q in range(8)], axis=1)
        trajs = evolve_states(h, kets, t_gate, n_samples=40)
        n_steps = trajs[0].metadata["n_steps"]
        dt = trajs[0].metadata["dt"]
        h0, hd = h.static.matrix, h.drive.matrix
        expected = rk4_reference(
            lambda y, a: -1j * (h0 @ y + a * (hd @ y)), kets.astype(complex), dt, n_steps,
            _amplitude_samples(h.amplitude, dt, n_steps),
            propagate._sample_steps(n_steps, 40))
        for j, traj in enumerate(trajs):
            assert np.abs(traj.states - expected[:, :, j]).max() < 1e-12
        final, _ = evolve_states_final(h, kets, t_gate)
        assert np.abs(final - expected[-1]).max() < 1e-12

    def test_ket_block_takes_maps_and_lossy_channel_the_stage_loop(self, sector, monkeypatch):
        loops = []
        stage_loop, map_loop = propagate._rk4_loop, propagate._rk4_map_loop

        def record_stages(stack, y, *args):
            loops.append(("stages", stack.nnz))
            return stage_loop(stack, y, *args)

        def record_map(a, b, pattern, *args):
            loops.append(("map", pattern.nnz))
            return map_loop(a, b, pattern, *args)

        monkeypatch.setattr(propagate, "_rk4_loop", record_stages)
        monkeypatch.setattr(propagate, "_rk4_map_loop", record_map)
        h, _ = resonant_drive(sector, 0.05)
        kets = np.stack([qubit_embedding(sector, q) for q in range(8)], axis=1)
        evolve_states_final(h, kets, 1.0)
        assert loops == [("map", 1235)]
        loops.clear()
        static = full_hamiltonian(sector, PhysParams.resonant(), 0.0, 0.0)
        h = DrivenOperator(static, antisymmetric_drive(sector), DriveSchedule.adiabatic(0.05).amplitude)
        gen = LindbladGenerator(h, DecayParams(kappa=0.01, gamma=0.01))
        gen.evolve(matrix_units(sector), 0.04, n_steps=4)
        assert loops == [("stages", 20491)]


class TestKetClosures:
    """A ket stack is one block of the propagation core: each ket evolves
    on its closure under -i H0 and -i Hd."""

    def test_register_ket_closures(self, sector):
        h, _ = resonant_drive(sector, 0.1)
        kets = np.stack([qubit_embedding(sector, q) for q in range(8)], axis=1)
        groups = _closure_groups(h.static.matrix, h.drive.matrix, kets)
        assert [(len(rows), cols.tolist()) for rows, cols in groups] == [
            (22, [7]), (7, [5, 6]), (1, [4]), (29, [3]), (8, [1, 2]), (1, [0])]

    def test_constant_final_kets_match_full_step_map(self, sector):
        om = 0.1
        h = full_hamiltonian(sector, PhysParams.dispersive(), om, -om)
        kets = np.stack([qubit_embedding(sector, q) for q in range(8)], axis=1)
        t_final, dt = dispersive_gate_time(om), 0.01
        n_steps = int(np.ceil(t_final / dt))  # 31416: not a power of two
        step = _rk4_taylor_step((-1j * t_final / n_steps) * h.matrix)
        expected = _power_apply(step, kets.astype(complex), n_steps)  # 68 x 68 map
        got, _ = evolve_states_final(h, kets, t_final, dt=dt)
        assert np.abs(got - expected).max() < 1e-12


class TestChiralGauge:
    """At Delta = 0 every Hamiltonian entry flips the chiral parity
    pi = [atom 1 in e] + [atom 3 in e] + n_2, so the delta != 0 chains and
    the ket block are real in the gauge y -> i^-pi y."""

    @staticmethod
    def flips(space, op):
        m = op.matrix.tocoo()
        pi = chiral_parity(space)
        return np.abs(pi[m.row] - pi[m.col]) == 1

    @pytest.mark.parametrize("sector_cap", [None, 2])
    def test_parity_flips_on_every_entry_at_zero_detuning(self, sector_cap):
        space = build_space(fock_cap=2, sector_cap=sector_cap)
        assert space.dim == (729 if sector_cap is None else 68)
        h0 = full_hamiltonian(space, PhysParams.resonant(), 0.0, 0.0)
        for op in (h0, antisymmetric_drive(space)):
            assert op.nnz > 0 and np.all(self.flips(space, op))
        h = full_hamiltonian(space, PhysParams.dispersive(), 0.1, -0.1)
        assert not np.all(self.flips(space, h))

    def test_parity_is_mirror_invariant(self, sector):
        perm, _ = mirror_map(sector)
        pi = chiral_parity(sector)
        assert np.array_equal(pi[perm], pi)

    @staticmethod
    def ket_block(monkeypatch, h, space):
        blocks = []
        core = propagate._propagate

        def record(b, *args):
            blocks.extend(b)
            return core(b, *args)

        monkeypatch.setattr(propagate, "_propagate", record)
        kets = np.stack([qubit_embedding(space, q) for q in range(8)], axis=1)
        evolve_states_final(h, kets, 1.0, dt=0.01)
        (block,) = blocks
        return block

    def test_resonant_ket_block_is_gauged_and_dispersive_is_not(self, sector, monkeypatch):
        h, _ = resonant_drive(sector, 0.05)
        block = self.ket_block(monkeypatch, h, sector)
        phase = 1j ** chiral_parity(sector)
        assert sparse_max(block["basis"] - sp.diags(phase.conj())) < 1e-15
        assert sparse_max(block["back"] - sp.diags(phase)) < 1e-15
        assert np.all(block["sector"] == 1.0)
        u = block["basis"]
        for got, op in ((block["l0"], h.static), (block["ld"], h.drive)):
            assert got.dtype == np.float64
            assert sparse_max(got - u @ (-1j * op.matrix) @ u.conj().T) == 0.0
        # the detuning's imaginary diagonal keeps the dispersive block
        # complex, in vec coordinates
        monkeypatch.undo()
        h = full_hamiltonian(sector, PhysParams.dispersive(), 0.1, -0.1)
        block = self.ket_block(monkeypatch, h, sector)
        assert block["kind"] == "vec"
        assert sparse_max(block["basis"] - sp.identity(sector.dim)) == 0.0
        assert block["l0"].dtype == np.complex128

    def test_lossy_resonant_channel_steps_in_one_real_loop(self, sector, monkeypatch):
        # the lossy_resonant configuration: one float64 system for all
        # chains, one sparse product per RK4 stage (3 loops before the gauge)
        sched = DriveSchedule.adiabatic(0.05)
        static = full_hamiltonian(sector, PhysParams.resonant(), 0.0, 0.0)
        gen = LindbladGenerator(DrivenOperator(static, antisymmetric_drive(sector), sched.amplitude),
                                DecayParams(kappa=0.01, gamma=0.01))
        loops = []
        loop = propagate._rk4_loop

        def record(stack, y, h, n, steps, amps):
            loops.append((stack.dtype, y.shape[0], stack.nnz, n))
            return loop(stack, y, h, n, steps, amps)

        monkeypatch.setattr(propagate, "_rk4_loop", record)
        n_steps = 4  # the closures, and so the system, do not depend on it
        gen.evolve(matrix_units(sector), 0.04, n_steps=n_steps)
        assert loops == [(np.float64, 3526, 20491, n_steps)]
        assert all(c["l0"].dtype == c["ld"].dtype == np.float64 for c in gen.chains)


@pytest.mark.parametrize("n", [0, 1, 3, 16, 255, 256, 1000])
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
    if n & (n - 1) == 0:
        # a power of two: plain binary powering does matrix_power's squarings
        assert np.array_equal(got, np.linalg.matrix_power(step, n) @ x)


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
