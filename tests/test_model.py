import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp

from cavityfredkin.hilbert import SparseOperator, atom_transition, build_space, cavity_lowering
from cavityfredkin.model import (
    DISPERSIVE_BLOCK_LABELS,
    EFFECTIVE_RESONANT_LABELS,
    PhysParams,
    antisymmetric_drive,
    collective_states,
    dark_state,
    detuning_term,
    dispersive_block,
    dispersive_eigensystem,
    drive_terms,
    effective_dispersive,
    effective_resonant,
    full_hamiltonian,
    hopping_terms,
    jc_terms,
    resonant_block,
    resonant_block_indices,
    resonant_eigensystem,
    second_order_drive_coupling,
    zeno_hamiltonian,
    zeno_split,
)


@pytest.fixture(scope="module")
def space():
    return build_space(fock_cap=2, sector_cap=2)


class TestPhysParams:
    def test_rejects_nonpositive_g(self):
        with pytest.raises(ValueError):
            PhysParams(g=0.0)

    @pytest.mark.parametrize("name", ["g", "J", "delta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_values(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite.*got {value}"):
            PhysParams(**{name: value})

    def test_scheme_shortcuts(self):
        assert PhysParams.resonant().delta == 0.0
        assert PhysParams.dispersive().delta == 1.0
        assert PhysParams.dispersive().J == 1.0


class TestFullHamiltonian:
    def test_hermitian(self, space):
        for params in (PhysParams.resonant(), PhysParams.dispersive()):
            assert full_hamiltonian(space, params, 0.03, -0.07).is_hermitian()

    def test_each_term_vanishes_with_its_coupling(self, space):
        assert drive_terms(space, 0.0, 0.0).nnz == 0
        assert hopping_terms(space, 0.0).nnz == 0
        assert jc_terms(space, 0.0).nnz == 0
        assert detuning_term(space, 0.0).nnz == 0

    def test_annihilates_dark_state(self, space):
        h = full_hamiltonian(space, PhysParams.resonant(), 0.0, 0.0)
        assert np.linalg.norm(h @ dark_state(space)) < 1e-12

    def test_drive_matrix_element(self, space):
        h = full_hamiltonian(space, PhysParams.resonant(), 0.3, 0.7)
        i = space.state_index("011", "000")
        j = space.state_index("01e", "000")
        assert h.toarray()[i, j] == pytest.approx(0.7)

    def test_antisymmetric_drive_sign_convention(self, space):
        d = drive_terms(space, 1.0, -1.0)
        assert np.abs((d - antisymmetric_drive(space)).toarray()).max() == 0.0


def term_by_term(space, omega1, omega3, J, g, delta):
    """The Hamiltonian summed term by term from the elementary operators:
    each drive, hop, exchange and detuning added on its own."""
    h = SparseOperator.zero(space)
    for i, om in ((1, omega1), (3, omega3)):
        s = atom_transition(space, i, 1, 2)
        h = h + om * (s + s.dag())
    for k in (1, 2):
        hop = cavity_lowering(space, k).dag() @ cavity_lowering(space, k + 1)
        h = h + J * (hop + hop.dag())
    for i in (1, 2, 3):
        jc = atom_transition(space, i, 0, 2) @ cavity_lowering(space, i)
        h = h + g * (jc + jc.dag())
    for i in (1, 2, 3):
        h = h + delta * atom_transition(space, i, 2, 2)
    return h


class TestUnitTerms:
    """The Hamiltonian is weighted from unit terms built once per space."""

    @pytest.mark.parametrize("caps", [(2, 2), (1, 1), (2, None)])
    def test_bit_identical_to_term_by_term_sum(self, caps):
        space = build_space(*caps)
        rng = np.random.default_rng(20261019)
        for _ in range(8):
            omega1, omega3, J, g, delta = rng.standard_normal(5)
            J, g, delta = abs(J), abs(g) + 0.1, abs(delta)
            got = full_hamiltonian(space, PhysParams(g=g, J=J, delta=delta), omega1, omega3)
            want = term_by_term(space, omega1, omega3, J, g, delta)
            assert got.toarray().tobytes() == want.toarray().tobytes()
            assert got.nnz == want.nnz

    def test_returned_operators_are_fresh(self, space):
        params = PhysParams.dispersive()
        want = full_hamiltonian(space, params, 0.03, -0.03).toarray()
        for make in (lambda: full_hamiltonian(space, params, 0.03, -0.03),
                     lambda: antisymmetric_drive(space), lambda: jc_terms(space, 1.0)):
            before = make().toarray()
            make().matrix.data[:] = 7.0
            assert np.array_equal(make().toarray(), before)
        assert np.array_equal(full_hamiltonian(space, params, 0.03, -0.03).toarray(), want)


class TestZenoSplit:
    def test_partition_reassembles(self, space):
        params = PhysParams.dispersive()
        h1, h2 = zeno_split(space, params, 0.02, -0.02)
        total = h1 + h2 + detuning_term(space, params.delta)
        full = full_hamiltonian(space, params, 0.02, -0.02)
        assert np.abs((total - full).toarray()).max() < 1e-14

    def test_h1_vanishes_without_drives(self, space):
        h1, _ = zeno_split(space, PhysParams.resonant(), 0.0, 0.0)
        assert h1.nnz == 0

    def test_hopping_matrix_element(self, space):
        _, h2 = zeno_split(space, PhysParams(J=0.8), 0.0, 0.0)
        i = space.state_index("010", "001")
        j = space.state_index("010", "010")
        assert h2.toarray()[i, j] == pytest.approx(0.8)

    def test_h2_annihilates_dark_state(self, space):
        _, h2 = zeno_split(space, PhysParams.resonant(), 0.05, -0.05)
        assert np.linalg.norm(h2 @ dark_state(space)) < 1e-12


class TestZenoHamiltonian:
    def test_projector_completeness(self, space):
        h1, h2 = zeno_split(space, PhysParams.resonant(), 0.04, -0.04)
        z = zeno_hamiltonian(h1, h2)
        total = sum(z.projectors)
        assert np.abs(total - np.eye(space.dim)).max() < 1e-10

    def test_dark_block_reproduces_effective_couplings(self, space):
        om1, om3 = 0.04, -0.04
        h1, h2 = zeno_split(space, PhysParams.resonant(), om1, om3)
        z = zeno_hamiltonian(h1, h2)
        d = dark_state(space)
        v110 = space.basis_vector(space.state_index("110", "000"))
        v011 = space.basis_vector(space.state_index("011", "000"))
        block = z.dark_block.toarray()
        assert d.conj() @ block @ v110 == pytest.approx(om1 / np.sqrt(3), abs=1e-10)
        assert d.conj() @ block @ v011 == pytest.approx(om3 / np.sqrt(3), abs=1e-10)

    def test_no_drive_leaves_pure_eigenprojection(self, space):
        h1, h2 = zeno_split(space, PhysParams.resonant(), 0.0, 0.0)
        z = zeno_hamiltonian(h1, h2)
        expected = sum(e * p for e, p in zip(z.eigenvalues, z.projectors))
        assert np.abs(z.operator.toarray() - expected).max() < 1e-10
        assert np.abs(z.dark_block.toarray()).max() == 0.0

    def test_ambiguous_clustering_rejected(self):
        space2 = build_space(fock_cap=1, sector_cap=0)
        h1 = SparseOperator.zero(space2)
        h2 = SparseOperator(space2, sp.diags([0.0, 5e-8]).tocsr())
        with pytest.raises(ValueError, match="ambiguous"):
            zeno_hamiltonian(h1, h2)

    def test_non_hermitian_rejected(self):
        space2 = build_space(fock_cap=1, sector_cap=0)
        m = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            zeno_hamiltonian(SparseOperator.zero(space2), SparseOperator(space2, m))


class TestResonantBlock:
    def test_entries(self):
        m = resonant_block(PhysParams.resonant(), 0.3, 0.7)
        assert m[0, 1] == pytest.approx(0.7)
        assert m[5, 6] == pytest.approx(0.3)
        assert np.abs(np.diag(m)).max() == 0.0

    def test_matches_full_hamiltonian_restriction(self, space):
        params = PhysParams.resonant()
        h = full_hamiltonian(space, params, 0.3, 0.7).toarray()
        idx = resonant_block_indices(space)
        assert np.abs(h[np.ix_(idx, idx)] - resonant_block(params, 0.3, 0.7)).max() == 0.0

    def test_block_is_closed(self, space):
        """No matrix element connects the chain to the rest of the space."""
        h = full_hamiltonian(space, PhysParams.resonant(), 0.3, 0.7).toarray()
        idx = resonant_block_indices(space)
        rest = sorted(set(range(space.dim)) - set(idx))
        assert np.abs(h[np.ix_(rest, idx)]).max() == 0.0

    def test_rejects_detuned_params(self):
        with pytest.raises(ValueError):
            resonant_block(PhysParams.dispersive(), 0.1, -0.1)


class TestResonantEigensystem:
    def test_eigenvalues(self):
        g = 1.3
        es = resonant_eigensystem(g)
        s3 = np.sqrt(3.0)
        assert np.allclose(
            sorted(es.values), sorted([0.0, -g, g, -s3 * g, s3 * g]), atol=1e-12 * g
        )

    def test_eigenpairs_satisfy_interior_block(self, space):
        g = 1.0
        es = resonant_eigensystem(g)
        interior = resonant_block(PhysParams.resonant(g), 0.0, 0.0)[1:6, 1:6]
        assert es.residuals(interior).max() < 1e-10 * g

    def test_null_vector_is_dark_state(self):
        es = resonant_eigensystem(1.0)
        pattern = np.array([1.0, 0.0, -1.0, 0.0, 1.0]) / np.sqrt(3.0)
        overlap = abs(pattern @ es.vectors[:, 0])
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal(self):
        es = resonant_eigensystem(2.0)
        gram = es.vectors.conj().T @ es.vectors
        assert np.abs(gram - np.eye(5)).max() < 1e-10

    def test_rejects_mismatched_hopping(self):
        with pytest.raises(ValueError):
            resonant_eigensystem(1.0, J=0.9)


class TestEffectiveResonant:
    def test_matrix_structure(self):
        m = effective_resonant(0.3, -0.5, g=10.0)
        s3 = np.sqrt(3.0)
        assert m[0, 2] == pytest.approx(0.3 / s3)
        assert m[1, 2] == pytest.approx(-0.5 / s3)
        assert np.abs(m - m.T).max() == 0.0
        assert len(EFFECTIVE_RESONANT_LABELS) == 3

    def test_bright_dark_decomposition(self):
        om = 0.05
        m = effective_resonant(om, -om)
        sym = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        bright = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        assert np.linalg.norm(m @ sym) < 1e-15
        assert np.linalg.norm(m @ bright) == pytest.approx(
            np.sqrt(2.0 / 3.0) * om, abs=1e-12
        )

    def test_zero_drive(self):
        assert np.abs(effective_resonant(0.0, 0.0)).max() == 0.0

    def test_warns_outside_zeno_regime(self):
        with pytest.warns(UserWarning):
            effective_resonant(0.3, -0.3)

    def test_pulse_area_swaps_target_states(self):
        # drives Omega_1 = A(t), Omega_3 = -A(t) share one matrix pattern, so
        # the exact propagator is exp(-i * area * pattern);
        # area = integral A dt = sqrt(3) pi / sqrt(2) for the matched pulse
        pattern = effective_resonant(1.0, -1.0, g=10.0)
        area = np.sqrt(3.0) * np.pi / np.sqrt(2.0)
        u = la.expm(-1j * area * pattern)
        final = u @ np.array([1.0, 0.0, 0.0])
        assert abs(final[1]) ** 2 == pytest.approx(1.0, abs=1e-6)

    def test_matches_two_level_rabi_formula(self):
        # the bright state (|110> - |011>)/sqrt(2) Rabi-rotates against |D>
        # at sqrt(2/3) per unit area while the symmetric combination rests
        pattern = effective_resonant(1.0, -1.0, g=10.0)
        lam = np.sqrt(2.0 / 3.0)
        for theta in (0.3, 1.1, 2.7):
            u = la.expm(-1j * theta * pattern)
            final = u @ np.array([1.0, 0.0, 0.0])
            assert abs(final[0]) ** 2 == pytest.approx(
                (0.5 * (1 + np.cos(lam * theta))) ** 2, abs=1e-8
            )
            assert abs(final[1]) ** 2 == pytest.approx(
                (0.5 * (1 - np.cos(lam * theta))) ** 2, abs=1e-8
            )
            assert abs(final[2]) ** 2 == pytest.approx(
                0.5 * np.sin(lam * theta) ** 2, abs=1e-8
            )


class TestDispersiveBlock:
    def test_entries(self):
        m = dispersive_block(1.0, 0.9, 0.5)
        assert m[1, 1] == pytest.approx(-np.sqrt(2) * 0.9)
        assert m[3, 3] == pytest.approx(np.sqrt(2) * 0.9)
        assert m[0, 1] == pytest.approx(1.0)

    def test_zero_coupling_is_diagonal(self):
        m = dispersive_block(0.0, 0.8, 0.4)
        s2 = np.sqrt(2)
        assert np.allclose(
            np.diag(m), [0.4, -s2 * 0.8, 0.4, s2 * 0.8, 0.4, 0.0], atol=1e-14
        )
        assert np.abs(m - np.diag(np.diag(m))).max() == 0.0

    def test_collective_states_orthonormal(self, space):
        c = collective_states(space)
        assert np.abs(c.conj().T @ c - np.eye(6)).max() < 1e-12

    def test_change_of_basis_reproduces_block(self, space):
        params = PhysParams(g=1.0, J=0.9, delta=0.5)
        h = full_hamiltonian(space, params, 0.0, 0.0).toarray()
        c = collective_states(space)
        assert np.abs(c.conj().T @ h @ c - dispersive_block(1.0, 0.9, 0.5)).max() < 1e-12


class TestDispersiveEigensystem:
    def test_frozen_values_at_matched_point(self):
        es = dispersive_eigensystem(1.0, 1.0, 1.0)
        assert es.values[4] == pytest.approx((1 - np.sqrt(5)) / 2, abs=1e-12)
        assert es.values[5] == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-12)
        expected_e1 = 0.5 * (1 - np.sqrt(2) - np.sqrt(7 + 2 * np.sqrt(2)))
        assert es.values[0] == pytest.approx(expected_e1, abs=1e-12)
        assert es.values[0] == pytest.approx(-1.7746, abs=1e-4)

    @pytest.mark.parametrize(
        "g,J,delta", [(1.0, 1.0, 1.0), (1.0, 0.5, 2.0), (0.7, 1.3, 0.0), (2.0, 0.0, 0.0)]
    )
    def test_closed_forms_match_numeric_eigensolve(self, g, J, delta):
        es = dispersive_eigensystem(g, J, delta)
        block = dispersive_block(g, J, delta)
        assert es.residuals(block).max() < 1e-10 * g
        numeric = np.linalg.eigvalsh(block)
        assert np.allclose(sorted(es.values), numeric, atol=1e-10 * g)
        gram = es.vectors.conj().T @ es.vectors
        assert np.abs(gram - np.eye(6)).max() < 1e-10

    def test_uncoupled_cavities_give_threefold_pair(self):
        es = dispersive_eigensystem(1.0, 0.0, 0.0)
        assert np.allclose(sorted(es.values), [-1, -1, -1, 1, 1, 1], atol=1e-12)

    def test_labels(self):
        es = dispersive_eigensystem(1.0, 1.0, 1.0)
        assert es.basis_labels == DISPERSIVE_BLOCK_LABELS


class TestEffectiveDispersive:
    def test_matrices(self):
        h1, h2 = effective_dispersive(0.02, -0.02, 1.0)
        om2 = 0.02**2
        assert np.allclose(h1, [[om2, -om2], [-om2, om2]], atol=1e-15)
        assert np.allclose(h2, [[-om2 / 2, om2 / 2], [om2 / 2, -om2 / 2]], atol=1e-15)

    def test_rejects_unmatched_rates(self):
        with pytest.raises(ValueError):
            effective_dispersive(0.02, -0.02, 1.0, J=0.9)
        with pytest.raises(ValueError):
            effective_dispersive(0.02, -0.02, 1.0, delta=0.5)

    def test_double_manifold_swaps_at_gate_time(self):
        om, g = 0.02, 1.0
        _, h2 = effective_dispersive(om, -om, g)
        t_gate = g * np.pi / om**2
        u = la.expm(-1j * t_gate * h2)
        final = u @ np.array([1.0, 0.0])
        # antisymmetric combination acquires phase e^{i pi}: exact swap
        assert abs(final[1]) ** 2 == pytest.approx(1.0, abs=1e-10)
        assert final[1] == pytest.approx(1.0, abs=1e-10)

    def test_single_manifold_completes_full_cycle(self):
        om, g = 0.02, 1.0
        h1, _ = effective_dispersive(om, -om, g)
        t_gate = g * np.pi / om**2
        u = la.expm(-1j * t_gate * h1)
        final = u @ np.array([1.0, 0.0])
        assert abs(final[0]) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_channel_sum_reproduces_single_manifold(self, space):
        om1, om3 = 0.02, -0.02
        h1, _ = effective_dispersive(om1, om3, 1.0)
        summed = second_order_drive_coupling(space, PhysParams.dispersive(), om1, om3, "single")
        assert np.abs(summed - h1).max() < 1e-10

    def test_channel_sum_matches_double_manifold_up_to_sign(self, space):
        # the double-occupation block carries the opposite overall sign from
        # the perturbative channel sum; populations and the gate action are
        # invariant under H -> -H on an isolated block
        om1, om3 = 0.02, -0.02
        _, h2 = effective_dispersive(om1, om3, 1.0)
        summed = second_order_drive_coupling(space, PhysParams.dispersive(), om1, om3, "double")
        assert np.abs(summed + h2).max() < 1e-10
        assert np.abs(summed - h2).max() > 1e-4 * 0.02**2

    def test_channel_sum_rejects_unknown_manifold(self, space):
        with pytest.raises(ValueError):
            second_order_drive_coupling(space, PhysParams.dispersive(), 0.02, -0.02, "x")


class TestEffectiveModelConsistency:
    """Full-Hamiltonian dynamics against the reduced models."""

    @pytest.mark.parametrize("om_max", [0.01, 0.02])
    def test_zeno_overlap_stays_high(self, space, om_max):
        # the dark-subspace model must track the full evolution of
        # |110>|000> throughout the pulse, not only at the end
        from cavityfredkin.propagate import DrivenOperator, evolve_state
        from cavityfredkin.pulses import DriveSchedule

        sched = DriveSchedule.adiabatic(om_max)
        h = DrivenOperator(
            static=full_hamiltonian(space, PhysParams.resonant(), 0.0, 0.0),
            drive=antisymmetric_drive(space),
            amplitude=sched.amplitude,
        )
        psi0 = space.basis_vector(space.state_index("110", "000"))
        traj = evolve_state(h, psi0, sched.total_time, n_samples=80)

        frame = np.column_stack(
            [
                space.basis_vector(space.state_index("110", "000")),
                space.basis_vector(space.state_index("011", "000")),
                dark_state(space),
            ]
        )
        pattern = effective_resonant(1.0, -1.0, g=10.0)
        k = np.sqrt(2.0 / 3.0) * om_max
        overlaps = []
        for t, psi_full in zip(traj.times, traj.states):
            # sin^2 pulse area up to t, in closed form
            theta = om_max * (t - np.sin(2 * k * t) / (2 * k))
            psi_eff = frame @ (la.expm(-1j * theta * pattern) @ np.array([1.0, 0, 0]))
            overlaps.append(abs(np.vdot(psi_full, psi_eff)) ** 2)
        assert min(overlaps) >= 0.99

    def test_dispersive_populations_track_effective_model(self, space):
        from cavityfredkin.propagate import evolve_state, population_series
        from cavityfredkin.pulses import dispersive_gate_time

        om = 0.02
        t_gate = dispersive_gate_time(om)
        h = full_hamiltonian(space, PhysParams.dispersive(), om, -om)
        rate = om**2  # g = 1

        psi0 = space.basis_vector(space.state_index("001", "000"))
        traj = evolve_state(h, psi0, t_gate, n_samples=200)
        pops = population_series(traj, ["001", "100"])
        assert np.abs(pops["|001>|000>"] - np.cos(rate * traj.times) ** 2).max() < 0.02
        assert np.abs(pops["|100>|000>"] - np.sin(rate * traj.times) ** 2).max() < 0.02

        psi0 = space.basis_vector(space.state_index("110", "000"))
        traj = evolve_state(h, psi0, t_gate, n_samples=200)
        pops = population_series(traj, ["110", "011"])
        assert np.abs(pops["|110>|000>"] - np.cos(rate * traj.times / 2) ** 2).max() < 0.02
        assert np.abs(pops["|011>|000>"] - np.sin(rate * traj.times / 2) ** 2).max() < 0.02

    @pytest.mark.parametrize("atoms", ["101", "111"])
    def test_stark_shifts_cancel_for_double_occupation(self, space, atoms):
        from cavityfredkin.propagate import evolve_state, population_series
        from cavityfredkin.pulses import dispersive_gate_time

        om = 0.02
        h = full_hamiltonian(space, PhysParams.dispersive(), om, -om)
        psi0 = space.basis_vector(space.state_index(atoms, "000"))
        traj = evolve_state(h, psi0, dispersive_gate_time(om), n_samples=50)
        pops = population_series(traj, [atoms])
        assert pops[f"|{atoms}>|000>"].min() >= 0.99
