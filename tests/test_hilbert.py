import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from cavityfredkin.hilbert import (
    SparseOperator,
    atom_transition,
    build_space,
    cavity_lowering,
    excitation_counter,
    excitation_of,
    mirror_map,
    qubit_basis_index,
    qubit_embedding,
    qubit_extraction,
    register_indices,
    register_label,
)
from cavityfredkin.model import PhysParams, full_hamiltonian
from cavityfredkin.propagate import DecayParams, jump_operators


def brute_force_count(fock_cap, sector_cap):
    """Independent enumeration oracle: count labels straight from the
    excitation-weight definition."""
    count = 0
    for atoms in itertools.product(range(3), repeat=3):
        for photons in itertools.product(range(fock_cap + 1), repeat=3):
            c = (
                sum(photons)
                + (atoms[0] in (1, 2))
                + (atoms[2] in (1, 2))
                + (atoms[1] == 2)
            )
            if sector_cap is None or c <= sector_cap:
                count += 1
    return count


@pytest.fixture(scope="module")
def sector():
    return build_space(fock_cap=2, sector_cap=2)


@pytest.fixture(scope="module")
def full():
    return build_space(fock_cap=2)


class TestBuildSpace:
    def test_unrestricted_dim(self, full):
        assert full.dim == 729

    def test_sector_dim_is_68(self, sector):
        assert sector.dim == 68
        assert sector.dim == brute_force_count(2, 2)

    @pytest.mark.parametrize("fock_cap,sector_cap", [(1, 0), (1, 1), (2, 1), (3, 2)])
    def test_dims_match_enumeration_oracle(self, fock_cap, sector_cap):
        assert build_space(fock_cap, sector_cap).dim == brute_force_count(
            fock_cap, sector_cap
        )

    def test_zero_excitation_subspace(self):
        space = build_space(fock_cap=1, sector_cap=0)
        assert space.dim == 2
        labels = {space.label_str(i) for i in range(2)}
        assert labels == {"|000>|000>", "|010>|000>"}

    @pytest.mark.parametrize("fock_cap", [1, 2, 3])
    def test_unrestricted_dim_formula(self, fock_cap):
        assert build_space(fock_cap).dim == 27 * (fock_cap + 1) ** 3

    def test_rejects_zero_fock_cap(self):
        with pytest.raises(ValueError):
            build_space(0)

    def test_built_once_per_argument_pair(self, sector):
        assert build_space(2, 2) is sector
        assert build_space(fock_cap=2, sector_cap=2) is sector
        assert build_space(2) is not sector
        assert build_space(2, None) is build_space(2)

    def test_index_map_is_bijection(self, sector):
        assert sorted(sector.index_of.values()) == list(range(sector.dim))
        for lab, i in sector.index_of.items():
            assert sector.basis[i] == lab


class TestCavityLowering:
    def test_single_photon_annihilation(self, sector):
        a2 = cavity_lowering(sector, 2)
        src = sector.state_index("010", "010")
        dst = sector.state_index("010", "000")
        col = a2.toarray()[:, src]
        assert col[dst] == pytest.approx(1.0)
        assert np.count_nonzero(col) == 1

    def test_vacuum_annihilates(self, sector):
        a1 = cavity_lowering(sector, 1)
        vac = qubit_embedding(sector, 0)
        assert np.linalg.norm(a1 @ vac) == 0.0

    def test_invalid_index(self, sector):
        with pytest.raises(ValueError):
            cavity_lowering(sector, 4)

    def test_commutator_is_identity_below_truncation(self, full):
        # [a, a^dag] = 1 except on the n_k = fock_cap boundary rows, where
        # the dropped raising element leaves -fock_cap on the diagonal
        a1 = cavity_lowering(full, 1)
        comm = (a1 @ a1.dag() - a1.dag() @ a1).toarray()
        assert np.abs(comm - np.diag(np.diag(comm))).max() < 1e-14
        for i, lab in enumerate(full.basis):
            expected = 1.0 if lab[3] < full.fock_cap else -float(full.fock_cap)
            assert comm[i, i] == pytest.approx(expected)


class TestAtomTransition:
    def test_drives_one_to_excited(self, sector):
        s = atom_transition(sector, 1, 1, "e")
        src = sector.state_index("110", "000")
        dst = sector.state_index("e10", "000")
        assert s.toarray()[dst, src] == pytest.approx(1.0)

    def test_annihilates_wrong_level(self, sector):
        s = atom_transition(sector, 1, 1, 2)
        src = qubit_embedding(sector, 4)  # |010>|000>, atom 1 in |0>
        assert np.linalg.norm(s @ src) == 0.0

    def test_sector_kept_transition(self, sector):
        # |111>|000> has C = 2 and so does |e11>|000>: the element survives
        s = atom_transition(sector, 1, 1, 2)
        src = sector.state_index("111", "000")
        dst = sector.state_index("e11", "000")
        assert s.toarray()[dst, src] == pytest.approx(1.0)

    def test_sector_leaving_transitions_dropped_and_counted(self, sector):
        # the middle atom's |1> -> |e> raises C, so some targets fall outside
        s = atom_transition(sector, 2, 1, 2)
        assert s.dropped > 0
        src = sector.state_index("111", "000")  # C=2 -> C=3 target: dropped
        assert np.linalg.norm(s @ sector.basis_vector(src)) == 0.0

    @pytest.mark.parametrize("i,src,dst", [(1, 1, 2), (2, 0, 2), (3, 2, 0), (2, 1, 2)])
    def test_partial_isometry(self, sector, i, src, dst):
        s = atom_transition(sector, i, src, dst)
        prod = (s.dag() @ s).toarray()
        assert np.abs(prod - np.diag(np.diag(prod))).max() < 1e-14
        diag = np.diag(prod).real
        assert np.all((np.abs(diag) < 1e-14) | (np.abs(diag - 1.0) < 1e-14))


class TestExcitationCounter:
    @pytest.mark.parametrize(
        "atoms,photons,expected",
        [("101", "000", 2), ("010", "000", 0), ("000", "011", 2), ("111", "000", 2)],
    )
    def test_values(self, sector, atoms, photons, expected):
        c = excitation_counter(sector)
        i = sector.state_index(atoms, photons)
        assert c.toarray()[i, i] == pytest.approx(expected)

    @pytest.mark.parametrize(
        "params,om",
        [
            (PhysParams.resonant(), 0.05),
            (PhysParams.dispersive(), 0.02),
            (PhysParams(g=1.0, J=0.7, delta=0.3), 0.1),
        ],
    )
    def test_commutes_with_hamiltonian(self, sector, params, om):
        h = full_hamiltonian(sector, params, om, -om)
        c = excitation_counter(sector)
        comm = c @ h - h @ c
        assert (np.abs(comm.toarray()).max() if comm.nnz else 0.0) < 1e-12 * params.g


class TestQubitEmbedding:
    def test_control_first_ordering(self, sector):
        # q = 6 means (q2, q1, q3) = (1, 1, 0): atoms |110>, cavities vacuum
        v = qubit_embedding(sector, 6)
        assert v[sector.state_index("110", "000")] == pytest.approx(1.0)

    def test_zero_state(self, sector):
        v = qubit_embedding(sector, 0)
        assert v[sector.state_index("000", "000")] == pytest.approx(1.0)

    def test_all_normalized(self, sector):
        for q in range(8):
            assert np.linalg.norm(qubit_embedding(sector, q)) == pytest.approx(1.0)

    @pytest.mark.parametrize("q", [-1, 8])
    def test_rejects_out_of_range(self, sector, q):
        with pytest.raises(ValueError):
            qubit_embedding(sector, q)

    def test_register_excitations(self, sector):
        assert sector.excitations[register_indices(sector)].tolist() == [0, 1, 1, 2, 0, 1, 1, 2]

    @pytest.mark.parametrize("q", range(8))
    def test_label_maps_back_to_q(self, full, q):
        """The register read-out inverts the label: q = 4*a2 + 2*a1 + a3, and
        the extraction puts a register state, with or without a photon, on
        the diagonal entry q."""
        lab = register_label(q)
        a1, a2, a3 = lab[:3]
        assert 4 * a2 + 2 * a1 + a3 == q and lab[3:] == (0, 0, 0)
        for photons in [(0, 0, 0), (0, 1, 0)]:
            v = full.basis_vector(full.index_of[lab[:3] + photons])
            expected = np.zeros((8, 8))
            expected[q, q] = 1.0
            assert np.array_equal(qubit_extraction(full, np.outer(v, v)), expected)


class TestQubitExtraction:
    def test_matrix_unit(self, sector):
        v = qubit_embedding(sector, 6)
        m = qubit_extraction(sector, np.outer(v, v.conj()))
        expected = np.zeros((8, 8))
        expected[6, 6] = 1.0
        assert np.abs(m - expected).max() < 1e-14

    def test_excited_level_discarded(self, sector):
        i = sector.state_index("e10", "000")
        m = qubit_extraction(sector, np.outer(sector.basis_vector(i), sector.basis_vector(i)))
        assert np.abs(m).max() == 0.0

    def test_photonic_population_survives_partial_trace(self, sector):
        # qubit-level atoms with a photon trace into the register diagonal
        i = sector.state_index("010", "010")
        m = qubit_extraction(sector, np.outer(sector.basis_vector(i), sector.basis_vector(i)))
        assert m[4, 4] == pytest.approx(1.0)

    def test_trace_never_increases(self, sector):
        rng = np.random.default_rng(11)
        rhos, looped = [], []
        for _ in range(20):
            a = rng.standard_normal((sector.dim, sector.dim)) + 1j * rng.standard_normal(
                (sector.dim, sector.dim)
            )
            rho = a @ a.conj().T
            extracted = qubit_extraction(sector, rho)
            assert np.trace(extracted).real <= np.trace(rho).real + 1e-10
            rhos.append(rho)
            looped.append(extracted)
        # a (..., dim, dim) stack is reduced matrix by matrix, with the same sums
        stacked = qubit_extraction(sector, np.reshape(rhos, (4, 5, sector.dim, sector.dim)))
        assert stacked.shape == (4, 5, 8, 8)
        assert np.array_equal(stacked, np.reshape(looped, (4, 5, 8, 8)))


class TestSectorClosure:
    def test_hamiltonian_is_hermitian(self, sector):
        h = full_hamiltonian(sector, PhysParams.dispersive(), 0.02, -0.02)
        assert h.is_hermitian()

    def test_embedded_states_stay_in_sector(self, sector, full):
        """Matrix elements out of the C <= 2 block vanish in the full space."""
        h = full_hamiltonian(full, PhysParams.resonant(), 0.05, -0.05).toarray()
        inside = np.array([excitation_of(lab) <= 2 for lab in full.basis])
        assert np.abs(h[np.ix_(~inside, inside)]).max() == 0.0


class TestMirrorMap:
    """U = (atom 1 <-> atom 3, cavity 1 <-> cavity 3) x (-1)^(N_photon + N_e)."""

    @staticmethod
    def matrix(space):
        perm, sign = mirror_map(space)
        return sp.csr_matrix((sign, (perm, np.arange(space.dim))), shape=(space.dim,) * 2)

    def test_labels_and_involution(self, sector):
        perm, sign = mirror_map(sector)
        for i, (a1, a2, a3, n1, n2, n3) in enumerate(sector.basis):
            assert sector.basis[perm[i]] == (a3, a2, a1, n3, n2, n1)
            assert sign[i] == (-1) ** (n1 + n2 + n3 + [a1, a2, a3].count(2))
        assert np.array_equal(perm[perm], np.arange(sector.dim))
        assert np.array_equal(sign[perm], sign)

    @pytest.mark.parametrize("params", [PhysParams.resonant(), PhysParams.dispersive()])
    def test_commutes_with_antisymmetric_drive_only(self, full, params):
        u = self.matrix(full)
        h = full_hamiltonian(full, params, 0.3, -0.3).matrix
        assert abs(u @ h @ u.T - h).max() == 0.0
        h = full_hamiltonian(full, params, 0.3, 0.3).matrix
        assert abs(u @ h @ u.T - h).max() > 0.1

    def test_jump_operators_map_to_signed_mirror_images(self, sector):
        u = self.matrix(sector)
        jumps = [c.matrix for _, c in jump_operators(sector, DecayParams(kappa=1.0, gamma=1.0))]
        # a_1 <-> a_3, a_2, and per atom |0><e| and |1><e|, each negated
        mirror = [2, 1, 0, 7, 8, 5, 6, 3, 4]
        for c, m in zip(jumps, mirror):
            assert abs(u @ c @ u.T + jumps[m]).max() == 0.0


class TestSparseOperator:
    def test_space_mismatch_rejected(self, sector, full):
        with pytest.raises(ValueError):
            cavity_lowering(sector, 1) + cavity_lowering(full, 1)

    def test_entries_roundtrip(self, sector):
        a = cavity_lowering(sector, 2)
        rebuilt = SparseOperator.from_entries(
            sector, *zip(*[(r, c, v) for r, c, v in a.entries()])
        )
        assert np.abs((a - rebuilt).toarray()).max() == 0.0

    def test_identity_and_qubit_index(self, sector):
        assert qubit_basis_index(sector, 5) == sector.state_index("011", "000")
