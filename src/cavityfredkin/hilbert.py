"""Composite Hilbert space and elementary operators.

Three three-level atoms (|0>, |1>, |e>) sit in three coupled single-mode
cavities.  Basis labels are 6-tuples ``(a1, a2, a3, n1, n2, n3)`` with atomic
levels encoded 0, 1, 2 (2 = |e>) and photon numbers ``n_k``, tensor-ordered
atom1 x atom2 x atom3 x cav1 x cav2 x cav3.

The coherent dynamics conserves the excitation weight

    C = n1 + n2 + n3 + [a1 in {1,e}] + [a3 in {1,e}] + [a2 = e]

(the drives on the outer atoms exchange |1> and |e>, so both count; the
middle atom is undriven, so only its |e> counts).  Cavity decay and
spontaneous emission never increase C, so restricting the basis to C <= 2
is exact for qubit-register initial states, closed even under dissipation.
With ``fock_cap=2`` that sector has 68 states instead of 729.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

import numpy as np
import scipy.sparse as sp

Label = tuple  # (a1, a2, a3, n1, n2, n3)

#: atomic level index of |e>
LEVEL_E = 2

ATOM_LEVELS = ("0", "1", "e")

_LEVEL_OF_CHAR = {"0": 0, "1": 1, "e": 2}

HERMITICITY_TOL = 1e-12


def excitation_of(label: Label) -> int:
    """Excitation weight C of a composite basis label."""
    a1, a2, a3, n1, n2, n3 = label
    return n1 + n2 + n3 + (a1 != 0) + (a3 != 0) + (a2 == LEVEL_E)


@dataclass(frozen=True, eq=False)
class HilbertSpace:
    """Enumerated composite basis with index maps.

    Instances are immutable after construction and safe to share across
    concurrent evolutions.

    Attributes
    ----------
    fock_cap : int
        Maximum photon number per cavity mode.
    sector_cap : int or None
        If set, only labels with excitation weight C <= sector_cap are kept.
    basis : tuple of 6-tuples
        Ordered composite labels ``(a1, a2, a3, n1, n2, n3)``.
    index_of : dict
        Label -> dense index, a bijection onto 0..dim-1.
    """

    fock_cap: int
    sector_cap: Optional[int]
    basis: tuple
    index_of: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def excitations(self) -> np.ndarray:
        """Excitation weight C per basis state (int array of length dim)."""
        return np.array([excitation_of(lab) for lab in self.basis])

    def state_index(self, atoms: str, photons: str = "000") -> int:
        """Index of the basis state written as e.g. ``("e10", "000")``.

        ``atoms`` uses characters '0', '1', 'e'; ``photons`` uses digits.
        """
        lab = tuple(_LEVEL_OF_CHAR[c] for c in atoms) + tuple(int(c) for c in photons)
        try:
            return self.index_of[lab]
        except KeyError:
            raise KeyError(f"state |{atoms}>|{photons}> not in this basis") from None

    def label_str(self, i: int) -> str:
        """Human-readable ``|a1a2a3>|n1n2n3>`` form of basis state i."""
        a1, a2, a3, n1, n2, n3 = self.basis[i]
        return f"|{ATOM_LEVELS[a1]}{ATOM_LEVELS[a2]}{ATOM_LEVELS[a3]}>|{n1}{n2}{n3}>"

    def basis_vector(self, i: int) -> np.ndarray:
        v = np.zeros(self.dim, dtype=complex)
        v[i] = 1.0
        return v

    def __repr__(self) -> str:
        return (
            f"HilbertSpace(dim={self.dim}, fock_cap={self.fock_cap}, "
            f"sector_cap={self.sector_cap})"
        )


def build_space(fock_cap: int, sector_cap: Optional[int] = None) -> HilbertSpace:
    """Enumerate the composite basis, optionally restricted to C <= sector_cap.

    A space is immutable, so it is built once per process and argument pair:
    every call with the same ``(fock_cap, sector_cap)`` returns the same
    instance, and operators built on one call's space combine with another's.

    Parameters
    ----------
    fock_cap : int
        Photon cutoff per cavity mode, at least 1 (photon hopping needs at
        least one quantum per mode).
    sector_cap : int, optional
        Keep only labels with excitation weight C <= sector_cap.

    Returns
    -------
    HilbertSpace
    """
    if fock_cap < 1:
        raise ValueError(f"fock_cap must be >= 1, got {fock_cap}")
    if sector_cap is not None and sector_cap < 0:
        raise ValueError(f"sector_cap must be >= 0, got {sector_cap}")
    return _enumerated_space(fock_cap, sector_cap)


@functools.lru_cache(maxsize=None, typed=True)
def _enumerated_space(fock_cap: int, sector_cap: Optional[int]) -> HilbertSpace:
    basis = []
    photon_range = range(fock_cap + 1)
    for atoms in itertools.product(range(3), repeat=3):
        for photons in itertools.product(photon_range, repeat=3):
            lab = atoms + photons
            if sector_cap is None or excitation_of(lab) <= sector_cap:
                basis.append(lab)
    basis = tuple(basis)
    return HilbertSpace(
        fock_cap=fock_cap,
        sector_cap=sector_cap,
        basis=basis,
        index_of={lab: i for i, lab in enumerate(basis)},
    )


class SparseOperator:
    """Complex sparse operator tied to a :class:`HilbertSpace`.

    Thin wrapper around a CSR matrix that keeps the space reference so
    operators from different bases cannot be combined by accident.  Treated
    as immutable: all arithmetic returns new instances.
    """

    __slots__ = ("space", "matrix", "dropped")

    def __init__(self, space: HilbertSpace, matrix: sp.spmatrix, dropped: int = 0):
        if matrix.shape != (space.dim, space.dim):
            raise ValueError(f"matrix shape {matrix.shape} != space dim {space.dim}")
        self.space = space
        self.matrix = sp.csr_matrix(matrix, dtype=complex)
        #: matrix elements discarded because the target left the sector
        self.dropped = dropped

    # -- constructors -------------------------------------------------
    @classmethod
    def from_entries(cls, space, rows, cols, vals, dropped=0):
        m = sp.csr_matrix(
            (vals, (rows, cols)), shape=(space.dim, space.dim), dtype=complex
        )
        return cls(space, m, dropped)

    @classmethod
    def zero(cls, space):
        return cls(space, sp.csr_matrix((space.dim, space.dim), dtype=complex))

    # -- views ---------------------------------------------------------
    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def entries(self) -> Iterator[tuple]:
        """Iterate (row, col, value) over stored nonzeros."""
        coo = self.matrix.tocoo()
        return zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())

    def dag(self) -> "SparseOperator":
        return SparseOperator(self.space, self.matrix.conj().T.tocsr())

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        diff = self.matrix - self.matrix.conj().T
        if diff.nnz == 0:
            return True
        scale = max(1.0, abs(self.matrix).max())
        return abs(diff).max() <= tol * scale

    # -- arithmetic ----------------------------------------------------
    def _check(self, other):
        if self.space is not other.space:
            raise ValueError("operators live on different Hilbert spaces")

    def __add__(self, other):
        self._check(other)
        return SparseOperator(self.space, self.matrix + other.matrix)

    def __sub__(self, other):
        self._check(other)
        return SparseOperator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar):
        return SparseOperator(self.space, self.matrix * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return SparseOperator(self.space, -self.matrix)

    def __matmul__(self, other):
        if isinstance(other, SparseOperator):
            self._check(other)
            return SparseOperator(self.space, (self.matrix @ other.matrix).tocsr())
        return self.matrix @ other  # ndarray: matrix-vector / matrix-matrix

    def __repr__(self):
        return f"SparseOperator(dim={self.space.dim}, nnz={self.nnz})"


def cavity_lowering(space: HilbertSpace, k: int) -> SparseOperator:
    """Photon annihilation operator a_k for cavity k in 1..3.

    a_k|... n_k ...> = sqrt(n_k) |... n_k - 1 ...>.  Lowering cannot leave a
    C-capped sector, so nothing is dropped.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"cavity index must be 1..3, got {k}")
    rows, cols, vals = [], [], []
    slot = 2 + k
    for j, lab in enumerate(space.basis):
        n = lab[slot]
        if n == 0:
            continue
        new = lab[:slot] + (n - 1,) + lab[slot + 1 :]
        rows.append(space.index_of[new])
        cols.append(j)
        vals.append(np.sqrt(n))
    return SparseOperator.from_entries(space, rows, cols, vals)


def _normalize_level(level: Union[int, str]) -> int:
    if isinstance(level, str):
        return _LEVEL_OF_CHAR[level]
    if level not in (0, 1, 2):
        raise ValueError(f"atomic level must be 0, 1 or 2/'e', got {level}")
    return level


def atom_transition(
    space: HilbertSpace, i: int, from_level: Union[int, str], to_level: Union[int, str]
) -> SparseOperator:
    """Atomic transition operator sigma^i_{to,from} = sum |..to..><..from..|.

    Transitions whose target leaves the sector restriction are dropped; the
    number of dropped elements is recorded on the returned operator.
    """
    if i not in (1, 2, 3):
        raise ValueError(f"atom index must be 1..3, got {i}")
    src = _normalize_level(from_level)
    dst = _normalize_level(to_level)
    rows, cols, vals = [], [], []
    dropped = 0
    slot = i - 1
    for j, lab in enumerate(space.basis):
        if lab[slot] != src:
            continue
        new = lab[:slot] + (dst,) + lab[slot + 1 :]
        target = space.index_of.get(new)
        if target is None:
            dropped += 1
            continue
        rows.append(target)
        cols.append(j)
        vals.append(1.0)
    return SparseOperator.from_entries(space, rows, cols, vals, dropped=dropped)


def mirror_map(space: HilbertSpace) -> tuple:
    """The array's mirror symmetry U on the basis: U e_i = sign[i] e_perm[i].

    U swaps atom 1 <-> atom 3 and cavity 1 <-> cavity 3 and multiplies by
    (-1)^(N_photon + N_e).  It commutes with the static Hamiltonian and with
    the drive when Omega_3 = -Omega_1, and maps every jump operator to
    +/- its mirror image.  Returns the int array ``perm`` and float ``sign``.
    """
    perm = np.array([space.index_of[(a3, a2, a1, n3, n2, n1)]
                     for a1, a2, a3, n1, n2, n3 in space.basis], dtype=int)
    odd = [(sum(lab[3:]) + lab[:3].count(LEVEL_E)) % 2 for lab in space.basis]
    return perm, 1.0 - 2.0 * np.array(odd, dtype=float)


def chiral_parity(space: HilbertSpace) -> np.ndarray:
    """pi = [atom 1 in e] + [atom 3 in e] + n_2 per basis state (int array).

    Every drive, hopping and Jaynes-Cummings term changes pi by +/-1, so at
    Delta = 0 every entry of the Hamiltonian joins states of opposite
    parity; the detuning |e><e| does not.  Each jump operator shifts pi by
    one fixed amount.  pi is invariant under :func:`mirror_map`.
    """
    return np.array([(a1 == LEVEL_E) + (a3 == LEVEL_E) + n2
                     for a1, _, a3, _, n2, _ in space.basis], dtype=int)


def excitation_counter(space: HilbertSpace) -> SparseOperator:
    """Diagonal operator with eigenvalue C(label) on each basis state."""
    return SparseOperator(
        space, sp.diags(space.excitations.astype(complex)).tocsr()
    )


def register_label(q: int) -> Label:
    """Basis label of register state q: atoms in |0>/|1>, cavities in vacuum.

    q encodes (q2, q1, q3) as q = 4*q2 + 2*q1 + q3: the control (atom 2)
    is the most significant bit, so the ideal gate matrix is the literal
    controlled-SWAP permutation.  This is the only statement of that order;
    every other register index is read through this function.
    """
    if not 0 <= q <= 7:
        raise ValueError(f"qubit index must be 0..7, got {q}")
    q2, q1, q3 = (q >> 2) & 1, (q >> 1) & 1, q & 1
    return (q1, q2, q3, 0, 0, 0)


def qubit_basis_index(space: HilbertSpace, q: int) -> int:
    """Dense index of the register state q (:func:`register_label`)."""
    return space.index_of[register_label(q)]


def register_indices(space: HilbertSpace) -> list:
    """Dense indices of the 8 register states, in register order."""
    return [qubit_basis_index(space, q) for q in range(8)]


def qubit_embedding(space: HilbertSpace, q: int) -> np.ndarray:
    """Unit vector for register state q (atoms in |0>/|1>, cavities in vacuum)."""
    return space.basis_vector(qubit_basis_index(space, q))


def _qubit_groups(space: HilbertSpace):
    """Group basis indices with qubit-level atoms by cavity configuration.

    Yields (qubit indices, basis indices) per cavity photon pattern.
    """
    register = {register_label(q)[:3]: q for q in range(8)}
    groups: dict = {}
    for i, lab in enumerate(space.basis):
        q = register.get(lab[:3])
        if q is not None:
            groups.setdefault(lab[3:], []).append((q, i))
    for pairs in groups.values():
        qs = np.array([p[0] for p in pairs])
        idx = np.array([p[1] for p in pairs])
        yield qs, idx


def qubit_extraction(
    space: HilbertSpace, W: Union[np.ndarray, SparseOperator]
) -> np.ndarray:
    """Reduce a composite-space operator to the 8x8 qubit register.

    Partial trace over the three cavity modes, then restriction of each atom
    to span{|0>, |1>} (rows/columns involving |e> are discarded), reindexed
    to the register order of :func:`register_label`.  Trace-decreasing
    whenever population sits in |e> levels.  A (..., dim, dim) stack is
    reduced matrix by matrix to (..., 8, 8).
    """
    if isinstance(W, SparseOperator):
        W = W.toarray()
    W = np.asarray(W)
    M = np.zeros(W.shape[:-2] + (8, 8), dtype=complex)
    for qs, idx in _qubit_groups(space):
        M[..., qs[:, None], qs] += W[..., idx[:, None], idx]
    return M
