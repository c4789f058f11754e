"""Interaction Hamiltonian, Zeno decomposition and analytic block structure.

The interaction-picture Hamiltonian couples classical drives on the outer
atoms (|1> <-> |e|, Rabi rates Omega_1, Omega_3), photon hopping J between
neighbouring cavities, Jaynes-Cummings exchange g between |e> <-> |0> and
the local photon, and a one-photon detuning Delta on the excited levels.
Delta = 0 gives the resonant gate scheme, Delta = g the dispersive one.

Everything here is a pure function of immutable inputs; rates are in units
of g unless stated otherwise.  The Hamiltonian's five unit terms (two drives,
hopping, Jaynes-Cummings, detuning) are built once per space, and every
Hamiltonian is a new weighted sum of them.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from cavityfredkin.hilbert import (
    HilbertSpace,
    SparseOperator,
    atom_transition,
    cavity_lowering,
)

ZENO_CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class PhysParams:
    """Physical rates: atom-cavity coupling g (the global scale, identical
    for all three atoms), inter-cavity hopping J, one-photon detuning delta."""

    g: float = 1.0
    J: float = 1.0
    delta: float = 0.0

    def __post_init__(self):
        if self.g <= 0:
            raise ValueError(f"g must be positive, got {self.g}")
        if self.J < 0:
            raise ValueError(f"J must be >= 0, got {self.J}")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")

    @classmethod
    def resonant(cls, g: float = 1.0, J: Optional[float] = None) -> "PhysParams":
        return cls(g=g, J=g if J is None else J, delta=0.0)

    @classmethod
    def dispersive(cls, g: float = 1.0) -> "PhysParams":
        return cls(g=g, J=g, delta=g)


@dataclass(frozen=True)
class EigenSystem:
    """Eigenpairs of a closed subspace, vectors as columns in a named basis."""

    values: np.ndarray
    vectors: np.ndarray
    basis_labels: tuple

    def residuals(self, matrix: np.ndarray) -> np.ndarray:
        """max |M v - lambda v| per eigenpair."""
        r = matrix @ self.vectors - self.vectors * self.values[None, :]
        return np.abs(r).max(axis=0)


# ---------------------------------------------------------------------------
# Hamiltonian assembly
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _unit_terms(space: HilbertSpace) -> tuple:
    """The five unit terms of the Hamiltonian on ``space`` as CSR matrices,
    built once per space: D_1 and D_3 (|e_i><1_i| + h.c. on atoms 1 and 3),
    H_hop, H_jc and H_det, in the order of :func:`_combination`'s rates.

    No two terms share an entry, so each entry of a weighted sum is one
    rate times one unit entry, as in the sum of the rates times the
    elementary operators (2 Delta on a doubly excited state is exact either
    way).  The matrices stay private: every public function returns a new
    operator.
    """
    def plus_dag(op):
        return op + op.dag()

    def total(ops):
        return functools.reduce(SparseOperator.__add__, ops).matrix

    drives = [plus_dag(atom_transition(space, i, 1, 2)).matrix for i in (1, 3)]
    hop = total(plus_dag(cavity_lowering(space, k).dag() @ cavity_lowering(space, k + 1))
                for k in (1, 2))
    jc = total(plus_dag(atom_transition(space, i, 0, 2) @ cavity_lowering(space, i))
               for i in (1, 2, 3))
    det = total(atom_transition(space, i, 2, 2) for i in (1, 2, 3))
    return (*drives, hop, jc, det)


def _combination(space: HilbertSpace, rates: tuple) -> SparseOperator:
    """Omega_1 D_1 + Omega_3 D_3 + J H_hop + g H_jc + Delta H_det for
    ``rates`` = (Omega_1, Omega_3, J, g, Delta), summed over the nonzero
    rates into a new operator."""
    h = sp.csr_matrix((space.dim, space.dim), dtype=complex)
    for rate, term in zip(rates, _unit_terms(space)):
        if rate != 0.0:
            h = h + rate * term
    return SparseOperator(space, h)


def drive_terms(space: HilbertSpace, omega1: float, omega3: float) -> SparseOperator:
    """Classical-field part: Omega_1 (|e_1><1_1| + h.c.) + Omega_3 (|e_3><1_3| + h.c.)."""
    return _combination(space, (omega1, omega3, 0.0, 0.0, 0.0))


def antisymmetric_drive(space: HilbertSpace) -> SparseOperator:
    """Unit-amplitude drive pattern with the gate's sign convention
    Omega_1(t) = +A(t), Omega_3(t) = -A(t)."""
    return drive_terms(space, 1.0, -1.0)


def hopping_terms(space: HilbertSpace, J: float) -> SparseOperator:
    """Photon hopping J sum_k (a_k^dag a_{k+1} + h.c.) between neighbours."""
    return _combination(space, (0.0, 0.0, J, 0.0, 0.0))


def jc_terms(space: HilbertSpace, g: float) -> SparseOperator:
    """Jaynes-Cummings exchange g sum_i (a_i |e_i><0_i| + h.c.)."""
    return _combination(space, (0.0, 0.0, 0.0, g, 0.0))


def detuning_term(space: HilbertSpace, delta: float) -> SparseOperator:
    """One-photon detuning delta sum_i |e_i><e_i|."""
    return _combination(space, (0.0, 0.0, 0.0, 0.0, delta))


def full_hamiltonian(
    space: HilbertSpace, params: PhysParams, omega1: float, omega3: float
) -> SparseOperator:
    """Interaction-picture Hamiltonian of the driven coupled-cavity array,
    a new operator on each call, weighted from the unit terms of ``space``."""
    return _combination(space, (omega1, omega3, params.J, params.g, params.delta))


def zeno_split(
    space: HilbertSpace, params: PhysParams, omega1: float, omega3: float
) -> tuple:
    """Split into the weak probed part H1 (drives) and the strong part H2
    (hopping + atom-cavity exchange).  H1 + H2 + detuning_term = H_I."""
    h1 = drive_terms(space, omega1, omega3)
    h2 = hopping_terms(space, params.J) + jc_terms(space, params.g)
    return h1, h2


# ---------------------------------------------------------------------------
# Zeno dynamics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZenoDecomposition:
    """Eigenprojection structure of the strong Hamiltonian H2.

    ``operator`` is sum_n eta_n P_n + P_n H1 P_n; ``dark_block`` is the
    restriction P_0 H1 P_0 to the zero-eigenvalue subspace (None if H2 has
    no zero cluster).
    """

    eigenvalues: np.ndarray
    projectors: tuple
    operator: SparseOperator
    dark_projector: Optional[np.ndarray]
    dark_block: Optional[SparseOperator]


def zeno_hamiltonian(
    h1: SparseOperator,
    h2: SparseOperator,
    cluster_tol: float = ZENO_CLUSTER_TOL,
    scale: float = 1.0,
) -> ZenoDecomposition:
    """Project the weak drive H1 onto the eigenspaces of the strong H2.

    Eigenvalues of H2 closer than ``cluster_tol * scale`` are merged into one
    projector; the decomposition fails if two clusters are separated by less
    than ten times that tolerance, because the projector split would then be
    numerically meaningless.
    """
    if not h2.is_hermitian():
        raise ValueError("H2 must be Hermitian")
    space = h2.space
    tol = cluster_tol * scale
    evals, evecs = np.linalg.eigh(h2.toarray())

    clusters = []  # list of (mean eigenvalue, list of column indices)
    start = 0
    for i in range(1, len(evals) + 1):
        if i == len(evals) or evals[i] - evals[i - 1] > tol:
            clusters.append((float(np.mean(evals[start:i])), list(range(start, i))))
            start = i
    for (ea, _), (eb, _) in zip(clusters, clusters[1:]):
        if eb - ea < 10 * tol:
            raise ValueError(
                f"ambiguous eigenvalue clustering: clusters at {ea:g} and {eb:g} "
                f"are closer than {10 * tol:g}"
            )

    h1_dense = h1.toarray()
    dim = space.dim
    op = np.zeros((dim, dim), dtype=complex)
    projectors = []
    dark_projector = None
    dark_block = None
    for eta, cols in clusters:
        V = evecs[:, cols]
        P = V @ V.conj().T
        projectors.append(P)
        op += eta * P + P @ h1_dense @ P
        if abs(eta) <= tol:
            dark_projector = P
            dark_block = SparseOperator(space, _sparse_from_dense(P @ h1_dense @ P))
    return ZenoDecomposition(
        eigenvalues=np.array([c[0] for c in clusters]),
        projectors=tuple(projectors),
        operator=SparseOperator(space, _sparse_from_dense(op)),
        dark_projector=dark_projector,
        dark_block=dark_block,
    )


def _sparse_from_dense(m: np.ndarray, cutoff: float = 1e-14):
    m = np.where(np.abs(m) > cutoff, m, 0.0)
    return sp.csr_matrix(m)


# ---------------------------------------------------------------------------
# Resonant scheme: 7x7 block, its interior eigensystem, effective model
# ---------------------------------------------------------------------------

#: closed subspace reached from |011>|000> and |110>|000> under the drives
RESONANT_BLOCK_STATES = (
    ("011", "000"),
    ("01e", "000"),
    ("010", "001"),
    ("010", "010"),
    ("010", "100"),
    ("e10", "000"),
    ("110", "000"),
)

#: interior of the block (the drive-free part that hosts the dark state)
RESONANT_INTERIOR_STATES = RESONANT_BLOCK_STATES[1:6]


def resonant_block(params: PhysParams, omega1: float, omega3: float) -> np.ndarray:
    """7x7 Hamiltonian on the closed single-excitation chain
    {|011>|000>, |01e>|000>, |010>|001>, |010>|010>, |010>|100>,
    |e10>|000>, |110>|000>}, valid for the resonant scheme (delta = 0)."""
    if params.delta != 0.0:
        raise ValueError("resonant block requires delta = 0")
    g, J = params.g, params.J
    m = np.zeros((7, 7))
    for i, v in enumerate((omega3, g, J, J, g, omega1)):
        m[i, i + 1] = m[i + 1, i] = v
    return m


def resonant_block_indices(space: HilbertSpace) -> list:
    """Dense indices of the seven chain states in a composite space."""
    return [space.state_index(a, c) for a, c in RESONANT_BLOCK_STATES]


def resonant_eigensystem(g: float, J: Optional[float] = None) -> EigenSystem:
    """Analytic eigensystem of the drive-free 5x5 interior at J = g.

    Eigenvalues {0, -g, g, -sqrt(3) g, sqrt(3) g}; the null vector is the
    dark state, immune to the atom-cavity interaction.
    """
    if g <= 0:
        raise ValueError("g must be positive")
    if J is None:
        J = g
    if abs(J - g) > 1e-12 * g:
        raise ValueError("analytic resonant eigensystem holds only for J = g")
    s3 = np.sqrt(3.0)
    s12 = np.sqrt(12.0)
    values = np.array([0.0, -g, g, -s3 * g, s3 * g])
    # columns in basis {|01e>|000>, |010>|001>, |010>|010>, |010>|100>, |e10>|000>}
    vectors = np.array(
        [
            [1 / s3, -0.5, -0.5, -1 / s12, 1 / s12],
            [0.0, 0.5, -0.5, 0.5, 0.5],
            [-1 / s3, 0.0, 0.0, -1 / s3, 1 / s3],
            [0.0, -0.5, 0.5, 0.5, 0.5],
            [1 / s3, 0.5, 0.5, -1 / s12, 1 / s12],
        ],
        dtype=complex,
    )
    labels = tuple(f"|{a}>|{c}>" for a, c in RESONANT_INTERIOR_STATES)
    return EigenSystem(values=values, vectors=vectors, basis_labels=labels)


def dark_state(space: HilbertSpace) -> np.ndarray:
    """The zero-eigenvalue superposition
    (|e10>|000> + |01e>|000> - |010>|010>) / sqrt(3) on the full space."""
    v = np.zeros(space.dim, dtype=complex)
    v[space.state_index("e10", "000")] = 1.0
    v[space.state_index("01e", "000")] = 1.0
    v[space.state_index("010", "010")] = -1.0
    return v / np.sqrt(3.0)


EFFECTIVE_RESONANT_LABELS = ("|110>|000>", "|011>|000>", "|D>")


def effective_resonant(omega1: float, omega3: float, g: float = 1.0) -> np.ndarray:
    """Zeno-limit Hamiltonian on span{|110>|000>, |011>|000>, |D>}:
    (Omega_1 |110> + Omega_3 |011>)|000><D| / sqrt(3) + h.c."""
    _require_real(omega1, omega3)
    if max(abs(omega1), abs(omega3)) > 0.2 * g:
        warnings.warn(
            "drive-to-coupling ratio above 0.2: the Zeno-limit model degrades",
            stacklevel=2,
        )
    m = np.zeros((3, 3))
    m[0, 2] = m[2, 0] = omega1 / np.sqrt(3.0)
    m[1, 2] = m[2, 1] = omega3 / np.sqrt(3.0)
    return m


def _require_real(*omegas):
    for om in omegas:
        if isinstance(om, complex) and om.imag != 0.0:
            raise ValueError("drive amplitudes must be real")


# ---------------------------------------------------------------------------
# Dispersive scheme: collective basis, 6x6 block, closed-form eigensystem
# ---------------------------------------------------------------------------

DISPERSIVE_BLOCK_LABELS = ("phi1", "phia", "phi2", "phib", "phi3", "phic")


def collective_states(space: HilbertSpace) -> np.ndarray:
    """Columns (phi1, phia, phi2, phib, phi3, phic) on the composite space.

    phi_a/b/c are collective one-photon states over the three cavities with
    all atoms in |0>; phi_1/2/3 are the matching collective atomic
    excitations with the cavities in vacuum.
    """
    vac_photon = {}
    for name, atoms, photons, coef in (
        ("phia", "000", ("100", "010", "001"), (0.5, -0.5 * np.sqrt(2), 0.5)),
        ("phib", "000", ("100", "010", "001"), (0.5, 0.5 * np.sqrt(2), 0.5)),
        ("phic", "000", ("100", "001"), (1 / np.sqrt(2), -1 / np.sqrt(2))),
        ("phi1", ("e00", "0e0", "00e"), "000", (0.5, -0.5 * np.sqrt(2), 0.5)),
        ("phi2", ("e00", "0e0", "00e"), "000", (0.5, 0.5 * np.sqrt(2), 0.5)),
        ("phi3", ("e00", "00e"), "000", (1 / np.sqrt(2), -1 / np.sqrt(2))),
    ):
        v = np.zeros(space.dim, dtype=complex)
        if isinstance(atoms, str):
            for ph, c in zip(photons, coef):
                v[space.state_index(atoms, ph)] = c
        else:
            for at, c in zip(atoms, coef):
                v[space.state_index(at, photons)] = c
        vac_photon[name] = v
    return np.column_stack([vac_photon[n] for n in DISPERSIVE_BLOCK_LABELS])


def dispersive_block(g: float, J: float, delta: float) -> np.ndarray:
    """Drive-free Hamiltonian in the collective basis: three 2x2 blocks
    [[delta, g], [g, -sqrt(2) J]], [[delta, g], [g, sqrt(2) J]],
    [[delta, g], [g, 0]]."""
    s2 = np.sqrt(2.0)
    m = np.zeros((6, 6))
    for off, lower in ((0, -s2 * J), (2, s2 * J), (4, 0.0)):
        m[off, off] = delta
        m[off, off + 1] = m[off + 1, off] = g
        m[off + 1, off + 1] = lower
    return m


def dispersive_eigensystem(g: float, J: float, delta: float) -> EigenSystem:
    """Closed-form eigenpairs of the collective-basis block matrix.

    The construction is self-checking: the analytic pairs are compared
    against a numeric eigensolve and must agree to 1e-10 * g.
    """
    if g <= 0:
        raise ValueError("g must be positive")
    s2 = np.sqrt(2.0)
    S13 = np.sqrt(4 * g**2 + delta**2 + 2 * s2 * delta * J + 2 * J**2)
    S24 = np.sqrt(4 * g**2 + delta**2 - 2 * s2 * delta * J + 2 * J**2)
    R = np.sqrt(4 * g**2 + delta**2)
    values = np.array(
        [
            0.5 * (delta - s2 * J - S13),
            0.5 * (delta - s2 * J + S13),
            0.5 * (delta + s2 * J - S24),
            0.5 * (delta + s2 * J + S24),
            0.5 * (delta - R),
            0.5 * (delta + R),
        ]
    )
    alpha = delta + s2 * J - S13
    beta = delta - s2 * J - S24
    na = np.sqrt(4 * g**2 + alpha**2)
    nb = np.sqrt(4 * g**2 + beta**2)
    cm = np.sqrt((R - delta) / (2 * R))
    cp = np.sqrt((R + delta) / (2 * R))
    vectors = np.zeros((6, 6), dtype=complex)
    vectors[0:2, 0] = (alpha / na, 2 * g / na)
    vectors[0:2, 1] = (2 * g / na, -alpha / na)
    vectors[2:4, 2] = (beta / nb, 2 * g / nb)
    vectors[2:4, 3] = (2 * g / nb, -beta / nb)
    vectors[4:6, 4] = (-cm, cp)
    vectors[4:6, 5] = (cp, cm)
    system = EigenSystem(
        values=values, vectors=vectors, basis_labels=DISPERSIVE_BLOCK_LABELS
    )
    res = system.residuals(dispersive_block(g, J, delta))
    if res.max() > 1e-10 * g:
        raise AssertionError(
            f"closed-form eigensystem residual {res.max():.3e} exceeds 1e-10 g"
        )
    return system


def effective_dispersive(
    omega1: float,
    omega3: float,
    g: float,
    J: Optional[float] = None,
    delta: Optional[float] = None,
) -> tuple:
    """Dipole-dipole Hamiltonians of the dispersive gate at delta = J = g.

    Returns ``(h_single, h_double)``: h_single acts on {|100>, |001>} with
    diagonal (Omega_1^2/g, Omega_3^2/g) and off-diagonal Omega_1 Omega_3/g;
    h_double acts on {|110>, |011>} with all entries divided by -2.
    """
    _require_real(omega1, omega3)
    J = g if J is None else J
    delta = g if delta is None else delta
    if abs(J - g) > 1e-12 * g or abs(delta - g) > 1e-12 * g:
        raise ValueError("effective dispersive model holds only at delta = J = g")
    if max(abs(omega1), abs(omega3)) > 0.2 * g:
        warnings.warn(
            "drive-to-coupling ratio above 0.2: the dispersive model degrades",
            stacklevel=2,
        )
    h_single = np.array(
        [
            [omega1**2 / g, omega1 * omega3 / g],
            [omega1 * omega3 / g, omega3**2 / g],
        ]
    )
    h_double = -0.5 * h_single
    return h_single, h_double


SINGLE_MANIFOLD_STATES = (("100", "000"), ("001", "000"))
DOUBLE_MANIFOLD_STATES = (("110", "000"), ("011", "000"))

_INTERMEDIATES = {
    "single": (
        ("e00", "000"),
        ("0e0", "000"),
        ("00e", "000"),
        ("000", "100"),
        ("000", "010"),
        ("000", "001"),
    ),
    "double": RESONANT_INTERIOR_STATES,
}


def second_order_drive_coupling(
    space: HilbertSpace,
    params: PhysParams,
    omega1: float,
    omega3: float,
    manifold: str = "single",
) -> np.ndarray:
    """Effective 2x2 coupling from summing eigenstate transition channels.

    For slow states f, s of the chosen manifold ('single' = {|100>, |001>},
    'double' = {|110>, |011>}, cavities in vacuum) this evaluates

        M[f, s] = sum_i <f|V|E_i> <E_i|V|s> / E_i

    over the eigenstates |E_i> of the drive-free Hamiltonian restricted to
    the closed intermediate subspace, with V the drive part.
    """
    if manifold == "single":
        slow = SINGLE_MANIFOLD_STATES
    elif manifold == "double":
        slow = DOUBLE_MANIFOLD_STATES
    else:
        raise ValueError(f"manifold must be 'single' or 'double', got {manifold}")
    inter_idx = [space.state_index(a, c) for a, c in _INTERMEDIATES[manifold]]
    slow_idx = [space.state_index(a, c) for a, c in slow]

    h_free = full_hamiltonian(space, params, 0.0, 0.0).toarray()
    block = h_free[np.ix_(inter_idx, inter_idx)]
    evals, evecs = np.linalg.eigh(block)
    if np.abs(evals).min() < 1e-12 * params.g:
        raise ValueError("intermediate manifold has a zero eigenvalue; the "
                         "channel sum is undefined")

    v = drive_terms(space, omega1, omega3).toarray()
    v_slow_inter = v[np.ix_(slow_idx, inter_idx)]  # <f|V|x_j>
    amp = v_slow_inter @ evecs  # <f|V|E_i>
    return (amp / evals[None, :]) @ amp.conj().T
