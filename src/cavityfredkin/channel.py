"""Qubit-channel reconstruction and average gate fidelity.

A gate run defines a linear map eps on 8x8 register operators: embed, evolve
for the gate time, reduce back to the register.  The map is stored through
its action on the 64 matrix units E_mn = |m><n|, from which eps(A) follows
for any A by linearity.  The decay rates choose the route: the 8 register
kets without decay, the master equation with it.  The figure of merit is

    F_avg = [sum_j tr(U U_j^dag U^dag eps(U_j)) + d^2] / [d^2 (d + 1)]

with d = 8, U the ideal controlled-SWAP and U_j the 64 Pauli tensor
products.  The U_j and their rotated copies U U_j^dag U^dag are constants:
their products form one kernel, built once per process, and the sum is its
dot product with the 64 images.
"""

from __future__ import annotations

import functools
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from cavityfredkin.hilbert import (
    HilbertSpace,
    SparseOperator,
    build_space,
    excitation_of,
    qubit_extraction,
    register_indices,
    register_label,
)
from cavityfredkin.model import PhysParams, antisymmetric_drive, full_hamiltonian
from cavityfredkin.propagate import (
    DEFAULT_DT,
    DecayParams,
    DrivenOperator,
    evolve_density_final,
    evolve_states_final,
)
from cavityfredkin.pulses import DriveSchedule

D = 8  # register dimension

IMAG_RESIDUE_TOL = 1e-8

#: most negative smallest Choi eigenvalue a master-equation channel may
#: have; the measured floors are -1.8e-12 (dispersive, 0.1 g) and -1.5e-15
#: (resonant, 0.05 g)
CHOI_TOL = 1e-9


@dataclass(frozen=True)
class IdealGate:
    """Target unitary on the register: swap targets iff the control is |1>."""

    matrix: np.ndarray


def fredkin_ideal() -> IdealGate:
    """Controlled-SWAP permutation: identity except rows/cols 5 <-> 6,
    i.e. |101> <-> |110> in the control-first ordering."""
    u = np.eye(D)
    u[[5, 6]] = u[[6, 5]]
    return IdealGate(matrix=u)


@functools.lru_cache(maxsize=None)
def pauli_tensor_basis() -> np.ndarray:
    """All 64 tensor products of {I, X, Y, Z} over (control, target1, target2),
    enumerated lexicographically; element 0 is the identity.

    Built once per process and returned read-only."""
    i2 = np.eye(2)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    z = np.diag([1.0, -1.0])
    singles = (i2, x, y, z)
    out = np.empty((64, D, D), dtype=complex)
    j = 0
    for p2 in singles:
        for p1 in singles:
            for p3 in singles:
                out[j] = np.kron(p2, np.kron(p1, p3))
                j += 1
    out.flags.writeable = False
    return out


def _fidelity_kernel(u: np.ndarray) -> np.ndarray:
    """K with K[m, n, b, a] = sum_j U_j[m, n] (U U_j^dag U^dag)[a, b] over the
    64 Pauli products U_j, flattened: since eps(U_j) = sum_mn U_j[m, n]
    eps(E_mn), K dotted with the flattened images is the Pauli sum
    sum_j tr(U U_j^dag U^dag eps(U_j)).

    Summed by einsum, not as a (64, 64) x (64, 64) complex matrix product:
    OpenBLAS runs that product on every core (process CPU/wall 2.0 on a
    2-core machine), and its spinning threads then slow the sweep pool's
    other workers."""
    basis = pauli_tensor_basis()
    rotated = u @ basis.conj().transpose(0, 2, 1) @ u.conj().T
    return np.einsum("jmn,jab->mnba", basis, rotated).reshape(D**4)


@functools.lru_cache(maxsize=None)
def _fredkin_kernel() -> np.ndarray:
    """:func:`_fidelity_kernel` of the controlled-SWAP, built once per process."""
    out = _fidelity_kernel(fredkin_ideal().matrix)
    out.flags.writeable = False
    return out


@dataclass
class QuantumChannel:
    """Linear register map stored as the 64 evolved matrix-unit images.

    ``images[m, n]`` is eps(|m><n|); eps(A) for arbitrary A follows by
    linearity.
    """

    images: np.ndarray  # (8, 8, 8, 8)
    metadata: dict = field(default_factory=dict)

    def choi_matrix(self) -> np.ndarray:
        """sum_mn |m><n| (x) eps(E_mn); positive for physical maps."""
        return self.images.transpose(0, 2, 1, 3).reshape(D * D, D * D)


def scheme_hamiltonian(
    space: HilbertSpace, params: PhysParams, schedule: DriveSchedule
) -> Union[DrivenOperator, SparseOperator]:
    """Hamiltonian of a gate run with the standard sign convention
    Omega_1 = +A(t), Omega_3 = -A(t)."""
    if schedule.is_constant:
        return full_hamiltonian(space, params, schedule.peak, -schedule.peak)
    return DrivenOperator(
        static=full_hamiltonian(space, params, 0.0, 0.0),
        drive=antisymmetric_drive(space),
        amplitude=schedule.amplitude,
    )


def _oriented_pairs():
    """Matrix-unit orientations to evolve: one per unordered pair, chosen so
    the sector index never rises from row to column; the remaining images
    follow from eps(X^dag) = eps(X)^dag, which the Lindblad form preserves."""
    weight = [excitation_of(register_label(q)) for q in range(D)]
    pairs = []
    for m in range(D):
        for n in range(D):
            if weight[m] > weight[n] or (weight[m] == weight[n] and m <= n):
                pairs.append((m, n))
    return pairs


def reconstruct_channel(
    params: PhysParams,
    schedule: DriveSchedule,
    decay: DecayParams,
    *,
    space: Optional[HilbertSpace] = None,
    dt: float = DEFAULT_DT,
) -> QuantumChannel:
    """Evolve the register matrix units through a full gate run.

    The gate is the one ``params`` and ``schedule`` define: the paper's two
    schemes differ only in the detuning (``params.delta`` 0 resonant, g
    dispersive), and which detuning suits which scheme is a rule of the
    configuration (:meth:`cavityfredkin.cli.ExperimentConfig.resolved`),
    not of the channel.

    The decay rates choose the route, recorded as ``metadata["method"]``:
    'state' (kappa = gamma = 0) propagates the 8 register kets and takes
    outer products; 'density' integrates the matrix units through the
    master equation.  The routes agree to 1e-8 without decay.
    ``metadata["dt"]`` and ``["n_steps"]`` are the step and step count the
    run reports in the metadata of :func:`evolve_states_final` or
    :func:`evolve_density_final`.

    A density-route channel is checked for complete positivity: its
    smallest Choi eigenvalue is ``metadata["choi_min_eig"]``, and one below
    -``CHOI_TOL`` raises ValueError.  Non-finite images skip the check
    (NaN).  Outer products of kets are completely positive by construction,
    so the state route is not checked.
    """
    if space is None:
        space = build_space(fock_cap=2, sector_cap=2)
    h = scheme_hamiltonian(space, params, schedule)
    t_gate = schedule.total_time
    reg = register_indices(space)
    pairs = _oriented_pairs()
    t0 = time.perf_counter()

    extra = {}
    if decay.dissipative:
        units = np.zeros((len(pairs), space.dim, space.dim), dtype=complex)
        for k, (m, n) in enumerate(pairs):
            units[k, reg[m], reg[n]] = 1.0
        outs, run = evolve_density_final(h, decay, units, t_gate, dt=dt)
    else:
        kets = np.zeros((space.dim, D), dtype=complex)
        kets[reg, range(D)] = 1.0
        finals, run = evolve_states_final(h, kets, t_gate, dt=dt)
        finals = finals.T
        m, n = np.array(pairs).T
        # eps(|m><n|) before the read-out: |psi_m><psi_n| of the final kets
        outs = finals[m][:, :, None] * finals[n].conj()[:, None, :]
        extra = {"qubit_matrix": finals[:, reg].T}

    images = np.zeros((D, D, D, D), dtype=complex)
    for (m, n), image in zip(pairs, qubit_extraction(space, outs)):
        images[m, n] = image
        images[n, m] = image.conj().T
    diag = outs[[k for k, (m, n) in enumerate(pairs) if m == n]]
    traces = np.array([np.trace(w) for w in diag])
    # NaN-propagating: a blown-up run must not report zero drift
    trace_drift = float(np.max(np.abs(traces.real - 1.0) + np.abs(traces.imag)))
    # leakage: population that left the register states, summed state by state
    leakage = float(1.0 - np.mean(sum(diag[:, i, i].real for i in reg)))

    if decay.dissipative:
        extra = {"choi_min_eig": _choi_min_eig(images)}
    return QuantumChannel(
        images=images,
        metadata={
            "params": params,
            "schedule": schedule,
            "decay": decay,
            "gate_time": t_gate,
            "dt": run["dt"],
            "n_steps": run["n_steps"],
            "method": "density" if decay.dissipative else "state",
            "leakage": leakage,
            "trace_drift": trace_drift,
            "seconds": time.perf_counter() - t0,
            **extra,
        },
    )


def _choi_min_eig(images: np.ndarray) -> float:
    """Smallest eigenvalue of the Choi matrix of ``images``, NaN when an
    image is not finite; raises ValueError below -``CHOI_TOL``."""
    if not np.isfinite(images).all():
        return float("nan")
    value = float(np.linalg.eigvalsh(QuantumChannel(images).choi_matrix()).min())
    if value < -CHOI_TOL:
        raise ValueError(f"channel is not completely positive: smallest Choi eigenvalue "
                         f"{value:.3g} is below -{CHOI_TOL:g}")
    return value


def average_gate_fidelity(
    channel: QuantumChannel, ideal: Optional[IdealGate] = None
) -> float:
    """Pauli-basis average gate fidelity of the channel against the ideal gate.

    The 64-term sum is assembled by linearity from the stored matrix-unit
    images, as one dot product with the kernel of :func:`_fidelity_kernel`,
    which is built once per process for the default ideal gate.  Its
    imaginary residue is a numerical diagnostic and must stay below 1e-8.
    """
    kernel = _fredkin_kernel() if ideal is None else _fidelity_kernel(ideal.matrix)
    total = kernel @ channel.images.ravel()
    if abs(total.imag) >= IMAG_RESIDUE_TOL:
        warnings.warn(
            f"imaginary residue {abs(total.imag):.2e} in the fidelity sum",
            stacklevel=2,
        )
    channel.metadata["fidelity_imag_residue"] = float(abs(total.imag))
    return float((total.real + D * D) / (D * D * (D + 1)))


def average_fidelity_from_kets(qubit_matrix: np.ndarray, ideal: Optional[IdealGate] = None) -> float:
    """Cross-check formula (d F_pro + 1)/(d + 1) from the 8x8 matrix of
    evolved register kets; valid on the decay-free fast path with
    negligible leakage."""
    ideal = fredkin_ideal() if ideal is None else ideal
    f_pro = abs(np.trace(ideal.matrix.conj().T @ qubit_matrix) / D) ** 2
    return float((D * f_pro + 1.0) / (D + 1.0))
