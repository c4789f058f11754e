"""Independent decay-free reference for the three-atom, three-cavity gate.

Nothing here imports the simulator.  The Hamiltonian is assembled from its
physical definition with dense Kronecker products over the full
(3 levels)^3 x (Fock 0..2)^3 space and restricted to excitation weight
C <= 2, which the coherent dynamics conserves.  Constant drives are
propagated with ``scipy.linalg.expm`` (sampled series through the
eigendecomposition of the same matrix); the adiabatic pulse is integrated
with ``scipy.integrate.solve_ivp`` at tight tolerance.  The average gate
fidelity uses the Pauli-sum formula written out here.

Register index q = 4*q2 + 2*q1 + q3: the control is atom 2 (most significant
bit), the targets are atoms 1 and 3.  All rates are in units of g.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
import scipy.linalg as la
from scipy.integrate import solve_ivp

D = 8
G, J = 1.0, 1.0
DELTA = {"resonant": 0.0, "dispersive": 1.0}


def gate_time(scheme: str, omega: float) -> float:
    if scheme == "resonant":
        return np.sqrt(3.0) * np.pi / (np.sqrt(2.0) * omega)
    return np.pi * G / omega**2


def adiabatic_amplitude(omega: float, t: float) -> float:
    """Resonant drive amplitude A(t) = 2 Omega sin^2(sqrt(2/3) Omega t);
    Omega_1 = +A, Omega_3 = -A."""
    return 2.0 * omega * np.sin(np.sqrt(2.0 / 3.0) * omega * t) ** 2


def _embed(op: np.ndarray, slot: int, dims) -> np.ndarray:
    mats = [np.eye(d) for d in dims]
    mats[slot] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


@lru_cache(maxsize=None)
def _operators():
    """Restricted H0 (hopping + exchange), drive pattern and detuning, plus
    the register bookkeeping, on the C <= 2 subspace."""
    dims = (3, 3, 3, 3, 3, 3)  # atom1, atom2, atom3, cav1, cav2, cav3
    labels = list(itertools.product(range(3), repeat=6))
    excit = np.array([n1 + n2 + n3 + (a1 != 0) + (a3 != 0) + (a2 == 2)
                      for a1, a2, a3, n1, n2, n3 in labels])
    keep = np.flatnonzero(excit <= 2)

    def ket_bra(x, y):
        m = np.zeros((3, 3))
        m[x, y] = 1.0
        return m

    lower = np.diag(np.sqrt([1.0, 2.0]), 1)  # photon annihilation, Fock 0..2
    a = [_embed(lower, 3 + k, dims) for k in range(3)]
    hop = sum(a[k].T @ a[k + 1] for k in range(2))
    jc = sum(a[i] @ _embed(ket_bra(2, 0), i, dims) for i in range(3))
    h_static = J * (hop + hop.T) + G * (jc + jc.T)
    s1 = _embed(ket_bra(2, 1), 0, dims)
    s3 = _embed(ket_bra(2, 1), 2, dims)
    h_drive = (s1 + s1.T) - (s3 + s3.T)
    n_excited = sum(_embed(ket_bra(2, 2), i, dims) for i in range(3))

    sub = np.ix_(keep, keep)
    kept = [labels[i] for i in keep]
    register = np.zeros(D, dtype=int)
    # rows: (qubit-level atoms, cavity pattern) -> position in the kept basis
    cavity_patterns = sorted({lab[3:] for lab in kept})
    extract = np.full((D, len(cavity_patterns)), -1)
    for pos, (a1, a2, a3, *cav) in enumerate(kept):
        if 2 in (a1, a2, a3):
            continue
        q = 4 * a2 + 2 * a1 + a3
        extract[q, cavity_patterns.index(tuple(cav))] = pos
        if not any(cav):
            register[q] = pos
    return (h_static[sub], h_drive[sub], n_excited[sub], register, extract)


def dimension() -> int:
    return _operators()[0].shape[0]


def hamiltonians(scheme: str, omega: float):
    """(static, drive) parts: H(t) = static + A(t) drive."""
    h0, hd, ne, _, _ = _operators()
    static = h0 + DELTA[scheme] * ne
    if scheme == "dispersive":
        return static + omega * hd, None
    return static, hd


def _initial_kets() -> np.ndarray:
    register = _operators()[3]
    kets = np.zeros((dimension(), D), dtype=complex)
    kets[register, np.arange(D)] = 1.0
    return kets


def final_kets(scheme: str, omega: float) -> np.ndarray:
    """(dim, 8) evolved register kets at the gate time."""
    return evolve_kets(scheme, omega, np.array([gate_time(scheme, omega)]))[-1]


def evolve_kets(scheme: str, omega: float, times: np.ndarray) -> np.ndarray:
    """(len(times), dim, 8) register kets at the given times."""
    times = np.asarray(times, dtype=float)
    static, drive = hamiltonians(scheme, omega)
    kets = _initial_kets()
    if drive is None:
        if len(times) == 1:
            return (la.expm(-1j * times[0] * static) @ kets)[None]
        w, v = la.eigh(static)
        coef = v.conj().T @ kets
        return np.einsum("ij,tj,jq->tiq", v, np.exp(-1j * np.outer(times, w)), coef)
    shape = kets.shape

    def rhs(t, y):
        h = static + adiabatic_amplitude(omega, t) * drive
        return (-1j * (h @ y.reshape(shape))).ravel()

    sol = solve_ivp(rhs, (0.0, float(times[-1])), kets.ravel(), method="DOP853",
                    t_eval=times, rtol=1e-10, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y.T.reshape(len(times), *shape)


def register_populations(kets: np.ndarray) -> np.ndarray:
    """(..., 8 outputs, 8 inputs) populations of |q> (x) |000> from kets."""
    register = _operators()[3]
    return np.abs(kets[..., register, :]) ** 2


def channel_images(kets: np.ndarray) -> np.ndarray:
    """images[m, n] = register image of |m><n| for the evolved kets: partial
    trace over the cavities, atoms restricted to {|0>, |1>}."""
    extract = _operators()[4]
    amps = np.where(extract[None] >= 0, kets.T[:, np.maximum(extract, 0)], 0.0)
    return np.einsum("mac,nbc->mnab", amps, amps.conj())


def fredkin() -> np.ndarray:
    """Controlled swap of the targets q1, q3 when the control q2 is 1."""
    u = np.zeros((D, D))
    for q in range(D):
        q2, q1, q3 = (q >> 2) & 1, (q >> 1) & 1, q & 1
        out = 4 * q2 + 2 * q3 + q1 if q2 else q
        u[out, q] = 1.0
    return u


def pauli_fidelity(images: np.ndarray) -> float:
    """F = [sum_j tr(U P_j^dag U^dag eps(P_j)) + d^2] / [d^2 (d + 1)] over the
    64 three-qubit Pauli products P_j, with U the Fredkin gate."""
    u = fredkin()
    singles = (np.eye(2), np.array([[0, 1], [1, 0]]),
               np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]))
    total = 0.0
    for a, b, c in itertools.product(singles, repeat=3):
        p = np.kron(a, np.kron(b, c))
        eps_p = np.einsum("mn,mnab->ab", p, images)
        total += np.trace(u @ p.conj().T @ u.conj().T @ eps_p)
    return float((total.real + D * D) / (D * D * (D + 1)))


@lru_cache(maxsize=256)
def gate_point(scheme: str, omega: float) -> tuple:
    """Decay-free (average Fredkin fidelity, leakage) at drive omega.

    Leakage is the mean population left outside the register (x) vacuum
    states, as the simulator reports it.
    """
    kets = final_kets(scheme, omega)
    leakage = 1.0 - register_populations(kets).sum(axis=0).mean()
    return pauli_fidelity(channel_images(kets)), float(leakage)
