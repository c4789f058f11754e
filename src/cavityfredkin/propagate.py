"""Schroedinger and Lindblad propagation with fixed-step 4th-order Runge-Kutta.

Drive amplitudes are sampled exactly at the RK4 sub-stage times (t, t+dt/2,
t+dt), preserving 4th-order accuracy for smooth pulses.  The default step
dt = 0.01/g resolves the fastest frequency scale (~sqrt(3) g) comfortably;
callers may pass a smaller step, and every entry point enforces
dt <= 0.05 / ||H||.

Density dynamics run on the excitation-sector decomposition of the operator
space: the Lindblad generator conserves delta = C(row) - C(col) and never
increases the sector index, so vec(rho) splits into independent chains, the
largest of which (delta = 0 on the 68-state sector) has dimension 2830
instead of 68^2 = 4624.  For a time-independent generator the RK4 step map
is a fixed linear operator; it is built once per chain and applied by
repeated squaring, which is algebraically identical to stepping but costs
O(log N) matrix products instead of O(N).  Squaring stops once applying the
current power directly is cheaper: when the remaining exponent n and the
number of right-hand columns c satisfy n c <= 2 d, the n products with the
(d, c) block cost no more than two further d x d squarings.

The delta = 0 chain is closed under (i, j) -> (j, i), and every Lindblad
generator maps rho^dag to L(rho)^dag.  In the orthonormal coordinates
rho_ii, (rho_ij + rho_ji)/sqrt2 and i (rho_ij - rho_ji)/sqrt2 (i < j), which
are real for Hermitian rho, that chain's generator is therefore a real
matrix, and so is its RK4 step map.  The chain is propagated in those
coordinates with real and imaginary parts of the input interleaved as a
real (d, 2c) array: a real d x d product costs a quarter of a complex one,
and the dense step map of the 2830-dimensional chain takes 64 MB instead of
128 MB.  Chains with delta != 0 stay complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from cavityfredkin.hilbert import (
    HilbertSpace,
    SparseOperator,
    atom_transition,
    cavity_lowering,
)

DEFAULT_DT = 0.01
DEFAULT_SAMPLES = 500

#: abort threshold on norm / trace drift
DRIFT_ABORT = 1e-4

#: chains larger than this fall back to step-by-step integration even for
#: constant generators (the dense one-step matrix would not fit comfortably)
_POWER_DIM_LIMIT = 4096

#: largest imaginary part, relative to the largest entry, tolerated in the
#: real-coordinate form of the delta = 0 chain generator
_REAL_FORM_TOL = 1e-12


class IntegrationError(RuntimeError):
    """Norm or trace drift exceeded the abort threshold."""


@dataclass(frozen=True)
class DecayParams:
    """Cavity decay rate kappa (per cavity) and total atomic decay rate gamma
    of |e> (per atom), with equal branching gamma/2 into |0> and |1>."""

    kappa: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.kappa < 0 or self.gamma < 0:
            raise ValueError("decay rates must be >= 0")

    @property
    def dissipative(self) -> bool:
        return self.kappa > 0 or self.gamma > 0


@dataclass(frozen=True)
class DrivenOperator:
    """Time-dependent Hamiltonian H(t) = static + amplitude(t) * drive."""

    static: SparseOperator
    drive: SparseOperator
    amplitude: Callable[[float], float]


@dataclass
class Trajectory:
    """Sampled evolution: times[0] = 0, times[-1] = T, strictly increasing.

    ``states`` has shape (n_samples, dim) for state vectors or
    (n_samples, dim, dim) for density operators.
    """

    times: np.ndarray
    states: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def is_density(self) -> bool:
        return self.states.ndim == 3

    @property
    def space(self) -> HilbertSpace:
        return self.metadata["space"]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _parts(h: Union[SparseOperator, DrivenOperator]):
    if isinstance(h, DrivenOperator):
        return h.static, h.drive, h.amplitude
    return h, None, None


def _spectral_norm(matrix: sp.spmatrix, iters: int = 40) -> float:
    """Largest |eigenvalue| of a Hermitian sparse matrix by power iteration."""
    if matrix.nnz == 0:
        return 0.0
    rng = np.random.default_rng(7)
    v = rng.standard_normal(matrix.shape[0]) + 1j * rng.standard_normal(matrix.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = matrix @ (matrix @ v)  # squared operator: robust to +/- pairs
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
        lam = nw
    return float(np.sqrt(lam))


def _peak_amplitude(amp: Callable, t_final: float) -> float:
    ts = np.linspace(0.0, t_final, 257)
    return float(max(abs(amp(t)) for t in ts))


def _hamiltonian_scale(static, drive, amp, t_final) -> float:
    scale = _spectral_norm(static.matrix)
    if drive is not None:
        scale += _peak_amplitude(amp, t_final) * _spectral_norm(drive.matrix)
    return scale


def _check_dt(dt: float, hscale: float):
    if dt <= 0:
        raise ValueError("dt must be positive")
    if hscale > 0 and dt > 0.05 / hscale:
        raise ValueError(
            f"dt = {dt:g} too large for Hamiltonian scale {hscale:.3g}; "
            f"need dt <= {0.05 / hscale:.3g}"
        )


def _sample_steps(n_steps: int, n_samples: int) -> np.ndarray:
    return np.unique(np.round(np.linspace(0, n_steps, n_samples)).astype(int))


def _rk4_taylor_step(a_times_dt: sp.spmatrix) -> np.ndarray:
    """Dense one-step RK4 map I + A + A^2/2 + A^3/6 + A^4/24 for y' = (A/dt) y.

    For a linear autonomous system the classical RK4 update is exactly this
    degree-4 Taylor polynomial.  The map has the dtype of ``a_times_dt``.
    """
    n = a_times_dt.shape[0]
    r = np.eye(n, dtype=a_times_dt.dtype)
    for div in (4.0, 3.0, 2.0, 1.0):
        r = a_times_dt @ r
        r /= div
        r.flat[:: n + 1] += 1.0
    return r


def _power_apply(step: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """step^n @ x by binary powering.

    Squaring stops once the remaining exponent n times the column count of
    x is at most twice the dimension: applying the current power n times then
    costs no more than two further squarings.
    """
    d = step.shape[0]
    cols = x.shape[1] if x.ndim == 2 else 1
    out = x
    p = step
    while n:
        if n * cols <= 2 * d:
            for _ in range(n):
                out = p @ out
            return out
        if n & 1:
            out = p @ out
        n >>= 1
        if n:
            p = p @ p
    return out


def _amplitude_samples(amp: Callable, h: float, n_steps: int) -> list:
    """Drive amplitude at the RK4 stage times t_0, t_0 + h/2, t_1, ..., t_n
    (2 n + 1 values), with t_{k+1} = t_k + h accumulated as the steppers do.

    Step k uses entries 2k, 2k + 1 and 2k + 2; the end of one step is the
    start of the next, so each distinct time is evaluated once.
    """
    vals = np.empty(2 * n_steps + 1)
    t = 0.0
    for k in range(n_steps):
        vals[2 * k] = amp(t)
        vals[2 * k + 1] = amp(t + h / 2)
        t += h
    vals[2 * n_steps] = amp(t)
    return vals.tolist()


# ---------------------------------------------------------------------------
# state propagation
# ---------------------------------------------------------------------------

def _rk4_states(static, drive, amp, y0, t_final, dt_req, sample_steps):
    """RK4 on i dy/dt = H(t) y for a (dim, n) stack.

    Returns the samples at the sorted, distinct ``sample_steps`` as one
    (n_samples, dim, n) array, written in place as the steps reach them.
    """
    n_steps = max(1, int(np.ceil(t_final / dt_req)))
    dt = t_final / n_steps
    h0 = static.matrix
    y = y0.astype(complex)
    slot = {int(s): i for i, s in enumerate(sample_steps)}
    out = np.empty((len(slot),) + y.shape, dtype=complex)
    if 0 in slot:
        out[slot[0]] = y
    if drive is None:
        step = _rk4_taylor_step(-1j * dt * h0)
        for k in range(1, n_steps + 1):
            y = step @ y
            if k in slot:
                out[slot[k]] = y
    else:
        hd = drive.matrix
        amps = _amplitude_samples(amp, dt, n_steps)
        for k in range(1, n_steps + 1):
            a1, a2, a3 = amps[2 * k - 2], amps[2 * k - 1], amps[2 * k]
            k1 = -1j * (h0 @ y + a1 * (hd @ y))
            z = y + (0.5 * dt) * k1
            k2 = -1j * (h0 @ z + a2 * (hd @ z))
            z = y + (0.5 * dt) * k2
            k3 = -1j * (h0 @ z + a2 * (hd @ z))
            z = y + dt * k3
            k4 = -1j * (h0 @ z + a3 * (hd @ z))
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if k in slot:
                out[slot[k]] = y
    return out, dt, n_steps


def evolve_state(
    h: Union[SparseOperator, DrivenOperator],
    psi0: np.ndarray,
    t_final: float,
    dt: float = DEFAULT_DT,
    n_samples: int = DEFAULT_SAMPLES,
) -> Trajectory:
    """Propagate a unit-norm state vector under i dpsi/dt = H(t) psi.

    Aborts with :class:`IntegrationError` if the norm drifts by more than
    1e-4 at any sample; a healthy run keeps the final norm within 1e-6 of 1.
    """
    dim = _parts(h)[0].space.dim
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (dim,):
        raise ValueError(f"psi0 must have shape ({dim},)")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-8:
        raise ValueError("psi0 must be normalized")
    return evolve_states(h, psi0[:, None], t_final, dt, n_samples)[0]


def evolve_states(
    h: Union[SparseOperator, DrivenOperator],
    kets: np.ndarray,
    t_final: float,
    dt: float = DEFAULT_DT,
    n_samples: int = DEFAULT_SAMPLES,
) -> list:
    """Propagate a (dim, n) stack of unit-norm kets in one integration.

    Returns one :class:`Trajectory` per column, each as :func:`evolve_state`
    returns it for that column alone.  Aborts with :class:`IntegrationError`
    if the norm of any column drifts by more than 1e-4 at any sample.
    """
    static, drive, amp = _parts(h)
    space = static.space
    kets = np.asarray(kets, dtype=complex)
    if kets.ndim != 2 or kets.shape[0] != space.dim:
        raise ValueError(f"kets must have shape ({space.dim}, n)")
    if np.abs(np.linalg.norm(kets, axis=0) - 1.0).max() > 1e-8:
        raise ValueError("every ket must be normalized")
    _check_dt(dt, _hamiltonian_scale(static, drive, amp, t_final))

    n_steps = max(1, int(np.ceil(t_final / dt)))
    steps = _sample_steps(n_steps, n_samples)
    states, dt_eff, n_steps = _rk4_states(static, drive, amp, kets, t_final, dt, steps)
    # squared norms per (sample, column) without a temporary of the stack's size
    parts = states.view(np.float64)  # real and imaginary parts interleaved
    sq = np.einsum("sdk,sdk->sk", parts, parts)
    drift = np.abs(np.sqrt(sq[:, 0::2] + sq[:, 1::2]) - 1.0)  # (n_samples, n)
    if not drift.max() <= DRIFT_ABORT:  # catches NaN from a blown-up run
        worst = int(np.argmax(np.nan_to_num(drift, nan=np.inf).max(axis=0)))
        raise IntegrationError(
            f"norm drift {drift.max():.2e} exceeds {DRIFT_ABORT:g} "
            f"(input column {worst}); reduce dt (used {dt_eff:g})"
        )
    return [
        Trajectory(
            times=steps * dt_eff,
            states=states[:, :, j],
            metadata={
                "space": space,
                "dt": dt_eff,
                "n_steps": n_steps,
                "final_norm_drift": float(drift[-1, j]),
            },
        )
        for j in range(kets.shape[1])
    ]


def evolve_states_final(
    h: Union[SparseOperator, DrivenOperator],
    kets: np.ndarray,
    t_final: float,
    dt: float = DEFAULT_DT,
) -> np.ndarray:
    """Final states of a (dim, n) stack of kets, no intermediate samples.

    For a time-independent Hamiltonian the fixed linear RK4 step is applied
    by repeated squaring with the step count rounded up to a power of two.
    """
    static, drive, amp = _parts(h)
    kets = np.asarray(kets, dtype=complex)
    _check_dt(dt, _hamiltonian_scale(static, drive, amp, t_final))
    if drive is None:
        n_steps = 1 << max(1, int(np.ceil(np.log2(max(2.0, t_final / dt)))))
        step = _rk4_taylor_step((-1j * t_final / n_steps) * static.matrix)
        final = _power_apply(step, kets, n_steps)
    else:
        final = _rk4_final(static, drive, amp, kets, t_final, dt)
    drift = np.abs(np.linalg.norm(final, axis=0) - 1.0)
    if not drift.max() <= DRIFT_ABORT:
        raise IntegrationError(
            f"norm drift {drift.max():.2e} exceeds {DRIFT_ABORT:g}; reduce dt"
        )
    return final


def _rk4_final(static, drive, amp, y0, t_final, dt_req):
    samples, _, _ = _rk4_states(
        static, drive, amp, y0, t_final, dt_req,
        [max(1, int(np.ceil(t_final / dt_req)))],
    )
    return samples[-1]


# ---------------------------------------------------------------------------
# Lindblad generator on sector chains
# ---------------------------------------------------------------------------

def jump_operators(space: HilbertSpace, decay: DecayParams) -> list:
    """(rate, operator) pairs of the master equation: cavity lowering at
    kappa per mode, |e> -> |0| and |e> -> |1> at gamma/2 per atom."""
    jumps = []
    if decay.kappa > 0:
        for k in (1, 2, 3):
            jumps.append((decay.kappa, cavity_lowering(space, k)))
    if decay.gamma > 0:
        for n in (1, 2, 3):
            jumps.append((decay.gamma / 2.0, atom_transition(space, n, 2, 0)))
            jumps.append((decay.gamma / 2.0, atom_transition(space, n, 2, 1)))
    return jumps


def _commutator_superop(h: sp.spmatrix, ident: sp.spmatrix) -> sp.spmatrix:
    # row-major vec: vec(A rho B) = (A kron B^T) vec(rho)
    return (-1j * (sp.kron(h, ident) - sp.kron(ident, h.T))).tocsr()


def _dissipator_superop(jumps, ident) -> sp.spmatrix:
    dim2 = ident.shape[0] ** 2
    ld = sp.csr_matrix((dim2, dim2), dtype=complex)
    for rate, c in jumps:
        cm = c.matrix
        cdc = (cm.conj().T @ cm).tocsr()
        ld = ld + rate * (
            sp.kron(cm, cm.conj())
            - 0.5 * (sp.kron(cdc, ident) + sp.kron(ident, cdc.T))
        )
    return ld.tocsr()


def _hermitian_basis(idx: np.ndarray, dim: int) -> sp.csr_matrix:
    """Sparse unitary U on a transpose-closed set of row-major vec indices.

    Row p of U gives coordinate p of U vec(rho): rho_ii at a diagonal
    position, (rho_ij + rho_ji)/sqrt2 at (i, j) with i < j, and
    i (rho_ij - rho_ji)/sqrt2 at (j, i).  All coordinates are real when
    rho is Hermitian.
    """
    rows, cols = np.divmod(idx, dim)
    local = np.arange(len(idx))
    partner = np.searchsorted(idx, cols * dim + rows)  # local index of (j, i)
    s = 1.0 / np.sqrt(2.0)
    diag, upper, lower = rows == cols, rows < cols, rows > cols
    r = np.concatenate([local[diag], local[upper], local[upper], local[lower], local[lower]])
    c = np.concatenate([local[diag], local[upper], partner[upper], partner[lower], local[lower]])
    v = np.concatenate([
        np.ones(diag.sum()),
        np.full(upper.sum(), s),
        np.full(upper.sum(), s),
        np.full(lower.sum(), 1j * s),
        np.full(lower.sum(), -1j * s),
    ])
    return sp.csr_matrix((v, (r, c)), shape=(len(idx), len(idx)), dtype=complex)


def _real_form(block: sp.spmatrix, basis: sp.csr_matrix) -> sp.csr_matrix:
    """basis @ block @ basis^dag as a real CSR matrix.

    Raises if the imaginary part exceeds 1e-12 of the largest entry, i.e.
    when the generator does not preserve Hermiticity.
    """
    m = (basis @ block @ basis.conj().T).tocsr()
    # .real and .imag of a non-canonical matrix are views into m.data, which
    # a later in-place canonicalization of either would permute
    m.sum_duplicates()
    if m.nnz:
        residue = float(np.abs(m.data.imag).max())
        if residue > _REAL_FORM_TOL * float(np.abs(m.data).max()):
            raise ValueError(
                f"generator is not Hermiticity-preserving: imaginary residue "
                f"{residue:.2e} in its real-coordinate form"
            )
    real = m.real.copy()
    real.eliminate_zeros()
    return real


class LindbladGenerator:
    """Vectorized master-equation generator, sliced into sector chains.

    ``d vec(rho)/dt = (L0 + A(t) Ld) vec(rho)`` with L0 the static
    commutator plus dissipator and Ld the drive commutator.  Both conserve
    delta = C(row) - C(col), so they are block diagonal over the chain
    index sets computed here.

    Each chain is a dict with ``delta``, ``idx`` (its row-major vec
    indices; the chains partition the operator space), ``l0``, ``ld`` and
    ``basis``.  For the delta = 0 chain ``basis`` is the unitary of
    :func:`_hermitian_basis` and ``l0``, ``ld`` are the real matrices
    basis @ L @ basis^dag; the other chains keep ``basis`` None and complex
    blocks in vec coordinates.
    """

    def __init__(
        self,
        space: HilbertSpace,
        static: SparseOperator,
        decay: DecayParams,
        drive: Optional[SparseOperator] = None,
        amplitude: Optional[Callable] = None,
    ):
        self.space = space
        self.decay = decay
        self.amplitude = amplitude
        self.static = static
        self.drive = drive
        dim = space.dim
        ident = sp.identity(dim, format="csr", dtype=complex)
        l0 = _commutator_superop(static.matrix, ident)
        jumps = jump_operators(space, decay)
        if jumps:
            l0 = (l0 + _dissipator_superop(jumps, ident)).tocsr()
        ld = _commutator_superop(drive.matrix, ident) if drive is not None else None

        cvals = space.excitations
        delta = (cvals[:, None] - cvals[None, :]).reshape(-1)
        self.chains = []
        for d in np.unique(delta):
            idx = np.where(delta == d)[0]
            c0 = l0[idx][:, idx].tocsr()
            cd = ld[idx][:, idx].tocsr() if ld is not None else None
            basis = None
            if d == 0:
                basis = _hermitian_basis(idx, dim)
                c0 = _real_form(c0, basis)
                cd = _real_form(cd, basis) if cd is not None else None
            self.chains.append(
                {"delta": int(d), "idx": idx, "l0": c0, "ld": cd, "basis": basis}
            )

    @property
    def is_constant(self) -> bool:
        return self.drive is None

    def hamiltonian_scale(self, t_final: float) -> float:
        return _hamiltonian_scale(self.static, self.drive, self.amplitude, t_final)

    # -- integration ---------------------------------------------------
    def evolve(
        self,
        rhos: np.ndarray,
        t_final: float,
        dt: float = DEFAULT_DT,
        sample_steps: Optional[Sequence[int]] = None,
        n_steps: Optional[int] = None,
    ) -> list:
        """Propagate a (n, dim, dim) stack; returns sampled (n, dim, dim) stacks.

        ``sample_steps`` indexes the requested RK4 steps (0 = initial state);
        when None only the final state is returned, and a time-independent
        generator is applied by repeated squaring of the one-step map.
        """
        dim = self.space.dim
        rhos = np.asarray(rhos, dtype=complex)
        squeeze = rhos.ndim == 2
        if squeeze:
            rhos = rhos[None]
        n = rhos.shape[0]
        vecd = rhos.reshape(n, dim * dim).T  # (dim^2, n)

        if n_steps is None:
            n_steps = max(1, int(np.ceil(t_final / dt)))
            if sample_steps is None and self.is_constant:
                n_steps = 1 << max(1, int(np.ceil(np.log2(max(2.0, t_final / dt)))))
        h = t_final / n_steps
        final_only = sample_steps is None
        steps = [n_steps] if final_only else sorted(set(int(s) for s in sample_steps))

        amps = None
        if not self.is_constant:
            amps = _amplitude_samples(self.amplitude, h, n_steps)
        out_vec = [np.zeros((dim * dim, n), dtype=complex) for _ in steps]
        for chain in self.chains:
            idx = chain["idx"]
            x = vecd[idx]
            cols = np.flatnonzero(np.any(x, axis=0))
            if cols.size == 0:
                continue
            x = np.ascontiguousarray(x[:, cols])
            basis = chain["basis"]
            if basis is not None:
                # (d, c) complex -> (d, 2c) real, parts interleaved
                x = np.ascontiguousarray(basis @ x).view(np.float64)
            if self.is_constant and len(idx) <= _POWER_DIM_LIMIT:
                sampled = self._propagate_chain_powered(chain, x, h, steps)
            else:
                sampled = self._propagate_chain_loop(chain, x, h, n_steps, steps, amps)
            if basis is not None:
                back = basis.conj().T.tocsr()
                sampled = [back @ np.ascontiguousarray(xs).view(complex) for xs in sampled]
            for buf, xs in zip(out_vec, sampled):
                buf[np.ix_(idx, cols)] = xs

        result = [v.T.reshape(n, dim, dim) for v in out_vec]
        if squeeze:
            result = [r[0] for r in result]
        return result

    def _propagate_chain_powered(self, chain, x, h, steps):
        step = _rk4_taylor_step((chain["l0"] * h).tocsr())
        if len(steps) == 1:
            return [_power_apply(step, x, steps[0])]
        # uniform sampling yields few distinct gaps: power the step matrix
        # once per gap, then advance sample to sample
        gap_power = {}
        sampled = []
        pos = 0
        cur = x
        for s in steps:
            gap = s - pos
            if gap > 0:
                if gap not in gap_power:
                    gap_power[gap] = np.linalg.matrix_power(step, gap)
                cur = gap_power[gap] @ cur
            else:
                cur = cur.copy()
            pos = s
            sampled.append(cur)
        return sampled

    def _propagate_chain_loop(self, chain, x, h, n_steps, steps, amps):
        l0 = chain["l0"]
        ld = chain["ld"]
        collect = {int(s) for s in steps}
        sampled = []
        if 0 in collect:
            sampled.append(x.copy())
        for k in range(1, n_steps + 1):
            if ld is None:
                k1 = l0 @ x
                z = x + (0.5 * h) * k1
                k2 = l0 @ z
                z = x + (0.5 * h) * k2
                k3 = l0 @ z
                z = x + h * k3
                k4 = l0 @ z
            else:
                a1, a2, a3 = amps[2 * k - 2], amps[2 * k - 1], amps[2 * k]
                k1 = l0 @ x + a1 * (ld @ x)
                z = x + (0.5 * h) * k1
                k2 = l0 @ z + a2 * (ld @ z)
                z = x + (0.5 * h) * k2
                k3 = l0 @ z + a2 * (ld @ z)
                z = x + h * k3
                k4 = l0 @ z + a3 * (ld @ z)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if k in collect:
                sampled.append(x.copy())
        return sampled


def evolve_density(
    h: Union[SparseOperator, DrivenOperator],
    decay: DecayParams,
    rho0: np.ndarray,
    t_final: float,
    dt: float = DEFAULT_DT,
    n_samples: int = DEFAULT_SAMPLES,
) -> Trajectory:
    """Integrate the Lindblad master equation for one density operator.

    Hermitian inputs are monitored: trace drift beyond 1e-4 of the initial
    trace aborts.  Non-Hermitian inputs (matrix units for channel
    reconstruction) are propagated unchecked; the generator is linear.
    """
    static, drive, amp = _parts(h)
    space = static.space
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (space.dim, space.dim):
        raise ValueError(f"rho0 must have shape ({space.dim}, {space.dim})")
    gen = LindbladGenerator(space, static, decay, drive, amp)
    _check_dt(dt, gen.hamiltonian_scale(t_final))

    n_steps = max(1, int(np.ceil(t_final / dt)))
    steps = _sample_steps(n_steps, n_samples)
    sampled = gen.evolve(rho0, t_final, dt, sample_steps=steps, n_steps=n_steps)
    states = np.stack(sampled)

    hermitian = np.abs(rho0 - rho0.conj().T).max() <= 1e-10 * max(1.0, np.abs(rho0).max())
    tr0 = float(np.trace(rho0).real)
    if hermitian:
        drift = np.abs(np.trace(states, axis1=1, axis2=2) - tr0)
        if not drift.max() <= DRIFT_ABORT * max(1.0, abs(tr0)):
            raise IntegrationError(
                f"trace drift {drift.max():.2e} exceeds {DRIFT_ABORT:g}; reduce dt"
            )
        final_drift = float(drift[-1])
    else:
        final_drift = float("nan")
    return Trajectory(
        times=steps * (t_final / n_steps),
        states=states,
        metadata={
            "space": space,
            "dt": t_final / n_steps,
            "n_steps": n_steps,
            "final_trace_drift": final_drift,
        },
    )


def evolve_density_final(
    h: Union[SparseOperator, DrivenOperator],
    decay: DecayParams,
    rhos: np.ndarray,
    t_final: float,
    dt: float = DEFAULT_DT,
) -> np.ndarray:
    """Final states of a (n, dim, dim) stack under the master equation.

    Batch fast path used by channel reconstruction: the stacked operators
    evolve independently (the generator is linear), and a time-independent
    generator is applied by repeated squaring per sector chain.
    """
    static, drive, amp = _parts(h)
    gen = LindbladGenerator(static.space, static, decay, drive, amp)
    _check_dt(dt, gen.hamiltonian_scale(t_final))
    return gen.evolve(np.asarray(rhos, dtype=complex), t_final, dt)[0]


# ---------------------------------------------------------------------------
# observables
# ---------------------------------------------------------------------------

def population_series(traj: Trajectory, targets: Sequence) -> dict:
    """Populations of basis states along a trajectory.

    ``targets`` are (atoms, photons) string pairs like ("110", "000"); a
    bare atom string implies vacuum cavities.  Returns a dict mapping the
    readable label to an array of probabilities over ``traj.times``.
    """
    space = traj.space
    out = {}
    for tgt in targets:
        atoms, photons = (tgt, "000") if isinstance(tgt, str) else tgt
        i = space.state_index(atoms, photons)
        if traj.is_density:
            p = traj.states[:, i, i].real
        else:
            p = np.abs(traj.states[:, i]) ** 2
        out[f"|{atoms}>|{photons}>"] = np.clip(p, 0.0, 1.0)
    return out
