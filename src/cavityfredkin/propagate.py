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
is a fixed linear operator; it is built once per closure and applied by binary
powering, which is algebraically identical to stepping but costs O(log N)
matrix products instead of O(N).  Powering does all log2 N squarings of a
power-of-two step count: applying a d x d power to a block of at most 8
columns streams the whole power from memory, at about 6 GFLOP/s against about
90 GFLOP/s for a squaring, so trading the last squarings for repeated
applications costs more than it saves.  Sampled runs power the step map once
per distinct gap between sample steps and advance from sample to sample,
kets as well as density closures.

A time-dependent generator A + a(t) B is stepped.  Each RK4 stage makes one
sparse product with the stacked CSR matrix [A; B], whose upper rows give A y
and lower rows B y with the same sums as two separate products.

The delta = 0 chain is closed under (i, j) -> (j, i), and every Lindblad
generator maps rho^dag to L(rho)^dag.  In the orthonormal coordinates
rho_ii, (rho_ij + rho_ji)/sqrt2 and i (rho_ij - rho_ji)/sqrt2 (i < j), which
are real for Hermitian rho, that chain's generator is therefore a real
matrix, and so is its RK4 step map.  The chain is propagated in those
coordinates with real and imaginary parts of the input interleaved as a
real (d, 2c) array: a real d x d product costs a quarter of a complex one,
and the dense step map of the 2830-dimensional chain takes 64 MB instead of
128 MB.  Chains with delta != 0 stay complex.

Within a chain, each input column is propagated only on its closure: the
smallest set of chain indices that holds the column's nonzero entries and
that the generator maps into itself (for the delta = 0 chain, in the real
coordinates).  Closures come from the sparsity pattern of |L0| + |Ld| by
repeated boolean sparse products; columns that share one are grouped, and
columns that are zero in the chain's coordinates are skipped.  A constant
generator powers one dense step map per closure, on the submatrix L0[R][:, R];
a time-dependent one stacks the closure blocks, one per column, into one
block-diagonal system and steps it in a single loop.  Indices outside a
closure stay exactly zero, so the stepped path only drops terms L_ij * 0.0.
On the 68-state sector the 36 register matrix units of channel
reconstruction reach at most 1390 of the 2830 delta = 0 indices, and at
most 718 once the chain is split by the mirror symmetry (below).

The array is mirror-symmetric: U = (atom 1 <-> atom 3, cavity 1 <-> cavity 3)
x (-1)^(N_photon + N_e) (:func:`~cavityfredkin.hilbert.mirror_map`) commutes
with H0 and with the gate's drive Omega_3 = -Omega_1, and maps every jump
operator to +/- its mirror image, so S = U kron U commutes with L0 and Ld.
The basis of the delta = 0 chain composes the real coordinates with the
combinations (e_p +/- sig e_q)/sqrt2 of each pair that S exchanges
(S e_p = sig e_q; :func:`_mirror_sectors`), and the chain's ``sector`` holds
each coordinate's eigenvalue +1 or -1 of S.  The generator's entries
between the sectors are then rounding residue of about 1e-18; they are
deleted, and each input column is propagated as two parts, one per sector,
each on a closure inside its sector.  The three largest closures of a
channel reconstruction (from |011><111|, |011><011| and |111><111|, in the
+1 sector) fall from 1390, 956 and 534 to 718, 494 and 276 indices, the
summed d^3 of the powered delta = 0 closures from 3.71e9 to 5.12e8, and
the resonant step loop does about 21 k multiply-adds per stage (29 k
unsplit, 751 k unpruned).  A generator without the symmetry, e.g. with
Omega_3 != -Omega_1, has cross-sector entries above 1e-12 of its largest
entry; it keeps one sector and is propagated as before.  The delta != 0
chains are not split.

Kets take the same path: :func:`_propagate` is the one core, and a ket
Hamiltonian is one block over all states with A = -i H0, B = -i Hd and no
basis, next to the density chains of :class:`LindbladGenerator`.  On the
68-state sector the 8 register kets fall into 6 closures of 22, 7 (two
kets), 1, 29, 8 (two kets) and 1 states, so the resonant ket loop makes
214 multiply-adds per stage instead of 188 nonzeros times 8 columns.  The
step count (:func:`_step_count`) and the abort rule on non-finite output
and on norm or trace drift (:func:`_check_drift`) each live in one helper.
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
    mirror_map,
)

DEFAULT_DT = 0.01
DEFAULT_SAMPLES = 500

#: abort threshold on norm / trace drift
DRIFT_ABORT = 1e-4

#: closures larger than this fall back to step-by-step integration even for
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


def _spectral_norm(op: SparseOperator) -> float:
    """Largest |eigenvalue| of a Hermitian operator, exact.

    The Hamiltonians here conserve C, so each excitation sector is
    diagonalized on its own (dense ``eigvalsh``); an operator that couples
    sectors is diagonalized whole.
    """
    m, c = op.matrix.tocoo(), op.space.excitations
    if np.any(c[m.row] != c[m.col]):
        c = np.zeros_like(c)
    m = m.tocsr()
    return max((float(np.abs(np.linalg.eigvalsh(m[idx][:, idx].toarray())).max())
                for idx in (np.flatnonzero(c == v) for v in np.unique(c))), default=0.0)


def _peak_amplitude(amp: Callable, t_final: float) -> float:
    ts = np.linspace(0.0, t_final, 257)
    return float(max(abs(amp(t)) for t in ts))


def _hamiltonian_scale(static, drive, amp, t_final) -> float:
    scale = _spectral_norm(static)
    if drive is not None:
        scale += _peak_amplitude(amp, t_final) * _spectral_norm(drive)
    return scale


def _check_dt(dt: float, hscale: float):
    if dt <= 0:
        raise ValueError("dt must be positive")
    if hscale > 0 and dt > 0.05 / hscale:
        raise ValueError(
            f"dt = {dt:g} too large for Hamiltonian scale {hscale:.3g}; "
            f"need dt <= {0.05 / hscale:.3g}"
        )


def _step_count(t_final: float, dt: float, power_of_two: bool = False) -> int:
    """RK4 steps of length at most ``dt`` over [0, t_final]: ceil(T/dt), or,
    for the final state of a constant generator (reached by binary
    powering), the next power of two >= 2."""
    if power_of_two:
        return 1 << max(1, int(np.ceil(np.log2(max(2.0, t_final / dt)))))
    return max(1, int(np.ceil(t_final / dt)))


def _sample_steps(n_steps: int, n_samples: int) -> np.ndarray:
    return np.unique(np.round(np.linspace(0, n_steps, n_samples)).astype(int))


def _check_drift(what: str, out: np.ndarray, conserved: np.ndarray, ref, dt: float,
                 decay: Optional[DecayParams] = None) -> np.ndarray:
    """The abort rule of every entry point; returns the final drift per column.

    ``out`` is a sampled (samples, ..., n) output and ``conserved`` the
    (samples, n) quantity the dynamics keeps at ``ref``: the norm of each
    ket, or the trace of each density input (a Lindblad generator and its
    RK4 step preserve tr X for any X).  Raises :class:`IntegrationError` on
    non-finite output, or when |conserved - ref| exceeds
    DRIFT_ABORT * max(1, |ref|) at any sample.
    """
    drift = np.abs(conserved - ref)
    bound = DRIFT_ABORT * np.maximum(1.0, np.abs(ref))
    finite = np.isfinite(out).reshape(-1, out.shape[-1]).all(axis=0)
    if not finite.all():
        col, problem = int(np.argmin(finite)), "non-finite output"
    elif not np.all(drift <= bound):
        col = int(np.argmax((drift / bound).max(axis=0)))
        problem = f"{what} drift {drift.max():.2e} exceeds {DRIFT_ABORT:g}"
    else:
        return drift[-1]
    rates = "" if decay is None else f", kappa = {decay.kappa:g}, gamma = {decay.gamma:g}"
    raise IntegrationError(f"{problem} in input column {col}; reduce dt (used {dt:g}{rates})")


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
    """step^n @ x by binary powering."""
    out = x
    p = step
    while n:
        if n & 1:
            out = p @ out
        n >>= 1
        if n:
            p = p @ p
    return out


def _powered_samples(step: np.ndarray, x: np.ndarray, steps: Sequence[int]) -> np.ndarray:
    """step^s @ x at the sorted, distinct sample steps ``steps``, as one
    (len(steps),) + x.shape array.

    One sample is reached by :func:`_power_apply`.  Otherwise the step map
    is powered once per distinct gap between samples (uniform sampling
    yields few) and each sample advances from the one before.
    """
    if len(steps) == 1:
        return _power_apply(step, x, int(steps[0]))[None]
    out = np.empty((len(steps),) + x.shape, dtype=np.result_type(step, x))
    gap_power = {}
    pos = 0
    cur = x
    for i, s in enumerate(steps):
        gap = int(s) - pos
        if gap > 0:
            if gap not in gap_power:
                gap_power[gap] = np.linalg.matrix_power(step, gap)
            cur = gap_power[gap] @ cur
        out[i] = cur
        pos = int(s)
    return out


def _rk4_loop(stack: sp.csr_matrix, y: np.ndarray, h: float, n_steps: int,
              steps: Sequence[int], amps: Optional[list] = None) -> np.ndarray:
    """Classical RK4 for y' = (A + a(t) B) y, sampled at the sorted, distinct
    ``steps`` (0 = the input) into one (len(steps),) + y.shape array.

    ``stack`` is the CSR matrix vstack([A, B]), or A alone when there is no
    drive; each stage makes one sparse product with it.  ``amps`` holds a(t)
    at the stage times as :func:`_amplitude_samples` returns them.
    """
    d = y.shape[0]
    out = np.empty((len(steps),) + y.shape, dtype=np.result_type(stack.dtype, y))
    slot = {int(s): i for i, s in enumerate(steps)}
    if 0 in slot:
        out[slot[0]] = y

    def rate(z, a):
        s = stack @ z
        return s if a is None else s[:d] + a * s[d:]

    a1 = a2 = a3 = None
    for k in range(1, n_steps + 1):
        if amps is not None:
            a1, a2, a3 = amps[2 * k - 2], amps[2 * k - 1], amps[2 * k]
        k1 = rate(y, a1)
        z = y + (0.5 * h) * k1
        k2 = rate(z, a2)
        z = y + (0.5 * h) * k2
        k3 = rate(z, a2)
        z = y + h * k3
        k4 = rate(z, a3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k in slot:
            out[slot[k]] = y
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


def _propagate(blocks: Sequence[dict], x: np.ndarray, t_final: float, n_steps: int,
               steps: Optional[Sequence[int]], amplitude: Optional[Callable]) -> np.ndarray:
    """The one propagation core: y' = (A + a(t) B) y on independent blocks.

    ``x`` is an (N, n) stack of inputs.  A block is a dict with ``idx``, its
    rows of ``x``, and ``l0`` = A and ``ld`` = B on those rows (``ld`` None:
    constant); a block with a ``basis`` U holds real A and B in the
    coordinates U y, maps back with ``back`` = U^dag, and propagates the
    parts of each column on its ``sector`` = +1 and -1 coordinates apart
    (A and B have no entries between them).  The nonzero columns of each
    block are propagated on their closures: a closure of a constant block
    is powered (up to ``_POWER_DIM_LIMIT`` indices), the others are stacked,
    one block per column, and stepped in one loop.  ``steps`` are the
    sorted, distinct sample steps (None: step ``n_steps`` only); returns
    the (len(steps),) + x.shape samples.
    """
    h = t_final / n_steps
    steps = [n_steps] if steps is None else steps
    amps = None if amplitude is None else _amplitude_samples(amplitude, h, n_steps)
    out = np.zeros((len(steps),) + x.shape, dtype=complex)
    for block in blocks:
        idx, l0, ld, basis = block["idx"], block["l0"], block["ld"], block.get("basis")
        y = x[idx]
        cols = np.flatnonzero(np.any(y, axis=0))
        if cols.size == 0:
            continue
        y = np.ascontiguousarray(y[:, cols])
        buf, rmap, cmap = out, idx, cols  # without a basis, samples land in ``out``
        if basis is not None:
            # (d, c) complex -> (d, 2c) real, parts interleaved
            y = np.ascontiguousarray(basis @ y).view(np.float64)
            buf = np.zeros((len(steps),) + y.shape, dtype=y.dtype)
            rmap, cmap = np.arange(y.shape[0]), np.tile(np.arange(y.shape[1]), 2)
            # each column's two mirror-sector parts; their closures lie in
            # disjoint rows of the one column of ``buf`` they both fill
            plus = (block["sector"] > 0)[:, None]
            y = np.concatenate([np.where(plus, y, 0.0), np.where(plus, 0.0, y)], axis=1)
        stepped = []  # (rows, columns) of the closures left to the step loop
        for rows, group in _closure_groups(l0, ld, y):
            if ld is None and len(rows) <= _POWER_DIM_LIMIT:
                step = _rk4_taylor_step((l0[rows][:, rows] * h).tocsr())
                where = np.ix_(rows, group)
                sampled = _powered_samples(step, np.ascontiguousarray(y[where]), steps)
                buf[(slice(None),) + np.ix_(rmap[rows], cmap[group])] = sampled
            else:
                stepped.append((rows, group))
        if stepped:
            # one block per column, in the order of the stacked entries (r, c)
            r = np.concatenate([np.tile(rows, len(group)) for rows, group in stepped])
            c = np.concatenate([np.repeat(group, len(rows)) for rows, group in stepped])
            a, b = (None if m is None else sp.block_diag(
                [m[rows][:, rows] for rows, group in stepped for _ in group], format="csr")
                for m in (l0, ld))
            stack = a if b is None else sp.vstack([a, b], format="csr")
            buf[:, rmap[r], cmap[c]] = _rk4_loop(stack, y[r, c][:, None], h, n_steps, steps,
                                                 None if b is None else amps)[:, :, 0]
        if basis is not None:
            # every sample back to vec coordinates in one product
            z = buf.view(complex)  # (samples, d, c)
            ns, d, k = z.shape
            z = block["back"] @ z.transpose(1, 0, 2).reshape(d, ns * k)
            out[:, idx[:, None], cols] = z.reshape(d, ns, k).transpose(1, 0, 2)
    return out


# ---------------------------------------------------------------------------
# state propagation
# ---------------------------------------------------------------------------

def _evolve_kets(h, kets, t_final, dt, n_samples=None):
    """Propagate a (dim, n) ket stack as one block, A = -i H0 and B = -i Hd.

    Returns the (samples, dim, n) output, the sample steps (None without
    ``n_samples``: final state only), the step count and the final norm
    drift per column.
    """
    static, drive, amp = _parts(h)
    _check_dt(dt, _hamiltonian_scale(static, drive, amp, t_final))
    block = {"idx": np.arange(static.space.dim), "l0": (-1j * static.matrix).tocsr(),
             "ld": None if drive is None else (-1j * drive.matrix).tocsr()}
    n_steps = _step_count(t_final, dt, n_samples is None and drive is None)
    steps = None if n_samples is None else _sample_steps(n_steps, n_samples)
    out = _propagate([block], np.asarray(kets, dtype=complex), t_final, n_steps, steps, amp)
    # squared norms per (sample, column) without a temporary of the stack's size
    parts = out.view(np.float64)  # real and imaginary parts interleaved
    sq = np.einsum("sdk,sdk->sk", parts, parts)
    drift = _check_drift("norm", out, np.sqrt(sq[:, 0::2] + sq[:, 1::2]), 1.0, t_final / n_steps)
    return out, steps, n_steps, drift


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
    space = _parts(h)[0].space
    kets = np.asarray(kets, dtype=complex)
    if kets.ndim != 2 or kets.shape[0] != space.dim:
        raise ValueError(f"kets must have shape ({space.dim}, n)")
    if np.abs(np.linalg.norm(kets, axis=0) - 1.0).max() > 1e-8:
        raise ValueError("every ket must be normalized")
    states, steps, n_steps, drift = _evolve_kets(h, kets, t_final, dt, n_samples)
    dt_eff = t_final / n_steps
    return [
        Trajectory(
            times=steps * dt_eff,
            states=states[:, :, j],
            metadata={
                "space": space,
                "dt": dt_eff,
                "n_steps": n_steps,
                "final_norm_drift": float(drift[j]),
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
    return _evolve_kets(h, kets, t_final, dt)[0][0]


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


def _mirror_sectors(idx: np.ndarray, dim: int, perm: np.ndarray, sign: np.ndarray) -> tuple:
    """The :func:`_hermitian_basis` H of ``idx`` composed with the mirror
    sectors, as the sparse unitary R H and the sector (+1 or -1) of each of
    its coordinates, for the mirror U e_i = sign[i] e_perm[i] of
    :func:`~cavityfredkin.hilbert.mirror_map`.

    S = U kron U maps coordinate p of H to sig[p] times coordinate q[p]:
    (i, j) goes to (perm i, perm j), transposed with the sign of the
    imaginary part when the mirror flips i < j.  A fixed p keeps e_p in
    sector sig[p]; a pair p < q becomes (e_p + sig e_q)/sqrt2 at p, sector
    +1, and (e_p - sig e_q)/sqrt2 at q, sector -1.
    """
    rows, cols = np.divmod(idx, dim)
    pr, pc = perm[rows], perm[cols]
    flip = (pr < pc) != (rows < cols)
    q = np.searchsorted(idx, np.where(flip, pc * dim + pr, pr * dim + pc))
    sig = sign[rows] * sign[cols] * np.where(flip & (rows > cols), -1.0, 1.0)
    local = np.arange(len(idx))
    fixed, first, second = q == local, local < q, local > q
    s = 1.0 / np.sqrt(2.0)
    r = np.concatenate([local[fixed], local[first], local[first], local[second], local[second]])
    c = np.concatenate([local[fixed], local[first], q[first], q[second], local[second]])
    v = np.concatenate([np.ones(fixed.sum()), np.full(first.sum(), s), s * sig[first],
                        np.full(second.sum(), s), -s * sig[second]])
    sector = np.where(fixed, sig, np.where(first, 1.0, -1.0))
    rot = sp.csr_matrix((v, (r, c)), shape=(len(idx), len(idx)))
    return (rot @ _hermitian_basis(idx, dim)).tocsr(), sector


def _sector_split(mats: list, sector: np.ndarray) -> np.ndarray:
    """Delete the entries of the real ``mats`` between the two sectors when
    they are rounding residue, at most 1e-12 of each matrix's largest entry,
    and return ``sector``.  Otherwise the generator is not mirror-symmetric:
    ``mats`` stay as they are and every coordinate is in one sector."""
    cross = [sector[np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))] != sector[m.indices]
             for m in mats]
    if any(np.abs(m.data[c]).max(initial=0.0) > _REAL_FORM_TOL * np.abs(m.data).max(initial=0.0)
           for m, c in zip(mats, cross)):
        return np.ones_like(sector)
    for m, c in zip(mats, cross):
        m.data[c] = 0.0
        m.eliminate_zeros()
    return sector


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


def _closure_groups(l0: sp.spmatrix, ld: Optional[sp.spmatrix], x: np.ndarray) -> list:
    """Columns of ``x`` grouped by closure, as (rows, cols) index pairs.

    The closure of a column is the smallest set of indices that holds the
    column's nonzero entries and that ``l0`` and ``ld`` map into itself.  It
    is reached for all columns at once by boolean sparse products with the
    pattern of |l0| + |ld| (absolute values, so that no entry cancels),
    repeated until nothing is added.  All-zero columns belong to no group.
    """
    pattern = abs(l0) if ld is None else abs(l0) + abs(ld)
    pattern.eliminate_zeros()
    pattern = pattern.astype(bool)
    reach = sp.csr_matrix(x != 0)
    while True:
        grown = reach + pattern @ reach
        if grown.nnz == reach.nnz:
            break
        reach = grown
    masks = reach.T.toarray()  # (columns, indices)
    _, first, group = np.unique(
        np.packbits(masks, axis=1), axis=0, return_index=True, return_inverse=True)
    groups = []
    for g, col in enumerate(first):
        rows = np.flatnonzero(masks[col])
        if rows.size:
            groups.append((rows, np.flatnonzero(group.ravel() == g)))
    return groups


class LindbladGenerator:
    """Vectorized master-equation generator, sliced into sector chains.

    ``d vec(rho)/dt = (L0 + A(t) Ld) vec(rho)`` with L0 the static
    commutator plus dissipator and Ld the drive commutator.  Both conserve
    delta = C(row) - C(col), so they are block diagonal over the chain
    index sets computed here.

    Each chain is a dict with ``delta``, ``idx`` (its row-major vec
    indices; the chains partition the operator space), ``l0``, ``ld``,
    ``basis``, ``back`` and ``sector``.  For the delta = 0 chain ``basis`` is
    the unitary of :func:`_hermitian_basis` composed with the mirror-sector
    combinations of :func:`_mirror_sectors`, ``back`` its inverse
    basis^dag, ``l0`` and ``ld`` the real matrices basis @ L @ basis^dag
    without entries between the sectors, and ``sector`` the +1 or -1 sector
    of each coordinate (all +1 when L lacks the mirror symmetry).  The other
    chains keep ``basis``, ``back`` and ``sector`` None and complex blocks in
    vec coordinates.
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
            basis = back = sector = None
            if d == 0:
                basis, sector = _mirror_sectors(idx, dim, *mirror_map(space))
                back = basis.conj().T.tocsr()
                c0 = _real_form(c0, basis)
                cd = _real_form(cd, basis) if cd is not None else None
                sector = _sector_split([c0] if cd is None else [c0, cd], sector)
            self.chains.append({"delta": int(d), "idx": idx, "l0": c0, "ld": cd,
                                "basis": basis, "back": back, "sector": sector})

    @property
    def is_constant(self) -> bool:
        return self.drive is None

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
        generator is applied by repeated squaring of the one-step map.  The
        chains are the blocks of :func:`_propagate`.  Non-finite output, or
        a trace of any input drifting by more than 1e-4, aborts with
        :class:`IntegrationError`.
        """
        dim = self.space.dim
        rhos = np.asarray(rhos, dtype=complex)
        squeeze = rhos.ndim == 2
        if squeeze:
            rhos = rhos[None]
        n = rhos.shape[0]
        vecd = rhos.reshape(n, dim * dim).T  # (dim^2, n)
        if n_steps is None:
            n_steps = _step_count(t_final, dt, sample_steps is None and self.is_constant)
        steps = None if sample_steps is None else sorted(set(int(s) for s in sample_steps))
        out = _propagate(self.chains, vecd, t_final, n_steps, steps,
                         None if self.is_constant else self.amplitude)
        # the diagonal of rho sits at every (dim + 1)-th vec index
        _check_drift("trace", out, out[:, :: dim + 1].sum(axis=1), vecd[:: dim + 1].sum(axis=0),
                     t_final / n_steps, self.decay)
        result = [v.T.reshape(n, dim, dim) for v in out]
        return [r[0] for r in result] if squeeze else result


def evolve_densities(
    h: Union[SparseOperator, DrivenOperator],
    decay: DecayParams,
    rhos,
    t_final: float,
    dt: float = DEFAULT_DT,
    n_samples: int = DEFAULT_SAMPLES,
):
    """Integrate the Lindblad master equation for each density operator of
    ``rhos``, yielding one :class:`Trajectory` per input.

    One generator serves every input.  The trajectories are produced one at
    a time, when asked for, so only one sampled series is held in memory.
    Each run aborts as :meth:`LindbladGenerator.evolve` does.
    """
    static, drive, amp = _parts(h)
    space = static.space
    _check_dt(dt, _hamiltonian_scale(static, drive, amp, t_final))
    gen = LindbladGenerator(space, static, decay, drive, amp)
    n_steps = _step_count(t_final, dt)
    steps = _sample_steps(n_steps, n_samples)
    for rho0 in rhos:
        rho0 = np.asarray(rho0, dtype=complex)
        if rho0.shape != (space.dim, space.dim):
            raise ValueError(f"rho0 must have shape ({space.dim}, {space.dim})")
        states = np.stack(gen.evolve(rho0, t_final, dt, sample_steps=steps, n_steps=n_steps))
        yield Trajectory(
            times=steps * (t_final / n_steps),
            states=states,
            metadata={
                "space": space,
                "dt": t_final / n_steps,
                "n_steps": n_steps,
                "final_trace_drift": float(abs(np.trace(states[-1]) - np.trace(rho0))),
            },
        )


def evolve_density(
    h: Union[SparseOperator, DrivenOperator],
    decay: DecayParams,
    rho0: np.ndarray,
    t_final: float,
    dt: float = DEFAULT_DT,
    n_samples: int = DEFAULT_SAMPLES,
) -> Trajectory:
    """Integrate the Lindblad master equation for one density operator, as
    :func:`evolve_densities` does for each of several."""
    return next(evolve_densities(h, decay, [rho0], t_final, dt, n_samples))


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
    generator is applied by repeated squaring per closure.
    """
    static, drive, amp = _parts(h)
    _check_dt(dt, _hamiltonian_scale(static, drive, amp, t_final))
    gen = LindbladGenerator(static.space, static, decay, drive, amp)
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
