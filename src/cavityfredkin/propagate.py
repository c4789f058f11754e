"""Schroedinger and Lindblad propagation with fixed-step 4th-order Runge-Kutta.

Drive amplitudes are sampled exactly at the RK4 sub-stage times (t, t+dt/2,
t+dt), preserving 4th-order accuracy for smooth pulses.  A drive callable
takes an array of times: a run evaluates it on all 2 n + 1 stage times in
one call (:func:`_amplitude_samples`).  The default step
dt = 0.01/g resolves the fastest frequency scale (~sqrt(3) g) comfortably;
callers may pass a smaller step.

The entries are :func:`evolve_states` and :func:`evolve_densities` (one
:class:`Trajectory` per input, sampled at ``n_samples`` steps; the density
ones lazily), their final-state forms :func:`evolve_states_final` and
:func:`evolve_density_final` (the final stack and a metadata dict), and
the single-input :func:`evolve_state` and :func:`evolve_density`.  All run
one path, :func:`_run`, which checks the inputs once (kets as a (dim, n)
stack of unit columns, density operators as an (n, dim, dim) stack), checks
dt once, counts the steps once and reports each run in one dict with the
same keys for kets and densities: ``dt`` (the step used, T / n_steps),
``n_steps`` and ``drift``, the final norm or trace drift of each input;
``Trajectory.metadata`` adds ``space``.  The dt rule (:func:`check_dt`) is
dt <= 0.05 / ||H||, and under a master equation also
dt * sum_c r_c ||c^dag c|| <= 2.785 over the jump operators
(:func:`decay_scale`), RK4's stability interval on the negative real axis:
a run that would overflow is rejected before its first step.  The
``_final`` and single-input names stay because the benchmark's tracer
(``gatebench/tracing.py``) wraps them by name.

Density dynamics run on the excitation-sector decomposition of the operator
space: the Lindblad generator conserves delta = C(row) - C(col) and never
increases the sector index, so vec(rho) splits into independent chains, the
largest of which (delta = 0 on the 68-state sector) has dimension 2830
instead of 68^2 = 4624.  For a time-independent generator the RK4 step map
is a fixed linear operator; it is built once per closure and applied by binary
powering, which is algebraically identical to stepping but costs O(log N)
matrix products instead of O(N).  The step count is ceil(T/dt) for every
run: binary powering of any N makes floor(log2 N) squarings plus one narrow
product with the input block per set bit of N, so a final state and the last
sample of a sampled run share one dt.  Sampled runs power the step map once
per distinct gap between sample steps and advance from sample to sample,
kets as well as density closures.

A time-dependent generator A + a(t) B is stepped, by one of two loops
chosen from the size of the stepped system.  One RK4 step with stage
amplitudes (a1, a2, a2, a3) is a fixed matrix polynomial: the sum of
a1^p1 a2^p2 a3^p3 Q_p over 12 monomials (p1 <= 1, p2 <= 2, p3 <= 1), each
Q_p a sum of products of at most four factors A or B times powers of h
(:func:`_rk4_map_terms`).  When this composed map has at most
``_MAP_NNZ_LIMIT`` = 11 000 nonzeros (the measured crossover),
:func:`_rk4_map_loop` builds the Q_p once on its pattern, forms the maps of
a chunk of steps as one product of the (steps, 12) monomial table with the
(12, nnz) Q_p, and makes one sparse product per step.  It sums in another
order than the stages: the resonant register kets move by at most 8e-14
(1e-12 is the stated bound).  A larger system keeps :func:`_rk4_loop`: each
RK4 stage makes one sparse product with the stacked CSR matrix [A; B],
whose upper rows give A y and lower rows B y with the same sums as two
separate products.

The delta = 0 chain is closed under (i, j) -> (j, i), and every Lindblad
generator maps rho^dag to L(rho)^dag.  In the orthonormal coordinates
rho_ii, (rho_ij + rho_ji)/sqrt2 and i (rho_ij - rho_ji)/sqrt2 (i < j), which
are real for Hermitian rho, that chain's generator is therefore a real
matrix, and so is its RK4 step map.  The chain is propagated in those
coordinates with real and imaginary parts of the input interleaved as a
real (d, 2c) array: a real d x d product costs a quarter of a complex one,
and the dense step map of the 2830-dimensional chain takes 64 MB instead of
128 MB.

Within a chain, each input column is propagated only on its closure: the
smallest set of chain indices that holds the column's nonzero entries and
that the generator maps into itself, in the chain's coordinates.  Closures
come from the sparsity pattern of |L0| + |Ld| by repeated boolean sparse
products; columns that share one are grouped, and columns that are zero in
the chain's coordinates are skipped.  A constant
generator powers one dense step map per closure, on the submatrix L0[R][:, R];
a time-dependent one stacks the closure blocks of all chains, one per column,
into one block-diagonal system per dtype and steps it in a single loop.
Indices outside a closure stay exactly zero, so the stepped path only drops
terms L_ij * 0.0.

The array is mirror-symmetric: U = (atom 1 <-> atom 3, cavity 1 <-> cavity 3)
x (-1)^(N_photon + N_e) (:func:`~cavityfredkin.hilbert.mirror_map`) commutes
with H0 and with the gate's drive Omega_3 = -Omega_1, and maps every jump
operator to +/- its mirror image, so S = U kron U commutes with L0 and Ld.
Every chain's basis composes its coordinates (the real ones on delta = 0,
the gauged or plain vec entries below on delta != 0) with the combinations
(e_p +/- sig e_q)/sqrt2 of each pair that S exchanges (S e_p = sig e_q;
:func:`_mirror_sectors`), and the chain's ``sector`` holds each
coordinate's eigenvalue +1 or -1 of S.  The generator's entries between
the sectors are then rounding residue of about 1e-18; they are deleted,
and each input column is propagated as two parts, one per sector, each on
a closure inside its sector.  On the 68-state sector the 36 register
matrix units of channel reconstruction reach at most 718 of the 2830
delta = 0 indices: the three largest closures (from |011><111|,
|011><011| and |111><111|, in the +1 sector) hold 718, 494 and 276.  The
powered delta = 0 closures sum to d^3 = 5.12e8, the complex dispersive
delta != 0 closures to 8.76e6 (largest 130), and the resonant step loop
does about 20 k multiply-adds per stage.  A mirror pair of inputs, such as
|000><101| and |000><110|, is propagated on the same closures, so the two
images agree to rounding.  A generator without the symmetry, e.g.
with Omega_3 != -Omega_1, has cross-sector entries above 1e-12 of its
largest entry in the summed matrices of a chain (:func:`_sector_split`
checks every chain of every generator); that chain keeps one sector, and
its input columns are propagated whole.

At Delta = 0 every entry of H0 and Hd flips the chiral parity
pi = [atom 1 in e] + [atom 3 in e] + n_2 (:func:`~cavityfredkin.hilbert.chiral_parity`),
and each jump operator shifts pi by one fixed amount.  In the diagonal
gauge rho_ij -> i^-(pi_i - pi_j) rho_ij every entry of L0 and Ld on a
delta != 0 chain is then exactly real, and so is -i H for kets in the
gauge psi_i -> i^-pi_i psi_i.  pi is mirror-invariant, so the gauge
commutes with the mirror rotation.  Such a block is propagated like the
delta = 0 chain: its input columns become real columns, and the all-zero
half of each matrix unit is skipped.  The resonant channel's stepped
closures of all five chains thus form one real system of 3526 rows and
20 491 nonzeros per stage, stepped in one loop.  The detuning's imaginary
diagonal keeps dispersive blocks complex, in vec coordinates
(:func:`_first_block` tries the coordinates in turn); the dispersive ket
block has the identity as its basis.

What depends only on the space is built once per space, on the first
generator (:func:`_chain_structure`): the chain index sets, each chain's
coordinates and its kappa and gamma dissipators of unit rate in those
coordinates.  A generator puts the commutators of its Hamiltonian into
the cached coordinates and adds kappa D_kappa + gamma D_gamma; this sums
in another order than transforming the summed generator, within 1e-15 of
the largest entry.  Two caches are keyed on exact content, so they never
change a result: :func:`_closure_groups` on the nonzero patterns of the
generator and of the input columns, and :func:`_spectral_norm` of the dt
check on the operator's space and CSR arrays.

Kets take the same path: :func:`_propagate` is the one core, and a ket
Hamiltonian is one block over all states with A = -i H0 and B = -i Hd,
gauged when the gauge is real, next to the density chains of
:class:`LindbladGenerator`.  On the 68-state sector the 8 register kets
fall into 6 closures of 22, 7 (two kets), 1, 29, 8 (two kets) and 1
states.  The resonant ket system stacks them into 83 rows with 214
nonzeros per stage (instead of 188 nonzeros times 8 columns); its composed
step map has 1 235 nonzeros, so it takes the map loop, while the lossy
resonant channel's system (265 427 map nonzeros) keeps the stage loop.  The
step count (:func:`_step_count`) and the abort rule on non-finite output
and on norm or trace drift (:func:`_check_drift`) each live in one helper,
called once per run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from cavityfredkin.hilbert import (
    HilbertSpace,
    SparseOperator,
    atom_transition,
    cavity_lowering,
    chiral_parity,
    mirror_map,
)

DEFAULT_DT = 0.01
DEFAULT_SAMPLES = 500

#: abort threshold on norm / trace drift
DRIFT_ABORT = 1e-4

#: closures larger than this fall back to step-by-step integration even for
#: constant generators (the dense one-step matrix would not fit comfortably)
_POWER_DIM_LIMIT = 4096

#: samples mapped back from a block's basis per sparse product (bounds the
#: temporaries of the back transform)
_SAMPLE_CHUNK = 64

#: a driven stepped system whose composed RK4 step map has at most this many
#: nonzeros is stepped by :func:`_rk4_map_loop`, one product per step; larger
#: ones by :func:`_rk4_loop`, four stage products per step.  The measured
#: crossover: both loops were timed (best of 7, 2000 steps at the 0.1 g
#: resonant pulse, 2-core machine) on the ket block and on unions of closure
#: blocks of the lossy resonant channel system with 4 000 to 16 000 map
#: nonzeros.  The map loop took 10 us a step on the ket block (1 235
#: nonzeros; stages 40 us) and 36-59 us at 9 965 (stages 54-75 us); the two
#: met between 11 000 and 12 000, where the product of the monomial table
#: falls to one step per chunk (``_SERIAL_GEMM``).  The lossy resonant
#: system's map has 265 427 nonzeros.
_MAP_NNZ_LIMIT = 11_000

#: multiply-adds of one product of the monomial table with the map terms.
#: OpenBLAS runs a gemm of at most 2^18 (65536 x GEMM_MULTITHREAD_THRESHOLD
#: 4) on one thread; a larger one starts its thread pool, whose spinning
#: threads compete with the sweep pool's other worker processes.
_SERIAL_GEMM = 2**18

#: largest imaginary part, relative to the largest entry, tolerated in the
#: real-coordinate form of the delta = 0 chain generator
_REAL_FORM_TOL = 1e-12

#: RK4's stability interval on the negative real axis: the step polynomial
#: 1 + z + z^2/2 + z^3/6 + z^4/24 has modulus at most 1 for -2.7853 <= z <= 0
_RK4_REAL_LIMIT = 2.785

#: entries kept by each of the content-keyed caches below (spectral norms,
#: closure groups); a sweep needs a handful
_MEMO_LIMIT = 32
_NORMS: dict = {}
_CLOSURES: dict = {}

#: i^k for k mod 4: the phases of the chiral gauge
_PHASES = np.array([1.0, 1j, -1.0, -1j])


class IntegrationError(RuntimeError):
    """Norm or trace drift exceeded the abort threshold."""


@dataclass(frozen=True)
class DecayParams:
    """Cavity decay rate kappa (per cavity) and total atomic decay rate gamma
    of |e> (per atom), with equal branching gamma/2 into |0> and |1>."""

    kappa: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if not (0 <= self.kappa < np.inf and 0 <= self.gamma < np.inf):
            raise ValueError(f"decay rates must be finite and >= 0, got kappa = "
                             f"{self.kappa}, gamma = {self.gamma}")

    @property
    def dissipative(self) -> bool:
        return self.kappa > 0 or self.gamma > 0


@dataclass(frozen=True)
class DrivenOperator:
    """Time-dependent Hamiltonian H(t) = static + amplitude(t) * drive.

    ``amplitude`` maps a float array of times to the array of drive values
    (a scalar result is broadcast); a run calls it twice, once on the 257
    probes of the dt check and once on all 2 n + 1 RK4 stage times.
    """

    static: SparseOperator
    drive: SparseOperator
    amplitude: Callable[[np.ndarray], np.ndarray]


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


def _memo(cache: dict, key, build: Callable):
    """``cache[key]``, from ``build()`` on a miss; beyond ``_MEMO_LIMIT``
    entries the oldest is dropped."""
    if key not in cache:
        if len(cache) >= _MEMO_LIMIT:
            del cache[next(iter(cache))]
        cache[key] = build()
    return cache[key]


def _arrays_key(*arrays: np.ndarray) -> tuple:
    """Exact hashable key of ``arrays``: the dtype, shape and bytes of each."""
    return tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays)


def _spectral_norm(op: SparseOperator) -> float:
    """Largest |eigenvalue| of a Hermitian operator, exact.

    The Hamiltonians here conserve C, so each excitation sector is
    diagonalized on its own (dense ``eigvalsh``); an operator that couples
    sectors is diagonalized whole.  The value is cached on the operator's
    exact content, its space and the CSR arrays of its matrix: the static
    Hamiltonian of a drive sweep and every drive are diagonalized once.
    """
    m = op.matrix.tocsr()
    return _memo(_NORMS, (op.space,) + _arrays_key(m.indptr, m.indices, m.data),
                 lambda: _sector_norm(m, op.space.excitations))


def _sector_norm(m: sp.csr_matrix, c: np.ndarray) -> float:
    """:func:`_spectral_norm` of the CSR matrix ``m``, uncached, for the
    excitation numbers ``c`` of its space."""
    coo = m.tocoo()
    if np.any(c[coo.row] != c[coo.col]):
        c = np.zeros_like(c)
    return max((float(np.abs(np.linalg.eigvalsh(m[idx][:, idx].toarray())).max())
                for idx in (np.flatnonzero(c == v) for v in np.unique(c))), default=0.0)


def check_dt(h: Union[SparseOperator, DrivenOperator], decay: Optional[DecayParams],
             t_final: float, dt: float):
    """The dt rule of every run, checked before its first step; raises
    ValueError with the bound.

    dt <= 0.05 / ||H||, with ||H|| = ||H0|| plus ||Hd|| times the largest
    |a(t)| on 257 probes over [0, t_final] (one call of the drive), and
    under a master equation (``decay`` not None) dt * :func:`decay_scale`
    <= ``_RK4_REAL_LIMIT``, so that no decay mode leaves RK4's stability
    interval on the negative real axis.  A configuration applies it to
    each of its points before any of them runs.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    static, drive, amp = _parts(h)
    hscale = _spectral_norm(static)
    if drive is not None:
        hscale += float(np.abs(amp(np.linspace(0.0, t_final, 257))).max()) * _spectral_norm(drive)
    if hscale > 0 and dt > 0.05 / hscale:
        raise ValueError(
            f"dt = {dt:g} too large for Hamiltonian scale {hscale:.3g}; "
            f"need dt <= {0.05 / hscale:.3g}"
        )
    scale = 0.0 if decay is None else decay_scale(static.space, decay)
    if dt * scale > _RK4_REAL_LIMIT:
        raise ValueError(
            f"dt = {dt:g} too large for decay scale {scale:.3g} (kappa = "
            f"{decay.kappa:g}, gamma = {decay.gamma:g}); "
            f"need dt <= {_RK4_REAL_LIMIT / scale:.3g}"
        )


def _step_count(t_final: float, dt: float) -> int:
    """RK4 steps of length at most ``dt`` over [0, t_final]: ceil(T/dt), for
    sampled and final-state runs, powered and stepped alike."""
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


def _map_pattern(a: sp.spmatrix, b: sp.spmatrix) -> Optional[sp.csr_matrix]:
    """Sparsity pattern of the composed RK4 step map of y' = (A + a(t) B) y,
    (I + |A| + |B|)^4 by two boolean squarings, with sorted indices; None
    once it has more than ``_MAP_NNZ_LIMIT`` nonzeros.  Absolute values, so
    that no entry cancels.
    """
    pattern = (abs(a) + abs(b) + sp.identity(a.shape[0], format="csr")).astype(bool)
    for _ in range(2):
        if pattern.nnz > _MAP_NNZ_LIMIT:
            return None
        pattern = pattern @ pattern
    if pattern.nnz > _MAP_NNZ_LIMIT:
        return None
    pattern.sort_indices()
    return pattern


def _rk4_map_terms(a: sp.spmatrix, b: sp.spmatrix, h: float) -> dict:
    """One RK4 step of y' = (A + a(t) B) y with stage amplitudes
    (a1, a2, a2, a3) as {(p1, p2, p3): Q_p}: the step map is
    sum_p a1^p1 a2^p2 a3^p3 Q_p.

    The stages of :func:`_rk4_loop` run on the identity with a1, a2 and a3
    kept symbolic; a stage multiplies by A + a_i B.  The map thus has 12
    monomials (p1 <= 1, p2 <= 2, p3 <= 1), and each Q_p is a sum of products
    of at most four factors A or B times powers of h.
    """
    eye = {(0, 0, 0): sp.identity(a.shape[0], dtype=np.result_type(a.dtype, b.dtype),
                                format="csr")}

    def add(terms, p, m):
        terms[p] = terms[p] + m if p in terms else m

    def rate(z, i):
        out = {}
        for p, m in z.items():
            add(out, p, a @ m)
            add(out, p[:i] + (p[i] + 1,) + p[i + 1:], b @ m)
        return out

    def plus_eye(*scaled):
        out = dict(eye)
        for c, z in scaled:
            for p, m in z.items():
                add(out, p, c * m)
        return out

    k1 = rate(eye, 0)
    k2 = rate(plus_eye((0.5 * h, k1)), 1)
    k3 = rate(plus_eye((0.5 * h, k2)), 1)
    k4 = rate(plus_eye((h, k3)), 2)
    return plus_eye((h / 6.0, k1), (h / 3.0, k2), (h / 3.0, k3), (h / 6.0, k4))


def _rk4_map_loop(a: sp.spmatrix, b: sp.spmatrix, pattern: sp.csr_matrix, y: np.ndarray,
                  h: float, n_steps: int, steps: Sequence[int], amps: list) -> np.ndarray:
    """:func:`_rk4_loop` for y' = (A + a(t) B) y with one sparse product per
    step: the composed step map of :func:`_rk4_map_terms` on ``pattern``
    (:func:`_map_pattern`).

    The maps of a chunk of steps are one product of their (steps, 12)
    monomial table with the (12, nnz) terms, each at most ``_SERIAL_GEMM``
    multiply-adds; the step map keeps its pattern and takes each step's
    values in turn.
    """
    terms = _rk4_map_terms(a, b, h)
    powers = sorted(terms)
    n = pattern.shape[0]
    entries = pattern.tocoo()
    flat = entries.row.astype(np.int64) * n + entries.col  # sorted, as the indices are
    table = np.zeros((len(powers), pattern.nnz), dtype=np.result_type(a.dtype, b.dtype))
    for row, p in zip(table, powers):
        q = terms[p].tocoo()
        row[np.searchsorted(flat, q.row.astype(np.int64) * n + q.col)] = q.data
    step = pattern.astype(table.dtype)
    out = np.empty((len(steps),) + y.shape, dtype=np.result_type(table, y))
    slot = {int(s): i for i, s in enumerate(steps)}
    if 0 in slot:
        out[slot[0]] = y
    amps = np.asarray(amps)
    a1, a2, a3 = amps[:-1:2], amps[1::2], amps[2::2]  # each step's stage amplitudes
    monomials = np.stack([a1**p1 * a2**p2 * a3**p3 for p1, p2, p3 in powers], axis=1)
    chunk = max(1, _SERIAL_GEMM // table.size)
    for first in range(0, n_steps, chunk):
        for k, values in enumerate(monomials[first:first + chunk] @ table, start=first + 1):
            step.data = values
            y = step @ y
            if k in slot:
                out[slot[k]] = y
    return out


def _amplitude_samples(amp: Callable, h: float, n_steps: int) -> list:
    """Drive amplitude at the RK4 stage times t_0, t_0 + h/2, t_1, ..., t_n
    (2 n + 1 values), from one call of ``amp`` on all of them.

    t_k is the running sum of k copies of h (``np.cumsum`` adds in order, so
    each t_k is the one that ``t += h`` reaches).  Step k uses entries 2k,
    2k + 1 and 2k + 2; the end of one step is the start of the next, so
    each distinct time is evaluated once.
    """
    t = np.concatenate(([0.0], np.cumsum(np.full(n_steps, h))))
    times = np.empty(2 * n_steps + 1)
    times[0::2] = t
    times[1::2] = t[:-1] + h / 2
    return np.broadcast_to(np.asarray(amp(times), dtype=float), times.shape).tolist()


def _propagate(blocks: Sequence[dict], x: np.ndarray, t_final: float, n_steps: int,
               steps: Optional[Sequence[int]], amplitude: Optional[Callable]) -> np.ndarray:
    """The one propagation core: y' = (A + a(t) B) y on independent blocks.

    ``x`` is an (N, n) stack of inputs.  A block is a dict with ``idx``, its
    rows of ``x``, a ``basis`` U with ``back`` = U^dag, and ``l0`` = A and
    ``ld`` = B in the coordinates U y (``ld`` None: constant, for every
    block of a call), real or complex; it propagates the parts of each
    column on its ``sector`` = +1 and -1 coordinates apart (A and B have no
    entries between them).  The nonzero
    columns of each block are propagated on their closures: a closure of a
    constant block is powered (up to ``_POWER_DIM_LIMIT`` indices); the
    others, of all blocks, are stacked one block per column and stepped in
    one loop per dtype: by composed step maps (:func:`_rk4_map_loop`) when a
    driven system's map is small (:func:`_map_pattern`), stage by stage
    (:func:`_rk4_loop`) otherwise.  ``steps`` are the sorted, distinct sample steps
    (None: step ``n_steps`` only); returns the (len(steps),) + x.shape
    samples.
    """
    h = t_final / n_steps
    steps = [n_steps] if steps is None else steps
    amps = None if amplitude is None else _amplitude_samples(amplitude, h, n_steps)
    # samples are stored rows first, (N, samples, n), and handed out as an
    # (samples, N, n) view: a block's samples then fill whole rows
    rows_first = np.zeros((x.shape[0], len(steps), x.shape[1]), dtype=complex)
    out = rows_first.transpose(1, 0, 2)
    stepped = []  # (A, B, inputs, (buf, rows, cols)) of the closures left to the step loop
    mapped = []  # (block, columns) of the blocks propagated, mapped back below
    for block in blocks:
        idx, l0, ld = block["idx"], block["l0"], block["ld"]
        y = x[idx]
        cols = np.flatnonzero(np.any(y, axis=0))
        if cols.size == 0:
            continue
        y = np.ascontiguousarray(block["basis"] @ y[:, cols])
        # the samples land in the block's coordinates at its rows of ``out``
        buf, rmap, cmap = out, idx, cols
        if l0.dtype == np.float64:
            # (d, c) complex -> (d, 2c) real, parts interleaved, and the
            # samples in the same places of the real view of ``out``
            y = y.view(np.float64)
            buf = rows_first.view(np.float64).transpose(1, 0, 2)
            cmap = np.stack([2 * cols, 2 * cols + 1], axis=1).ravel()
        # each column's two mirror-sector parts; their closures lie in
        # disjoint rows of the one column they both fill
        cmap = np.tile(cmap, 2)
        plus = (block["sector"] > 0)[:, None]
        y = np.concatenate([np.where(plus, y, 0.0), np.where(plus, 0.0, y)], axis=1)
        mapped.append((block, cols))
        for rows, group in _closure_groups(l0, ld, y):
            where = np.ix_(rows, group)
            if ld is None and len(rows) <= _POWER_DIM_LIMIT:
                step = _rk4_taylor_step((l0[rows][:, rows] * h).tocsr())
                sampled = _powered_samples(step, np.ascontiguousarray(y[where]), steps)
                buf[(slice(None),) + np.ix_(rmap[rows], cmap[group])] = sampled
            else:
                stepped.append((l0[rows][:, rows], None if ld is None else ld[rows][:, rows],
                                y[where], (buf, rmap[rows], cmap[group])))
    for dtype in {s[2].dtype for s in stepped}:
        part = [s for s in stepped if s[2].dtype == dtype]
        # one block per column, each column's rows in closure order
        a, b = (None if part[0][k] is None else sp.block_diag(
            [s[k] for s in part for _ in range(s[2].shape[1])], format="csr") for k in (0, 1))
        y = np.concatenate([s[2].T.ravel() for s in part])
        pattern = None if b is None else _map_pattern(a, b)
        if pattern is not None:
            sampled = _rk4_map_loop(a, b, pattern, y, h, n_steps, steps, amps)
        else:
            stack = a if b is None else sp.vstack([a, b], format="csr")
            sampled = _rk4_loop(stack, y[:, None], h, n_steps, steps,
                                None if b is None else amps)[:, :, 0]
        pos = 0
        for _, _, y0, (buf, rows, group) in part:
            buf[:, np.tile(rows, len(group)), np.repeat(group, len(rows))] = \
                sampled[:, pos:pos + y0.size]
            pos += y0.size
    for block, cols in mapped:
        # back to vec coordinates, in place, one product per chunk of samples
        rows = block["idx"][:, None]
        for s in range(0, len(steps), _SAMPLE_CHUNK):
            z = rows_first[rows, s:s + _SAMPLE_CHUNK, cols]  # (d, c, samples)
            rows_first[rows, s:s + _SAMPLE_CHUNK, cols] = \
                (block["back"] @ z.reshape(len(rows), -1)).reshape(z.shape)
    return out


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


@functools.lru_cache(maxsize=16)
def _unit_decay_scales(space: HilbertSpace) -> tuple:
    """:func:`decay_scale` of unit kappa and of unit gamma on ``space``."""
    return tuple(sum(rate * float(abs(c.matrix.conj().T @ c.matrix).sum(axis=1).max())
                     for rate, c in jump_operators(space, unit))
                 for unit in (DecayParams(kappa=1.0), DecayParams(gamma=1.0)))


def decay_scale(space: HilbertSpace, decay: DecayParams) -> float:
    """sum_c r_c ||c^dag c|| over :func:`jump_operators`, the decay scale of
    the dt rule (:func:`check_dt`).  Each norm is the largest absolute
    row sum of c^dag c, which equals it here: every c^dag c is diagonal.
    Linear in the rates, from per-space sums of unit kappa and unit gamma."""
    kappa, gamma = _unit_decay_scales(space)
    return decay.kappa * kappa + decay.gamma * gamma


def _commutator_superop(h: sp.spmatrix, ident: sp.spmatrix) -> sp.spmatrix:
    # row-major vec: vec(A rho B) = (A kron B^T) vec(rho)
    return (-1j * (sp.kron(h, ident) - sp.kron(ident, h.T))).tocsr()


def _dissipator_superop(jumps, ident) -> sp.csr_matrix:
    """The dissipator of ``jumps``."""
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


def _pair_rotation(partner: np.ndarray, c: np.ndarray, second: complex) -> sp.csr_matrix:
    """Sparse unitary that keeps each coordinate p with partner[p] == p and
    turns each pair p < q = partner[p] into (e_p + c[p] e_q)/sqrt2 at row p
    and second * (e_p - c[q] e_q)/sqrt2 at row q (|c| = |second| = 1)."""
    local = np.arange(len(partner))
    fixed, first, last = partner == local, local < partner, local > partner
    s = 1.0 / np.sqrt(2.0)
    r = np.concatenate([local[fixed], local[first], local[first], local[last], local[last]])
    col = np.concatenate([local[fixed], local[first], partner[first], partner[last], local[last]])
    v = np.concatenate([np.ones(fixed.sum()), np.full(first.sum(), s), s * c[first],
                        np.full(last.sum(), second * s), -second * s * c[last]])
    return sp.csr_matrix((v, (r, col)), shape=(len(partner), len(partner)),
                         dtype=np.result_type(c, second))


def _hermitian_basis(idx: np.ndarray, dim: int) -> sp.csr_matrix:
    """Sparse unitary U on a transpose-closed set of row-major vec indices.

    Row p of U gives coordinate p of U vec(rho): rho_ii at a diagonal
    position, (rho_ij + rho_ji)/sqrt2 at (i, j) with i < j, and
    i (rho_ij - rho_ji)/sqrt2 at (j, i).  All coordinates are real when
    rho is Hermitian.
    """
    rows, cols = np.divmod(idx, dim)
    partner = np.searchsorted(idx, cols * dim + rows)  # local index of (j, i)
    return _pair_rotation(partner, np.ones(len(idx)), 1j)


def _mirror_sectors(idx: np.ndarray, dim: int, perm: np.ndarray, sign: np.ndarray,
                    hermitian: bool) -> tuple:
    """The mirror-sector rotation of a chain's coordinates, as a real sparse
    orthogonal R, and the sector (+1 or -1) of each of its coordinates, for
    the mirror U e_i = sign[i] e_perm[i] of
    :func:`~cavityfredkin.hilbert.mirror_map`.

    The coordinates are the vec entries of ``idx``, or with ``hermitian``
    those of its :func:`_hermitian_basis`.  S = U kron U maps coordinate p
    to sig[p] times coordinate q[p]: (i, j) goes to (perm i, perm j), in
    the Hermitian coordinates transposed with the sign of the imaginary part
    when the mirror flips i < j.  A fixed p keeps e_p in sector sig[p]; a
    pair p < q becomes (e_p + sig e_q)/sqrt2 at p, sector +1, and
    (e_p - sig e_q)/sqrt2 at q, sector -1.
    """
    rows, cols = np.divmod(idx, dim)
    pr, pc = perm[rows], perm[cols]
    flip = ((pr < pc) != (rows < cols)) & hermitian
    q = np.searchsorted(idx, np.where(flip, pc * dim + pr, pr * dim + pc))
    sig = sign[rows] * sign[cols] * np.where(flip & (rows > cols), -1.0, 1.0)
    local = np.arange(len(idx))
    sector = np.where(q == local, sig, np.where(local < q, 1.0, -1.0))
    return _pair_rotation(q, sig, 1), sector


def _sector_split(mats: list, sector: np.ndarray) -> np.ndarray:
    """Delete the entries of ``mats`` between the two sectors when they are
    rounding residue, at most 1e-12 of each matrix's largest entry, and
    return ``sector``.  Otherwise the generator is not mirror-symmetric:
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


def _real_part(m: sp.spmatrix) -> Optional[sp.csr_matrix]:
    """The complex ``m`` as a real CSR matrix, or None when an imaginary part
    exceeds ``_REAL_FORM_TOL`` of its largest entry."""
    m = m.tocsr()
    # .real and .imag of a non-canonical matrix are views into m.data, which
    # a later in-place canonicalization of either would permute
    m.sum_duplicates()
    if m.nnz and np.abs(m.data.imag).max() > _REAL_FORM_TOL * np.abs(m.data).max():
        return None
    real = m.real.copy()
    real.eliminate_zeros()
    return real


def _first_block(idx: np.ndarray, parts: list, coords: list, sector: np.ndarray,
                 dissipation: Sequence = ()) -> Optional[dict]:
    """The block of :func:`_propagate` on the rows ``idx`` for the generator
    A = parts[0] (plus ``dissipation``) and B = parts[1] (or None), in the
    first of ``coords`` that suits it; None when none does.

    ``parts`` are in vec coordinates, ``dissipation`` lists (rate, unit)
    pairs already in the coordinates, and each of ``coords`` is a (kind,
    basis, back = basis^dag) triple.  'hermitian' and 'gauge' coordinates
    must make the forms basis @ M @ back real to 1e-12 (:func:`_real_part`);
    'gauge' is not tried when A has an imaginary diagonal (the detuning),
    which no diagonal gauge removes; 'vec' keeps the forms complex.  The
    forms are split by :func:`_sector_split`, and the block records the
    ``kind`` taken.
    """
    diagonal = parts[0].diagonal().imag
    for kind, basis, back in coords:
        if kind == "gauge" and np.abs(diagonal).max(initial=0.0) > (
                _REAL_FORM_TOL * np.abs(parts[0].data).max(initial=0.0)):
            continue
        forms = [None if m is None else basis @ m @ back for m in parts]
        for rate, unit in dissipation:
            forms[0] = forms[0] + rate * unit
        if kind == "vec":
            for m in forms:
                if m is not None:
                    m.sum_duplicates()
        else:
            reals = [None if m is None else _real_part(m) for m in forms]
            if any(r is None and m is not None for m, r in zip(forms, reals)):
                continue
            forms = reals
        sector = _sector_split([m for m in forms if m is not None], sector)
        return {"kind": kind, "idx": idx, "l0": forms[0], "ld": forms[1], "basis": basis,
                "back": back, "sector": sector}
    return None


@functools.lru_cache(maxsize=16)
def _chain_structure(space: HilbertSpace) -> tuple:
    """The parts of every master-equation generator on ``space`` that no
    Hamiltonian or rate changes: the chains.  Built on the first
    :class:`LindbladGenerator` of a space and shared by every later one.

    A chain is a dict with ``delta``, ``idx`` (its row-major vec indices),
    ``sector`` and ``coords``, the coordinates its generator may take, in
    the order :func:`_first_block` tries them, each composed with the
    mirror rotation R of :func:`_mirror_sectors`: 'hermitian' (R times the
    :func:`_hermitian_basis`) on delta = 0; on delta != 0 'gauge' (R times
    the chiral gauge diag(i^-(pi_i - pi_j))) and then 'vec' (R alone).
    ``dissipators`` holds the kappa and the gamma dissipator of unit rate,
    real, in these coordinates.  They are the same in every candidate: a
    jump keeps pi_i - pi_j, so the gauge puts no phase on their entries.
    The generators share these objects: ``idx`` and ``sector`` are
    read-only, and the matrices stay private to this module.
    """
    dim = space.dim
    ident = sp.identity(dim, format="csr", dtype=complex)
    units = [_dissipator_superop(jump_operators(space, rates), ident)
             for rates in (DecayParams(kappa=1.0), DecayParams(gamma=1.0))]
    perm, sign = mirror_map(space)
    parity = chiral_parity(space)
    c = space.excitations
    delta = (c[:, None] - c[None, :]).reshape(-1)
    chains = []
    for d in np.unique(delta):
        idx = np.flatnonzero(delta == d)
        rot, sector = _mirror_sectors(idx, dim, perm, sign, hermitian=d == 0)
        if d == 0:
            coords = [("hermitian", rot @ _hermitian_basis(idx, dim))]
        else:
            rows, cols = np.divmod(idx, dim)
            gauge = sp.diags(_PHASES[(parity[rows] - parity[cols]) % 4].conj())
            coords = [("gauge", rot @ gauge), ("vec", rot)]
        coords = [(kind, basis.tocsr(), basis.conj().T.tocsr()) for kind, basis in coords]
        _, basis, back = coords[-1]
        idx.flags.writeable = sector.flags.writeable = False
        chains.append({"delta": int(d), "idx": idx, "sector": sector, "coords": coords,
                       "dissipators": [_real_part(basis @ m[idx][:, idx] @ back)
                                       for m in units]})
    return tuple(chains)


def _closure_groups(l0: sp.spmatrix, ld: Optional[sp.spmatrix], x: np.ndarray) -> list:
    """Columns of ``x`` grouped by closure, as (rows, cols) index pairs.

    The closure of a column is the smallest set of indices that holds the
    column's nonzero entries and that ``l0`` and ``ld`` map into itself.  It
    is reached for all columns at once by boolean sparse products with the
    pattern of |l0| + |ld| (absolute values, so that no entry cancels),
    repeated until nothing is added.  All-zero columns belong to no group.
    The groups (read-only arrays) are cached on an exact key, the nonzero
    patterns of ``l0``, ``ld`` and ``x``: the points of a sweep and the
    generators of one rate pattern find them once.
    """
    key = tuple((m.shape,) + _arrays_key(m.indptr, m.indices, m.data != 0)
                for m in (l0, ld) if m is not None)
    key += ((ld is None, x.shape) + _arrays_key(np.packbits(x != 0)),)
    return _memo(_CLOSURES, key, lambda: _find_closure_groups(l0, ld, x))


def _find_closure_groups(l0, ld, x) -> list:
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
    for arrays in groups:
        for a in arrays:
            a.flags.writeable = False
    return tuple(groups)


class LindbladGenerator:
    """Vectorized master-equation generator, sliced into sector chains.

    ``d vec(rho)/dt = (L0 + A(t) Ld) vec(rho)`` with L0 the static
    commutator plus dissipator and Ld the drive commutator.  Both conserve
    delta = C(row) - C(col), so they are block diagonal over the chain
    index sets of :func:`_chain_structure`.

    A generator has two parts.  What depends only on the space (the
    chains, their coordinates and the unit dissipators) is built once per
    space; the commutators of the static and drive parts of ``h`` (a
    :class:`SparseOperator` or :class:`DrivenOperator`, as the entries
    take it) are put into those coordinates on each build, and the dissipator is
    kappa D_kappa + gamma D_gamma.  Each chain is a block of
    :func:`_propagate`, a dict with ``delta``, ``idx`` (its row-major vec
    indices; the chains partition the operator space), ``kind``, ``basis``,
    ``back`` = basis^dag, ``l0``, ``ld`` and ``sector``.  Every ``basis``
    holds the mirror-sector rotation of :func:`_mirror_sectors`, and
    ``l0`` and ``ld`` are basis @ L @ basis^dag without entries between
    the sectors, ``sector`` the +1 or -1 sector of each coordinate (all +1
    when L lacks the mirror symmetry: :func:`_sector_split` checks the
    summed matrices of every chain).  ``kind`` names the coordinates:
    'hermitian' on delta = 0 (real ``l0`` and ``ld``; a generator that is
    not real there is not Hermiticity-preserving and raises ValueError);
    on delta != 0 'gauge' where the chiral gauge makes them real
    (Delta = 0), and 'vec' otherwise, complex.
    """

    def __init__(self, h: Union[SparseOperator, DrivenOperator], decay: DecayParams):
        static, self.drive, self.amplitude = _parts(h)
        self.space = static.space
        self.decay = decay
        ident = sp.identity(self.space.dim, format="csr", dtype=complex)
        hams = [None if op is None else _commutator_superop(op.matrix, ident)
                for op in (static, self.drive)]
        self.chains = []
        for chain in _chain_structure(self.space):
            idx = chain["idx"]
            block = _first_block(
                idx, [None if m is None else m[idx][:, idx] for m in hams], chain["coords"],
                chain["sector"], [(rate, unit) for rate, unit in
                                  zip((decay.kappa, decay.gamma), chain["dissipators"]) if rate])
            if block is None:
                raise ValueError(
                    "generator is not Hermiticity-preserving: imaginary part above "
                    f"{_REAL_FORM_TOL:g} of its largest entry in its real-coordinate form")
            self.chains.append({"delta": chain["delta"], **block})

    @property
    def is_constant(self) -> bool:
        return self.drive is None

    # -- integration ---------------------------------------------------
    def evolve(self, rhos: np.ndarray, t_final: float, n_steps: int,
               sample_steps: Optional[Sequence[int]] = None) -> tuple:
        """Propagate a complex (n, dim, dim) stack by ``n_steps`` RK4 steps
        of t_final / n_steps; returns the (samples, n, dim, dim) array of
        sampled stacks and the final trace drift of each input.

        ``sample_steps`` are the sorted, distinct RK4 steps to sample (0 =
        the input); when None only the final state is returned, and a
        time-independent generator is applied by repeated squaring of the
        one-step map.  The chains are the blocks of :func:`_propagate`.
        Non-finite output, or a trace of any input drifting by more than
        1e-4, aborts with :class:`IntegrationError`.  The inputs and dt
        are checked by :func:`_run`, not here.
        """
        dim = self.space.dim
        n = rhos.shape[0]
        vecd = rhos.reshape(n, dim * dim).T  # (dim^2, n)
        out = _propagate(self.chains, vecd, t_final, n_steps, sample_steps, self.amplitude)
        # the diagonal of rho sits at every (dim + 1)-th vec index
        drift = _check_drift("trace", out, out[:, :: dim + 1].sum(axis=1),
                             vecd[:: dim + 1].sum(axis=0), t_final / n_steps, self.decay)
        # a view: ``out`` holds each vec index's samples in one row
        return out.transpose(0, 2, 1).reshape(len(out), n, dim, dim), drift


# ---------------------------------------------------------------------------
# the run path and its entries
# ---------------------------------------------------------------------------

def _ket_block(static: SparseOperator, drive: Optional[SparseOperator]) -> dict:
    """The one block of a ket run: A = -i H0 and B = -i Hd over all states,
    in the chiral gauge psi_i -> i^-pi_i psi_i when that makes them real
    (Delta = 0), otherwise in vec coordinates (an identity basis); one
    sector."""
    space = static.space
    gauge = sp.diags(_PHASES[chiral_parity(space) % 4].conj(), format="csr")
    eye = sp.identity(space.dim, format="csr", dtype=complex)
    return _first_block(np.arange(space.dim),
                        [None if h is None else (-1j * h.matrix).tocsr() for h in (static, drive)],
                        [("gauge", gauge, gauge.conj().T.tocsr()), ("vec", eye, eye)],
                        np.ones(space.dim))


def _run(h, decay: Optional[DecayParams], batches, t_final: float, dt: float,
         n_samples: Optional[int]):
    """The one run path behind every propagation entry.

    Checks dt (:func:`check_dt`), builds the one :class:`LindbladGenerator`
    under ``decay`` (kets without), counts the steps (:func:`_step_count`)
    and the sample steps (:func:`_sample_steps`; None without
    ``n_samples``: final state only), then checks and propagates each input
    stack of ``batches`` in turn: (dim, n) kets with unit columns as one
    block with A = -i H0 and B = -i Hd, or (n, dim, dim) density operators
    through :meth:`LindbladGenerator.evolve`; any other input raises
    ValueError.  Yields, per stack, the (samples, n, ...) states, the
    sample steps and the run's metadata: ``dt`` (the step used,
    T / n_steps), ``n_steps`` and ``drift``, the final norm or trace drift
    of each input as :func:`_check_drift` returned it.
    """
    check_dt(h, decay, t_final, dt)
    static, drive, amp = _parts(h)
    dim = static.space.dim
    gen = None if decay is None else LindbladGenerator(h, decay)
    n_steps = _step_count(t_final, dt)
    steps = None if n_samples is None else _sample_steps(n_steps, n_samples)
    if gen is None:
        block = _ket_block(static, drive)
    for x in batches:
        x = np.asarray(x, dtype=complex)
        if gen is None:
            if x.ndim != 2 or x.shape[0] != dim:
                raise ValueError(f"kets must have shape ({dim}, n), got {x.shape}")
            if np.abs(np.linalg.norm(x, axis=0) - 1.0).max() > 1e-8:
                raise ValueError("every ket must be normalized")
            out = _propagate([block], x, t_final, n_steps, steps, amp)
            # squared norms per (sample, column) without a temporary of the stack's size
            parts = out.view(np.float64)  # real and imaginary parts interleaved
            sq = np.einsum("sdk,sdk->sk", parts, parts)
            drift = _check_drift("norm", out, np.sqrt(sq[:, 0::2] + sq[:, 1::2]), 1.0,
                                 t_final / n_steps)
            out = out.transpose(0, 2, 1)
        else:
            if x.shape[1:] != (dim, dim):
                raise ValueError(f"density operators must have shape (n, {dim}, {dim}), "
                                 f"got {x.shape}")
            out, drift = gen.evolve(x, t_final, n_steps, steps)
        yield out, steps, {"dt": t_final / n_steps, "n_steps": n_steps, "drift": drift}


def _trajectories(h, decay, batches, t_final, dt, n_samples):
    """One :class:`Trajectory` per input of :func:`_run`, produced when asked
    for; its metadata is the run's, with the input's own ``drift``."""
    space = _parts(h)[0].space
    for states, steps, run in _run(h, decay, batches, t_final, dt, n_samples):
        for j, drift in enumerate(run["drift"]):
            yield Trajectory(times=steps * run["dt"], states=states[:, j],
                             metadata={"space": space, **run, "drift": float(drift)})


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
    return list(_trajectories(h, None, [kets], t_final, dt, n_samples))


def evolve_states_final(
    h: Union[SparseOperator, DrivenOperator],
    kets: np.ndarray,
    t_final: float,
    dt: float = DEFAULT_DT,
) -> tuple:
    """Final states of a (dim, n) stack of unit-norm kets, no intermediate
    samples, as a (dim, n) array with the run's metadata (``dt``,
    ``n_steps`` and the ``drift`` of each column).

    For a time-independent Hamiltonian the fixed linear RK4 step is applied
    by binary powering.
    """
    states, _, run = next(_run(h, None, [kets], t_final, dt, None))
    return states[0].T, run


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
    return evolve_states(h, np.asarray(psi0)[:, None], t_final, dt, n_samples)[0]


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
    return _trajectories(h, decay, (np.asarray(rho0)[None] for rho0 in rhos),
                         t_final, dt, n_samples)


def evolve_density_final(
    h: Union[SparseOperator, DrivenOperator],
    decay: DecayParams,
    rhos: np.ndarray,
    t_final: float,
    dt: float = DEFAULT_DT,
) -> tuple:
    """Final states of a (n, dim, dim) stack under the master equation, with
    the run's metadata (``dt``, ``n_steps`` and the ``drift`` of each input).

    Batch fast path used by channel reconstruction: the stacked operators
    evolve independently (the generator is linear), and a time-independent
    generator is applied by repeated squaring per closure.
    """
    states, _, run = next(_run(h, decay, [rhos], t_final, dt, None))
    return states[0], run


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
