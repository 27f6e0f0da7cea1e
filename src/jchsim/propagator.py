"""Time evolution of sector states and observable sampling.

There is one evolution path: a short-iterate Lanczos approximation of
exp(-iHt)v with adaptive sub-stepping, one propagate_krylov call through
all sample times.  A Lanczos step reads every sample its basis reaches
within budget off that basis (dense output), keeps the basis
semi-orthogonal (it reorthogonalizes only where Simon's omega-recurrence
estimates a loss of orthogonality above min(step budget, sqrt(eps))),
and works in the arithmetic of its start vector: the real initial state
gets a real basis, one real sparse product per matvec, and a complex
matvec is two contiguous real products.  Only observables are kept.
A constant shift of H changes neither the Krylov space nor the error
estimate, only a phase no observable sees: propagate_krylov
exponentiates the matrix it is given, and the Hamiltonians of a detuning
scan, evolved as one block-diagonal system, are each centred on their
own mean diagonal.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fock_basis import MirrorEvenBasis
from .hamiltonian import SparseHamiltonian

# Largest Krylov subspace of one Lanczos step, in complex rows; a real
# basis holds twice the rows in the same bytes.  A step that does not
# reach its first sample within it is halved.
MAX_KRYLOV_DIM = 40
# A Lanczos iteration computes its exact error estimate only when the
# estimate's leading Taylor term is within this factor of the budget.
SCREEN_FACTOR = 10.0


class PropagationError(RuntimeError):
    """Adaptive stepping failed (step underflow or breakdown)."""


@dataclass
class EvolutionRequest:
    """What to evolve and to what tolerance.

    excited_ions are the 1-based indices of the spins prepared up, with
    zero phonons.
    """

    total_time: float
    samples: int
    excited_ions: list
    krylov_tol: float = 1e-9

    def __post_init__(self):
        if self.total_time <= 0:
            raise ValueError("total_time must be positive")
        if self.samples < 2:
            raise ValueError("need at least 2 samples")
        if not 0.0 < self.krylov_tol <= 1e-3:
            raise ValueError("krylov_tol must lie in (0, 1e-3]")


@dataclass
class TimeSeries:
    """Per-ion <sigma_z> sampled on a uniform time grid."""

    times: np.ndarray               # s
    sigma_z: np.ndarray             # (samples, N)
    norm_drift: np.ndarray          # |  ||v|| - 1  | per sample
    excitation_drift: np.ndarray    # | <exc> - M | per sample


def prepare_initial_state(basis, excited_ions):
    """Product state: listed ions spin-up, all others down, zero phonons.

    On a MirrorEvenBasis the excited set must be its own mirror image,
    so that the state is one even basis vector.
    """
    ions = list(excited_ions)
    if len(set(ions)) != len(ions):
        raise ValueError(f"duplicate ion index in {ions}")
    if any(i < 1 or i > basis.n_ions for i in ions):
        raise ValueError(f"ion indices must lie in 1..{basis.n_ions}")
    if len(ions) != basis.excitations:
        raise ValueError(
            f"{len(ions)} excited ions but the sector has M={basis.excitations}"
        )
    if isinstance(basis, MirrorEvenBasis) and (
        set(ions) != {basis.n_ions + 1 - i for i in ions}
    ):
        raise ValueError(f"excited ions {ions} do not form a mirror-even state")
    spins = np.zeros((1, basis.n_ions), dtype=bool)
    spins[0, [i - 1 for i in ions]] = True
    v = np.zeros(basis.dimension, dtype=complex)
    v[basis.indices(spins, np.zeros(spins.shape, dtype=int))] = 1.0
    return v


def _lanczos_step(matvec, v, dts, budgets, V):
    """Lanczos exp(-i dt H) v at several dt off one semi-orthogonal basis.

    dts are the step's sample offsets, of one sign and increasing in
    magnitude, and budgets their error budgets.  V, of v's dtype, is the
    array the basis is written into, so that a caller allocates it once;
    its rows bound the step.  Returns (coords, err): coords[j] holds the
    coordinates in V of the state at dts[j] (see _from_basis) for each
    leading sample whose estimate passed, and err is the last one's
    estimate; or (None, best estimate) if the first sample did not pass.

    Dense output: at each check, T's eigendecomposition is computed once
    and the next samples are read off it in turn, up to the first that
    fails its budget.  Once the first sample has passed at k1 rows, the
    basis grows only to the bytes of k1 complex rows (2 k1 real rows), so
    a complex step stops at its first sample.

    The exact estimate is computed only at iterations that can pass: the
    leading Taylor term of the last entry of exp(-i dt T)[:, 0] for the
    next sample, |dt|^k b_1..b_k / k!, is kept as a running product, and
    the exact estimate is skipped while that term (capped at 1, a bound
    on the entry) puts the estimate above SCREEN_FACTOR times the budget.
    Breakdown and the last allowed iteration are always checked.  Skipping
    can only add iterations; it never accepts a state with a larger
    estimate.

    The basis is kept semi-orthogonal, not orthonormal (Simon, Math. Comp.
    1984): Simon's omega-recurrence estimates the overlaps <V[k+1], V[j]>
    from the alphas and betas alone, and a new vector is reorthogonalized
    against the whole basis only when the largest estimate exceeds
    min(budgets[0], sqrt(eps)), and once more on the next iteration.
    Lanczos for f(H)v tolerates a loss of orthogonality at that level
    (Druskin, Greenbaum & Knizhnerman, SISC 1998), and a tiny budget
    reorthogonalizes every iteration.  The check follows the accept test,
    so the accepting iteration never pays for it.
    """
    eps = np.finfo(float).eps
    threshold = min(budgets[0], math.sqrt(eps))
    complex_bytes = np.dtype(complex).itemsize
    rows = len(V)  # lowered to the memory rule's limit once a sample passes
    beta0 = np.linalg.norm(v)
    np.divide(v, beta0, out=V[0])
    alphas = np.empty(len(V))
    betas = np.zeros(len(V))  # betas[k] couples V[k-1] and V[k]; betas[0] = 0
    # omega[j + 1] estimates <V[k], V[j]> for the current k, and
    # omega_prev[j + 1] the same for k - 1; entry 0 stays 0.
    omega = np.zeros(len(V) + 1)
    omega_prev = np.zeros(len(V) + 1)
    omega[1] = 1.0
    again = False  # reorthogonalize this iteration's vector as well
    coords = []
    tau = abs(dts[0])  # |dt| of the next unreached sample
    lead = 1.0  # tau^k * betas[1] ... betas[k] / k!
    scale = 1.0  # max(1, |alphas[0]|, ..., |alphas[k]|)
    err = np.inf

    k = 0
    while True:
        w = matvec(V[k])
        if k > 0:
            w -= betas[k] * V[k - 1]
        alphas[k] = np.real(np.vdot(V[k], w))
        w -= alphas[k] * V[k]
        beta = float(np.linalg.norm(w))

        scale = max(scale, abs(alphas[k]))
        happy = beta < 1e-13 * scale
        n = len(coords)
        # u is a unit column, so |u[-1]| <= 1 caps the Taylor term.
        screen = tau * beta * min(lead, 1.0)
        if happy or (k >= 1 and (k + 1 >= rows
                                 or screen <= SCREEN_FACTOR * budgets[n])):
            expm_col = _tridiag_expm_col(alphas[: k + 1], betas[1 : k + 1])
            while n < len(dts):
                u = expm_col(dts[n])
                # Integrated-residual estimate: the ODE residual of the
                # Krylov approximant is beta * u_m(s) * v_{m+1}, so the
                # error at dt is bounded by roughly |dt| * beta * |u_m|.
                est = 0.0 if happy else abs(dts[n]) * beta * abs(u[-1])
                if est > budgets[n]:
                    if n == 0:
                        err = est
                    break
                coords.append(beta0 * u)
                err = est
                n += 1
            if n == len(dts):
                return coords, err
            if coords:
                rows = min(rows, len(coords[0]) * complex_bytes // V.itemsize)
                lead *= (abs(dts[n]) / tau) ** k
                tau = abs(dts[n])
        if k + 1 >= rows:
            return coords or None, err

        # Simon's recurrence for the overlaps of V[k+1] with V[:k], each
        # grown by a rounding term eps * (beta_{k+1} + beta_{j+1}).
        est = (betas[1 : k + 1] * omega[2 : k + 2]
               + (alphas[:k] - alphas[k]) * omega[1 : k + 1]
               + betas[:k] * omega[:k]
               - betas[k] * omega_prev[1 : k + 1])
        est += np.copysign(eps * (beta + betas[1 : k + 1]), est)
        omega_prev, omega = omega, omega_prev
        omega[1 : k + 1] = est / beta
        omega[k + 1] = eps
        omega[k + 2] = 1.0
        if again or np.max(np.abs(est), initial=0.0) > threshold * beta:
            # conj(V @ conj(w)) equals conj(V) @ w without copying V.
            w -= V[: k + 1].T @ np.conj(V[: k + 1] @ np.conj(w))
            beta = float(np.linalg.norm(w))
            omega[1 : k + 2] = eps
            again = not again
        betas[k + 1] = beta
        np.divide(w, beta, out=V[k + 1])
        k += 1
        lead *= tau * beta / k


def _tridiag_expm_col(alphas, offdiag):
    """First column of exp(-i dt T) for symmetric tridiagonal T, as a
    function of dt: one eigendecomposition of T serves every dt."""
    # numpy's dense eigh of T, at most 2 * MAX_KRYLOV_DIM square, costs tens
    # of microseconds more per call than LAPACK's tridiagonal dstevd; over
    # the few hundred calls of a shipped run that is less than the 0.09 s
    # import of scipy.linalg (2-vCPU host), which simulate does not load.
    # eigh reads only the lower triangle.
    evals, evecs = np.linalg.eigh(np.diag(alphas) + np.diag(offdiag, -1))
    first = evecs[0]
    return lambda dt: evecs @ (np.exp(-1j * dt * evals) * first)


def _from_basis(V, u):
    """The state with coordinates u in the first len(u) rows of V."""
    rows = V[: len(u)]
    if np.iscomplexobj(rows):
        return rows.T @ u
    # rows.T @ u would upcast a complex copy of the real basis.
    out = np.empty(V.shape[1], dtype=complex)
    out.real = rows.T @ u.real
    out.imag = rows.T @ u.imag
    return out


def propagate_krylov(h, v0, t_target, tol, m_max, time_scale=None, observe=None):
    """Advance v0 by exp(-i H t) with adaptive Lanczos steps.

    t_target is one time, or the sample times as offsets from v0, of one
    sign and increasing in magnitude.  Returns the state at the last;
    observe(j, state), if given, gets the state at each t_target[j] as it
    is formed.  Only the current state is held.

    A step aims at the next sample, or part of the way after a refusal,
    and reads every further sample its basis passes (see _lanczos_step).
    A refused step is halved; the next is 1.5 times the last accepted
    one, across samples.  A state whose imaginary part is all zeros, as
    the initial product state's is, starts a real step: a float64 view of
    the same buffer, 2 m_max rows, one real product per matvec.

    tol is an error budget for the whole evolution, relative to the norm
    of v0; the state at each sample gets a share proportional to its time
    relative to time_scale (defaults to the last |t_target|).  The buffer
    of m_max complex rows is allocated once per call.  For a stacked
    vector of B unit blocks, evolve passes krylov_tol / sqrt(B), so that
    krylov_tol bounds the absolute error of the whole stacked vector.
    Only h.matrix is read.
    """
    offsets = np.atleast_1d(np.asarray(t_target, dtype=float))
    direction = -1.0 if offsets[-1] < 0 else 1.0
    taus = direction * offsets
    if time_scale is None:
        time_scale = taus[-1]
    if observe is None:
        observe = lambda j, state: None
    mat = h.matrix

    def matvec(x):
        if not np.iscomplexobj(x):
            return mat @ x
        # Two contiguous real products; scipy would otherwise upcast the
        # real CSR against the complex vector.
        out = np.empty_like(x)
        out.real = mat @ x.real
        out.imag = mat @ x.imag
        return out

    v = v0.astype(complex, copy=True)
    krylov_buffer = np.empty((m_max, v.size), dtype=complex)
    t = 0.0
    j = 0  # next sample
    dt = np.inf  # longest first offset the next step may try
    min_dt = 1e-18 * time_scale

    while True:
        while j < len(taus) and taus[j] <= t:
            observe(j, v)
            j += 1
        if j == len(taus):
            return v
        sub_step = dt < taus[j] - t  # part of the way to the next sample
        dts = np.array([dt]) if sub_step else taus[j:] - t
        start = v if np.any(v.imag) else v.real
        basis = krylov_buffer.view(start.dtype).reshape(-1, v.size)
        coords, err = _lanczos_step(matvec, start, direction * dts,
                                    tol * dts / time_scale, basis)
        if coords is None:
            dt = 0.5 * dts[0]
            if dt < min_dt:
                raise PropagationError(
                    f"time step underflow at t={direction * t:.3e}s "
                    f"(err estimate {err:.3e})"
                )
            continue
        for u in coords:
            v = _from_basis(basis, u)
            if not sub_step:
                observe(j, v)
                j += 1
        t = t + dts[0] if sub_step else taus[j - 1]
        dt = 1.5 * dts[len(coords) - 1]  # gentle growth, kept across samples


def evolve(h, req, basis):
    """Sample per-ion <sigma_z> on a uniform grid under the Hamiltonian.

    All samples come from one propagate_krylov call, which hands each
    state to the observables as it is formed.  h is one
    SparseHamiltonian, or a list of them on the same basis (the detunings
    of a scan), evolved together from the same initial state.  exp(-iHt)
    of a block-diagonal H is the block-diagonal of the blocks'
    exponentials, so the stacked state of all blocks is evolved in one
    propagate_krylov pass.  Where the blocks are stacked, each is centred
    on its own mean diagonal m_b, so the detunings' different means do
    not widen the stacked spectrum; that multiplies block b only by
    exp(i m_b t), a phase no sampled observable sees.  A single
    Hamiltonian is evolved as it is.  basis is a SectorBasis or a
    MirrorEvenBasis; on the latter, h must be built on it and the initial
    state must be even.  Returns one TimeSeries, or a list in the order of h.
    """
    hs = h if isinstance(h, list) else [h]
    blocks, dim = len(hs), basis.dimension
    v0 = prepare_initial_state(basis, req.excited_ions)
    times = np.linspace(0.0, req.total_time, req.samples)

    if blocks == 1:
        stacked, tol = hs[0], req.krylov_tol
    else:
        import scipy.sparse as sp  # loaded already by the blocks' build

        centred = [x.matrix - np.mean(x.matrix.diagonal()) * sp.identity(dim)
                   for x in hs]
        stacked = SparseHamiltonian(sp.block_diag(centred, format="csr"), None, basis)
        # The estimate is relative to the stacked norm sqrt(B), so this
        # keeps the absolute error of the whole stacked vector, and so of
        # each block, within krylov_tol.
        tol = req.krylov_tol / math.sqrt(blocks)

    # Only the current state is held; each sample's observables are read
    # off it: <sigma_z> = |v|^2 @ signs and <exc> = |v|^2 @ totals.
    # On a MirrorEvenBasis the signs are orbit means: sigma_z is diagonal,
    # so an even vector's <sigma_z^i> is |v_a|^2 times its orbit's mean.
    m = basis.excitations
    signs = basis.spin_signs().astype(float)
    totals = basis.spins.sum(axis=1) + basis.occupations.sum(axis=1)
    sz = np.empty((blocks, req.samples, basis.n_ions))
    norm_drift = np.empty((blocks, req.samples))
    exc_drift = np.empty((blocks, req.samples))

    def observe(k, v):
        for b, vb in enumerate(v.reshape(blocks, dim)):
            nrm = np.linalg.norm(vb)
            norm_drift[b, k] = abs(nrm - 1.0)
            probs = np.abs(vb / nrm) ** 2
            sz[b, k] = probs @ signs
            exc_drift[b, k] = abs(float(probs @ totals) - m)

    propagate_krylov(stacked, np.tile(v0, blocks), times, tol, MAX_KRYLOV_DIM,
                     time_scale=req.total_time, observe=observe)

    series = [
        TimeSeries(times=times, sigma_z=sz[b], norm_drift=norm_drift[b],
                   excitation_drift=exc_drift[b])
        for b in range(blocks)
    ]
    return series if isinstance(h, list) else series[0]
