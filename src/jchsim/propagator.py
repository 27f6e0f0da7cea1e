"""Time evolution of sector states and observable sampling.

Default path is short-iterate Lanczos approximation of exp(-iHt)v with
adaptive sub-stepping; a dense eigendecomposition oracle is available
for small sectors.  The mean of the diagonal is removed before
exponentiation and restored as a global phase afterwards (an allowed
constant shift), keeping the tridiagonal exponentials well scaled.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dstevd

from .constants import to_microseconds
from .fock_basis import BasisState
from .hamiltonian import excitation_totals, spin_sign_matrix
from .textio import write_text_atomic

DENSE_ORACLE_CAP = 2000
# A Lanczos iteration computes its exact error estimate only when the
# estimate's leading Taylor term is within this factor of the budget.
SCREEN_FACTOR = 10.0


class PropagationError(RuntimeError):
    """Adaptive stepping failed (step underflow or breakdown)."""


@dataclass
class EvolutionRequest:
    """What to evolve and how.

    Either excited_ions (1-based indices of spins prepared up, zero
    phonons) or an explicit amplitudes vector must be given.
    """

    total_time: float
    samples: int
    excited_ions: list = None
    amplitudes: np.ndarray = None
    method: str = "krylov"
    krylov_tol: float = 1e-9
    max_krylov_dim: int = 40
    store_states: bool = False

    def __post_init__(self):
        if self.total_time <= 0:
            raise ValueError("total_time must be positive")
        if self.samples < 2:
            raise ValueError("need at least 2 samples")
        if not 0.0 < self.krylov_tol <= 1e-3:
            raise ValueError("krylov_tol must lie in (0, 1e-3]")
        if self.method not in ("krylov", "dense-oracle"):
            raise ValueError(f"unknown method {self.method!r}")
        if (self.excited_ions is None) == (self.amplitudes is None):
            raise ValueError("give exactly one of excited_ions or amplitudes")


@dataclass
class TimeSeries:
    """Per-ion <sigma_z> sampled on a uniform time grid."""

    times: np.ndarray               # s
    sigma_z: np.ndarray             # (samples, N)
    norm_drift: np.ndarray          # |  ||v|| - 1  | per sample
    excitation_drift: np.ndarray    # | <exc> - M | per sample
    states: np.ndarray = None       # optional (samples, D) complex

    def to_csv(self, path):
        """CSV: time_us, sz_ion1..N, norm_drift, excitation_drift."""
        n = self.sigma_z.shape[1]
        header = (
            "time_us,"
            + ",".join(f"sz_ion{i + 1}" for i in range(n))
            + ",norm_drift,excitation_drift"
        )
        lines = [header]
        for k in range(self.times.size):
            cells = [f"{to_microseconds(self.times[k]):.17g}"]
            cells += [f"{v:.17g}" for v in self.sigma_z[k]]
            cells.append(f"{self.norm_drift[k]:.17g}")
            cells.append(f"{self.excitation_drift[k]:.17g}")
            lines.append(",".join(cells))
        write_text_atomic(path, "\n".join(lines) + "\n")


def prepare_initial_state(basis, excited_ions):
    """Product state: listed ions spin-up, all others down, zero phonons."""
    ions = list(excited_ions)
    if len(set(ions)) != len(ions):
        raise ValueError(f"duplicate ion index in {ions}")
    if any(i < 1 or i > basis.n_ions for i in ions):
        raise ValueError(f"ion indices must lie in 1..{basis.n_ions}")
    if len(ions) != basis.excitations:
        raise ValueError(
            f"{len(ions)} excited ions but the sector has M={basis.excitations}"
        )
    state = BasisState(sum(1 << (i - 1) for i in ions), [0] * basis.n_ions)
    v = np.zeros(basis.dimension, dtype=complex)
    v[basis.index_of(state)] = 1.0
    return v


def average_sigma_z(series):
    """Per-sample mean of <sigma_z> across ions."""
    return series.sigma_z.mean(axis=1)


def _lanczos_step(matvec, v, dt, err_budget, m_max):
    """One Lanczos exp(-i dt H) v attempt with full reorthogonalization.

    Returns (new_v, error_estimate) or (None, best_estimate) if the
    budget was not met within m_max iterations.

    The tridiagonal exponential is computed only at iterations that can
    pass: the leading Taylor term of its last entry, |dt|^k b_1..b_k / k!,
    is kept as a running product, and the exact estimate is skipped while
    that term (capped at 1, a bound on the entry) puts the estimate above
    SCREEN_FACTOR times the budget.  Breakdown and the last allowed
    iteration are always checked.  Skipping can only add iterations; it
    never accepts a state with a larger estimate.
    """
    dim = v.size
    tau = abs(dt)
    beta0 = np.linalg.norm(v)
    V = np.empty((m_max, dim), dtype=complex)
    V[0] = v / beta0
    alphas = np.empty(m_max)
    betas = np.empty(m_max)  # betas[k] couples V[k-1] and V[k]
    lead = 1.0  # |dt|^k * betas[1] ... betas[k] / k!
    scale = 1.0  # max(1, |alphas[0]|, ..., |alphas[k]|)
    err = np.inf

    k = 0
    while True:
        w = matvec(V[k])
        if k > 0:
            w -= betas[k] * V[k - 1]
        alphas[k] = np.real(np.vdot(V[k], w))
        w -= alphas[k] * V[k]
        # Full reorthogonalization keeps the subspace orthonormal so the
        # propagated norm stays at machine precision.
        # conj(V @ conj(w)) equals conj(V) @ w without copying V.
        w -= V[: k + 1].T @ np.conj(V[: k + 1] @ np.conj(w))
        beta = float(np.linalg.norm(w))

        scale = max(scale, abs(alphas[k]))
        happy = beta < 1e-13 * scale
        last = k + 1 >= m_max
        # u is a unit column, so |u[-1]| <= 1 caps the Taylor term.
        screen = tau * beta * min(lead, 1.0)
        if happy or (k >= 1 and (last or screen <= SCREEN_FACTOR * err_budget)):
            u = _tridiag_expm_col(alphas[: k + 1], betas[1 : k + 1], dt)
            # Integrated-residual estimate: the ODE residual of the Krylov
            # approximant is beta * u_m(s) * v_{m+1}, so the step error is
            # bounded by roughly |dt| * beta * |u_m|.
            err = 0.0 if happy else tau * beta * abs(u[-1])
            if err <= err_budget or happy:
                return beta0 * (V[: k + 1].T @ u), err
        if last:
            return None, err
        betas[k + 1] = beta
        V[k + 1] = w / beta
        k += 1
        lead *= tau * beta / k


def _tridiag_expm_col(alphas, offdiag, dt):
    """First column of exp(-i dt T) for symmetric tridiagonal T."""
    if alphas.size == 1:
        return np.exp(-1j * dt * alphas)
    # LAPACK dstevd, the routine eigh_tridiagonal calls for all eigenpairs.
    evals, evecs, info = dstevd(alphas, offdiag)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd failed with info={info}")
    return evecs @ (np.exp(-1j * dt * evals) * evecs[0])


def propagate_krylov(h, v0, t_target, tol, m_max, time_scale=None):
    """Advance v0 by exp(-i H t_target) with adaptive Lanczos sub-steps.

    tol is an error budget for the whole evolution; each sub-step gets a
    share proportional to its duration relative to time_scale (defaults
    to |t_target|).  The mean-diagonal shift is restored as a phase.
    """
    if t_target == 0.0:
        return v0.copy()
    if time_scale is None:
        time_scale = abs(t_target)
    shift = float(np.mean(h.diagonal()))
    mat = h.matrix

    def matvec(x):
        # Two real matvecs beat letting scipy upcast the real CSR against
        # a complex vector on every call.
        y = (mat @ x.real).astype(complex)
        y += 1j * (mat @ x.imag)
        y -= shift * x
        return y

    v = v0.astype(complex, copy=True)
    t = 0.0
    direction = 1.0 if t_target > 0 else -1.0
    remaining = abs(t_target)
    dt = remaining
    min_dt = 1e-18 * time_scale

    while remaining > 0.0:
        dt = min(dt, remaining)
        budget = tol * dt / time_scale
        new_v, err = _lanczos_step(matvec, v, direction * dt, budget, m_max)
        if new_v is None:
            dt *= 0.5
            if dt < min_dt:
                raise PropagationError(
                    f"time step underflow at t={t:.3e}s (err estimate {err:.3e})"
                )
            continue
        v = new_v
        t += direction * dt
        remaining -= dt
        dt *= 1.5  # gentle growth; clipped to the remaining interval above

    return v * np.exp(-1j * shift * t_target)


def evolve(h, req, basis):
    """Sample per-ion <sigma_z> on a uniform grid under the Hamiltonian."""
    if req.amplitudes is not None:
        v0 = np.asarray(req.amplitudes, dtype=complex)
        if v0.shape != (basis.dimension,):
            raise ValueError("amplitude vector length does not match the sector")
        nrm = np.linalg.norm(v0)
        if abs(nrm - 1.0) > 1e-8:
            raise ValueError(f"initial state norm {nrm} is not 1")
    else:
        v0 = prepare_initial_state(basis, req.excited_ions)

    times = np.linspace(0.0, req.total_time, req.samples)

    if req.method == "dense-oracle":
        if basis.dimension > DENSE_ORACLE_CAP:
            raise ValueError(
                f"dense oracle limited to D <= {DENSE_ORACLE_CAP}, "
                f"got D = {basis.dimension}"
            )
        evals, evecs = np.linalg.eigh(h.dense())
        coeffs = evecs.conj().T @ v0

    # Observables are taken as each sample is produced, so only the
    # current state is held unless the caller asked for all of them.
    m = basis.excitations
    signs, totals = spin_sign_matrix(basis), excitation_totals(basis)
    sz = np.empty((req.samples, basis.n_ions))
    norm_drift = np.empty(req.samples)
    exc_drift = np.empty(req.samples)
    kept = []
    v = v0
    for k, t in enumerate(times):
        if req.method == "dense-oracle":
            v = evecs @ (np.exp(-1j * evals * t) * coeffs)
        elif k > 0:
            v = propagate_krylov(
                h,
                v,
                t - times[k - 1],
                req.krylov_tol,
                req.max_krylov_dim,
                time_scale=req.total_time,
            )
        nrm = np.linalg.norm(v)
        norm_drift[k] = abs(nrm - 1.0)
        probs = np.abs(v / nrm) ** 2
        sz[k] = probs @ signs
        exc_drift[k] = abs(float(probs @ totals) - m)
        if req.store_states:
            kept.append(v)

    return TimeSeries(
        times=times,
        sigma_z=sz,
        norm_drift=norm_drift,
        excitation_drift=exc_drift,
        states=np.array(kept) if req.store_states else None,
    )
