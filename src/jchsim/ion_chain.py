"""Ion chain geometry and transverse phonon mode parameters.

Positions of N ions in an axial trap (harmonic plus optional quartic
term) are found by force balance.  From the geometry we derive the local
transverse frequencies omega_i, the Coulomb-mediated hopping rates t_ij,
their second-order corrected values (tilde), and the collective mode
spectrum.  Everything here is a pure function of its inputs.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import COULOMB_CONSTANT, YB171_MASS

# Damped Newton iteration limit and relative force residual for the
# equilibrium solve.
EQUILIBRIUM_MAX_ITER = 200
EQUILIBRIUM_TOL = 1e-12
# Secant iteration limit and relative step at which the top-mode anchor
# stops.
ANCHOR_MAX_ITER = 50
ANCHOR_RTOL = 1e-12


class EquilibriumError(RuntimeError):
    """Force-balance solve did not converge; carries the last residual."""

    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class ZigzagError(ValueError):
    """A local transverse frequency came out imaginary (omega_i^2 <= 0)."""

    def __init__(self, ion_index):
        super().__init__(
            f"transverse confinement too weak: omega_i^2 <= 0 at ion {ion_index}"
        )
        self.ion_index = ion_index


@dataclass(frozen=True)
class TrapParameters:
    """Trap frequencies of a chain of 171Yb+ ions.

    transverse_frequency and axial_quadratic are angular rad/s; the
    quartic coefficient is dimensionless (0 = pure harmonic axial
    potential).  The axial potential per ion is
    (1/2) m wz^2 z^2 + m wz^2 q z^4 / l^2 with l the Coulomb length
    scale below.  The ion mass m and the Coulomb constant k_C are the
    fixed values in jchsim.constants.
    """

    transverse_frequency: float
    axial_quadratic: float
    axial_quartic: float = 0.0

    def __post_init__(self):
        if self.transverse_frequency <= 0:
            raise ValueError("transverse_frequency must be positive")

    def length_scale(self):
        """Coulomb length l = (k_C / (m wz^2))^(1/3)."""
        return (
            COULOMB_CONSTANT / (YB171_MASS * self.axial_quadratic**2)
        ) ** (1.0 / 3.0)


@dataclass(frozen=True)
class ChainGeometry:
    """Equilibrium axial positions (m), strictly increasing."""

    positions: np.ndarray
    source: str = "explicit-spacings"

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", pos)
        if pos.ndim != 1 or pos.size < 1:
            raise ValueError("positions must be a non-empty 1-D array")
        if pos.size > 1 and not np.all(np.diff(pos) > 0):
            raise ValueError("positions must be strictly increasing")

    @property
    def n_ions(self):
        return self.positions.size

    @property
    def spacings(self):
        return np.diff(self.positions)

    @classmethod
    def from_spacings(cls, spacings_m):
        """Build a centered geometry from adjacent distances (m)."""
        d = np.asarray(spacings_m, dtype=float)
        z = np.concatenate([[0.0], np.cumsum(d)])
        z -= z.mean()
        return cls(positions=z)


@dataclass(frozen=True)
class ModeData:
    """Local and collective transverse mode parameters (angular rad/s)."""

    local_frequencies: np.ndarray      # omega_i
    corrected_local: np.ndarray        # omega-tilde_i
    hopping: np.ndarray                # t_ij, symmetric, zero diagonal
    corrected_hopping: np.ndarray      # t-tilde_ij
    collective_frequencies: np.ndarray  # sorted ascending

    @property
    def n_ions(self):
        return self.local_frequencies.size


def _dimensionless_force(u, quartic):
    """Axial force balance in units of the Coulomb length."""
    f = u + 4.0 * quartic * u**3
    du = u[:, None] - u[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        rep = np.sign(du) / du**2
    np.fill_diagonal(rep, 0.0)
    return f - rep.sum(axis=1)


def _force_jacobian(u, quartic):
    du = u[:, None] - u[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        inv3 = 1.0 / np.abs(du) ** 3
    np.fill_diagonal(inv3, 0.0)
    jac = -2.0 * inv3
    np.fill_diagonal(jac, 1.0 + 12.0 * quartic * u**2 + 2.0 * inv3.sum(axis=1))
    return jac


def equilibrium_positions(trap, n_ions):
    """Solve the axial force balance for n_ions in the given trap.

    Damped Newton iteration on the dimensionless force vector, started
    from the quasi-uniform spacing estimate.  Returns a centered,
    sorted ChainGeometry.
    """
    if n_ions < 1:
        raise ValueError("n_ions must be >= 1")
    if trap.axial_quadratic <= 0:
        raise ValueError("axial_quadratic must be positive to confine the chain")
    if n_ions == 1:
        return ChainGeometry(positions=np.zeros(1), source="solved-from-trap")

    q = trap.axial_quartic
    # Quasi-uniform initial guess (minimum-spacing scaling for harmonic traps).
    d0 = 2.018 / n_ions**0.559
    u = d0 * (np.arange(n_ions) - (n_ions - 1) / 2.0)

    resid = np.inf
    for _ in range(EQUILIBRIUM_MAX_ITER):
        f = _dimensionless_force(u, q)
        resid = np.max(np.abs(f)) / max(1.0, np.max(np.abs(u)))
        if resid < EQUILIBRIUM_TOL:
            break
        step = np.linalg.solve(_force_jacobian(u, q), f)
        # Backtrack until the residual norm decreases and order is kept.
        lam = 1.0
        fnorm = np.linalg.norm(f)
        for _ in range(60):
            trial = u - lam * step
            if np.all(np.diff(trial) > 0):
                if np.linalg.norm(_dimensionless_force(trial, q)) < fnorm:
                    break
            lam *= 0.5
        else:
            raise EquilibriumError(
                f"equilibrium solve stalled at residual {resid:.3e}", resid
            )
        u = u - lam * step
    else:
        raise EquilibriumError(
            f"equilibrium solve did not converge in {EQUILIBRIUM_MAX_ITER} "
            f"iterations (residual {resid:.3e})",
            resid,
        )

    z = u * trap.length_scale()
    if q == 0.0:
        z = z - z.mean()  # exact centering for the symmetric potential
    return ChainGeometry(positions=z, source="solved-from-trap")


def mode_parameters(transverse_frequency, geometry):
    """Local frequencies, hoppings, tilde corrections and collective modes.

    omega_i^2 = wx^2 - (k_C/m) sum_{j!=i} 1/z_ij^3
    t_ij      = k_C / (2 m sqrt(omega_i omega_j) z_ij^3)
    with wx = transverse_frequency (angular rad/s); tilde corrections
    subtract the second-order sums over the chain.
    Raises ZigzagError if any omega_i^2 <= 0, and ValueError if wx is
    not positive or wx^2 overflows.
    """
    wx = transverse_frequency
    if wx <= 0:
        raise ValueError("transverse_frequency must be positive")
    # a product of Python floats overflows to inf, where a power would raise
    if not math.isfinite(float(wx) * float(wx)):
        raise ValueError(f"transverse frequency {wx:.6e} rad/s: its square overflows")
    n = geometry.n_ions
    kc_over_m = COULOMB_CONSTANT / YB171_MASS

    z = geometry.positions
    dz = np.abs(z[:, None] - z[None, :])
    inv3 = np.zeros((n, n))
    off = ~np.eye(n, dtype=bool)
    inv3[off] = 1.0 / dz[off] ** 3

    w_sq = wx**2 - kc_over_m * inv3.sum(axis=1)
    bad = np.flatnonzero(w_sq <= 0.0)
    if bad.size:
        raise ZigzagError(int(bad[0]) + 1)
    w = np.sqrt(w_sq)

    t = 0.5 * kc_over_m * inv3 / np.sqrt(np.outer(w, w))

    w_tilde = w - (t**2).sum(axis=1) / (2.0 * wx)
    # (t @ t)_ij = sum_k t_ik t_kj; the k = i and k = j terms vanish
    # because the diagonal of t is zero.
    t_tilde = t - (t @ t) / (2.0 * wx)
    np.fill_diagonal(t_tilde, 0.0)

    collective = collective_spectrum_from(w_tilde, t_tilde)
    return ModeData(
        local_frequencies=w,
        corrected_local=w_tilde,
        hopping=t,
        corrected_hopping=t_tilde,
        collective_frequencies=collective,
    )


def collective_spectrum_from(local, hopping):
    """Eigenvalues (ascending) of diag(local) + hopping."""
    return np.sort(np.linalg.eigvalsh(np.diag(local) + hopping))


def interaction_picture_shift(modes, reference):
    """Shift all local and collective frequencies by -reference.

    Hoppings are unchanged; this is the allowed constant shift of the
    oscillator frequencies (e.g. into the frame rotating at the
    transverse trap frequency).
    """
    return replace(
        modes,
        local_frequencies=modes.local_frequencies - reference,
        corrected_local=modes.corrected_local - reference,
        collective_frequencies=modes.collective_frequencies - reference,
    )


def anchor_transverse_frequency(geometry, top_mode):
    """Find the transverse trap frequency whose highest collective mode
    equals top_mode (angular rad/s) for the given geometry.

    Secant iteration on top(wx) - top_mode, started at wx = top_mode
    with unit slope: top(wx) - wx changes slowly, so the shipped chains
    converge in two to three mode_parameters calls.  It stops once a
    step falls below ANCHOR_RTOL * wx; that last step is taken, which
    leaves the root within a few ulp.  Raises ZigzagError if an iterate
    leaves an ion without transverse confinement, and ValueError if the
    iteration does not converge within ANCHOR_MAX_ITER steps.
    """

    def excess(wx):
        return mode_parameters(wx, geometry).collective_frequencies[-1] - top_mode

    wx, f = top_mode, excess(top_mode)
    step = f
    for _ in range(ANCHOR_MAX_ITER):
        trial = wx - step
        if abs(step) <= ANCHOR_RTOL * trial:
            return trial
        f_trial = excess(trial)
        if f_trial == f:
            break  # no slope to follow
        step = f_trial * (trial - wx) / (f_trial - f)
        wx, f = trial, f_trial
    raise ValueError(
        f"no transverse frequency puts the top mode at "
        f"{top_mode:.6e} rad/s (secant stopped at {wx:.6e} rad/s)"
    )
