"""Fitting experimental parameters and deriving per-ion couplings.

Three concerns live here: recovering trap parameters (and hence the
chain geometry) from a measured collective mode spectrum, fitting the
Gaussian drive profile from per-ion Rabi frequencies, and turning a
profile plus geometry into per-ion couplings g_i and Stark offsets,
which give the detunings Delta_i once a central detuning is added.
Both fits are solved by one numpy trust-region routine (Powell's
dogleg), _least_squares, so calibrating loads no SciPy module.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import COULOMB_CONSTANT, TWO_PI, YB171_MASS
from .ion_chain import (
    ChainGeometry,
    EquilibriumError,
    TrapParameters,
    ZigzagError,
    equilibrium_positions,
    mode_parameters,
)

RMS_THRESHOLD = TWO_PI * 1.0e3  # rad/s; quoted spectra carry ~kHz rounding
FLAT_RTOL = 1e-9  # Rabi spread, relative to the largest, below which a beam is flat
_TOL = 1e-8  # _least_squares' ftol = xtol = gtol, scipy's defaults
_MAX_NFEV = 1000  # evaluations per fit, the Jacobian's included
_FD_STEP = math.sqrt(np.finfo(float).eps)


class FitError(RuntimeError):
    """Fit found no stable chain, did not converge or missed its residual bound."""


class DegenerateDataError(ValueError):
    """Input data cannot constrain the fit (e.g. all positions equal)."""


@dataclass(frozen=True)
class LaserProfile:
    """Gaussian drive amplitude Omega0 exp(-2 (z-c)^2 / sigma^2).

    stark_amplitude is the peak fourth-order light shift D0; its spatial
    profile is the square of the amplitude profile.  waist = inf marks a
    flat profile (no measurable curvature): both exponents are then
    exactly -0.0, so amplitude and stark_shift are constant.
    """

    peak_rabi: float
    waist: float
    stark_amplitude: float = 0.0
    beam_center: float = 0.0

    def __post_init__(self):
        if not self.waist > 0:
            raise ValueError("waist must be positive")

    @property
    def is_flat(self):
        return math.isinf(self.waist)

    def amplitude(self, z):
        return self.peak_rabi * np.exp(
            -2.0 * (np.asarray(z) - self.beam_center) ** 2 / self.waist**2
        )

    def stark_shift(self, z):
        return self.stark_amplitude * np.exp(
            -4.0 * (np.asarray(z) - self.beam_center) ** 2 / self.waist**2
        )


@dataclass(frozen=True)
class SpectrumFitResult:
    trap: TrapParameters
    geometry: ChainGeometry
    rms_residual: float  # rad/s


def _predicted_spectrum(wx, wz, quartic, n_ions):
    trap = TrapParameters(
        transverse_frequency=wx, axial_quadratic=wz, axial_quartic=max(quartic, 0.0)
    )
    geometry = equilibrium_positions(trap, n_ions)
    return trap, geometry, mode_parameters(wx, geometry).collective_frequencies


def initial_trap_guess(measured_modes):
    """Rough (wx, wz) starting point from a measured spectrum.

    The top mode pins wx; the band width sets the nearest-neighbour
    hopping, which gives a typical spacing and hence wz through the
    minimum-spacing scaling of a harmonic chain.
    """
    meas = np.sort(np.asarray(measured_modes, dtype=float))
    n = meas.size
    wx = meas[-1]
    band = meas[-1] - meas[0]
    t_nn = band / (2.0 if n == 2 else 4.0)
    kc_over_m = COULOMB_CONSTANT / YB171_MASS
    d = (kc_over_m / (2.0 * wx * t_nn)) ** (1.0 / 3.0)
    ell = d * n**0.559 / 2.018
    wz = math.sqrt(kc_over_m / ell**3)
    return TrapParameters(transverse_frequency=wx, axial_quadratic=wz)


def _least_squares(fun, x0):
    """Minimize ||fun(x)||^2 from x0 by Powell's dogleg (1970); return x.

    Steps are taken in variables scaled by the running maximum of the
    Jacobian's column norms, with MINPACK lmdif's radius updates and
    tests (Moré, LNM 630, 1978): the first step is Gauss-Newton and its
    length the first trust radius.  The Jacobian is a forward difference
    with step sqrt(eps) max(1, |x_j|), so x should be of order one.  It
    stops when a step reduces the sum of squares by at most _TOL
    (relative), when the trust radius falls below _TOL of the scaled x,
    or when fun(x) is within _TOL of orthogonal to every Jacobian
    column.  Raises FitError after _MAX_NFEV evaluations of fun, the
    Jacobian's included, without stopping.
    """
    x = np.asarray(x0, dtype=float)
    f = fun(x)
    fnorm = np.linalg.norm(f)
    nfev = 1
    diag = delta = None
    while fnorm != 0:
        jac = np.empty((f.size, x.size))
        for j in range(x.size):
            h = np.zeros_like(x)
            h[j] = _FD_STEP * max(1.0, abs(x[j]))
            jac[:, j] = (fun(x + h) - f) / h[j]
        nfev += x.size
        norms = np.linalg.norm(jac, axis=0)
        live = norms > 0
        if np.max(np.abs(jac.T @ f)[live] / (norms[live] * fnorm), initial=0.0) <= _TOL:
            return x
        if diag is None:
            diag = np.where(live, norms, 1.0)
        else:
            diag = np.maximum(diag, norms)
        # the least-norm Gauss-Newton step and the Cauchy point, scaled
        scaled = jac / diag
        newton = -np.linalg.lstsq(scaled, f, rcond=None)[0]
        grad = scaled.T @ f
        cauchy = -grad * (grad @ grad) / np.linalg.norm(scaled @ grad) ** 2
        newton_norm, cauchy_norm = np.linalg.norm(newton), np.linalg.norm(cauchy)
        delta = newton_norm if delta is None else delta
        while True:
            full = newton_norm <= delta
            if full:
                y = newton
            elif cauchy_norm >= delta:
                y = cauchy * (delta / cauchy_norm)
            else:  # where cauchy + t (newton - cauchy) crosses the radius
                d = newton - cauchy
                b, c = cauchy @ d, cauchy_norm**2 - delta**2
                y = cauchy - c / (b + math.sqrt(b * b - (d @ d) * c)) * d
            ynorm = np.linalg.norm(y)
            x_new = x + y / diag
            f_new = fun(x_new)
            fnorm_new = np.linalg.norm(f_new)
            nfev += 1
            # reductions of the sum of squares, relative to its value at x
            actual = 1.0 - (fnorm_new / fnorm) ** 2 if fnorm_new < 10.0 * fnorm else -1.0
            predicted = 1.0 - (np.linalg.norm(f + scaled @ y) / fnorm) ** 2
            ratio = actual / predicted if predicted else 0.0
            if ratio <= 0.25:
                shrink = 0.1 if fnorm_new >= 10.0 * fnorm else 0.5
                delta = shrink * min(delta, 10.0 * ynorm)
            elif full or ratio >= 0.75:
                delta = 2.0 * ynorm
            accepted = ratio >= 1e-4
            if accepted:
                x, f, fnorm = x_new, f_new, fnorm_new
            if (abs(actual) <= _TOL and predicted <= _TOL and ratio <= 2.0) or (
                delta <= _TOL * np.linalg.norm(diag * x)
            ):
                return x
            if nfev >= _MAX_NFEV:
                raise FitError(f"no convergence in {_MAX_NFEV} evaluations")
            if accepted:
                break
    return x


def fit_chain_from_spectrum(measured_modes):
    """Fit (wx, wz, quartic) so the predicted collective spectrum matches.

    One dogleg solve (_least_squares) on the mode residuals, in units of
    the guessed wx, started at initial_trap_guess; the Jacobian is a
    forward difference, since the forward model contains an inner
    equilibrium solve.  A point with no stable chain returns a constant
    penalty residual.  A chain of two or three ions has one spacing,
    which cannot split the axial confinement between the quadratic and
    quartic terms, so there only (wx, wz) are fitted and the quartic is
    0.  The chain of the solution is the forward solve the fit already
    made there.  Raises DegenerateDataError for a mode <= 0 or a zero
    band width, and FitError if the fit does not converge, the solution
    has no stable chain or its RMS residual exceeds RMS_THRESHOLD.
    """
    meas = np.sort(np.asarray(measured_modes, dtype=float))
    n = meas.size
    if n < 2:
        raise ValueError("need at least two measured modes")
    if meas[0] <= 0 or meas[0] == meas[-1]:
        raise DegenerateDataError(
            "need positive mode frequencies with a nonzero band width"
        )

    guess = initial_trap_guess(meas)
    wx0 = guess.transverse_frequency
    wz0 = guess.axial_quadratic
    solves = {}  # x.tobytes() -> (trap, geometry, spectrum) or the refusal

    def residuals(x):
        quartic = x[2] if x.size == 3 else 0.0
        try:
            solve = _predicted_spectrum(x[0] * wx0, abs(x[1]) * wz0, quartic, n)
        except (ZigzagError, EquilibriumError, ValueError) as exc:
            solves[x.tobytes()] = exc
            return np.full(n, 1e3)  # finite penalty keeps the solver moving
        solves[x.tobytes()] = solve
        return (solve[2] - meas) / wx0

    try:
        best = _least_squares(residuals, [1.0, 1.0, 0.0][: 2 if n <= 3 else 3])
    except FitError as exc:
        raise FitError(f"spectrum fit failed: {exc}") from exc
    solve = solves[best.tobytes()]
    if isinstance(solve, Exception):
        raise FitError(f"no stable chain reproduces the spectrum: {solve}") from solve
    trap, geometry, pred = solve
    rms = math.sqrt(float(np.mean((pred - meas) ** 2)))
    if rms > RMS_THRESHOLD:
        raise FitError(
            f"spectrum fit residual {rms / TWO_PI:.1f} Hz RMS exceeds "
            f"{RMS_THRESHOLD / TWO_PI:.1f} Hz"
        )
    geometry = ChainGeometry(positions=geometry.positions, source="fitted-from-spectrum")
    return SpectrumFitResult(trap=trap, geometry=geometry, rms_residual=rms)


def fit_beam_profile(positions, rabi_measured):
    """Least-squares Gaussian Omega0 exp(-2 (z-c)^2 / sigma^2).

    One dogleg solve (_least_squares), with the peak in units of the
    largest Rabi frequency and the lengths in units of the guessed
    waist.  Returns a LaserProfile with stark_amplitude left at zero.
    If the measured values show no curvature the distinguished flat
    profile (waist = inf) is returned.  Raises DegenerateDataError for
    fewer than 3 distinct positions or when every value is 0 (no drive
    was measured), and FitError if the fit does not converge.
    """
    z = np.asarray(positions, dtype=float)
    rabi = np.asarray(rabi_measured, dtype=float)
    if z.size != rabi.size:
        raise ValueError("positions and rabi_measured must have the same length")
    if np.unique(z).size < 3:
        raise DegenerateDataError("need at least 3 distinct positions")
    if not rabi.any():
        raise DegenerateDataError("no drive measured: every Rabi frequency is 0")

    spread = rabi.max() - rabi.min()
    if spread <= FLAT_RTOL * abs(rabi).max():
        return LaserProfile(
            peak_rabi=float(rabi.mean()), waist=math.inf, beam_center=0.0
        )

    w = np.clip(rabi, 1e-300, None)
    center0 = float((z * w).sum() / w.sum())
    sigma0 = 2.0 * math.sqrt(float((w * (z - center0) ** 2).sum() / w.sum()))
    sigma0 = max(sigma0, 1e-2 * (z.max() - z.min()))
    peak0 = float(rabi.max())
    zs = z / sigma0

    def residuals(p):
        peak, center, sigma = p
        return peak0 * peak * np.exp(-2.0 * (zs - center) ** 2 / sigma**2) - rabi

    try:
        peak, center, sigma = _least_squares(residuals, [1.0, center0 / sigma0, 1.0])
    except FitError as exc:
        raise FitError(f"beam profile fit failed: {exc}") from exc
    return LaserProfile(
        peak_rabi=float(abs(peak * peak0)),
        waist=float(abs(sigma * sigma0)),
        beam_center=float(center * sigma0),
    )


def derive_site_parameters(profile, geometry, g_central):
    """Per-ion couplings g_i and Stark offsets from the drive profile and geometry.

    g_i scales with the amplitude profile normalized at the chain
    center (the middle ion for odd N, the beam center for even N).  The
    Stark offset is the Stark-shift profile minus its value there, so
    ion i's detuning is the central detuning plus its offset.  Returns
    (couplings, stark_offsets), both in rad/s; raises ValueError unless
    every coupling is positive and finite.
    """
    if g_central <= 0:
        raise ValueError("g_central must be positive")
    z = geometry.positions
    n = z.size
    if n % 2 == 1:
        z_c = z[n // 2]
    else:
        z_c = profile.beam_center

    # an amplitude that underflows at z_c gives a non-finite ratio
    with np.errstate(divide="ignore", invalid="ignore"):
        couplings = g_central * (profile.amplitude(z) / profile.amplitude(z_c))
    if not np.all((couplings > 0) & np.isfinite(couplings)):
        raise ValueError("couplings must be positive and finite")
    return couplings, profile.stark_shift(z) - profile.stark_shift(z_c)
