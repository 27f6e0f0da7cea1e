"""Fitting experimental parameters and deriving per-ion couplings.

Three concerns live here: recovering trap parameters (and hence the
chain geometry) from a measured collective mode spectrum, fitting the
Gaussian drive profile from per-ion Rabi frequencies, and turning a
profile plus geometry into per-ion couplings g_i and Stark offsets,
which give the detunings Delta_i once a central detuning is added.
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


def fit_chain_from_spectrum(measured_modes):
    """Fit (wx, wz, quartic) so the predicted collective spectrum matches.

    One trust-region least-squares solve on the mode residuals, scaled
    by the guessed wx, started at initial_trap_guess with a
    finite-difference Jacobian (the forward model contains an inner
    equilibrium solve).  A point with no stable chain returns a constant
    penalty residual.  Raises DegenerateDataError for a mode <= 0 or a
    zero band width, and FitError if the solution has no stable chain
    or its RMS residual exceeds RMS_THRESHOLD.
    """
    meas = np.sort(np.asarray(measured_modes, dtype=float))
    n = meas.size
    if n < 2:
        raise ValueError("need at least two measured modes")
    if meas[0] <= 0 or meas[0] == meas[-1]:
        raise DegenerateDataError(
            "need positive mode frequencies with a nonzero band width"
        )

    # Imported here, so that only the fits load scipy.optimize.
    from scipy.optimize import least_squares

    guess = initial_trap_guess(meas)
    wx0 = guess.transverse_frequency
    wz0 = guess.axial_quadratic

    def residuals(x):
        try:
            _, _, pred = _predicted_spectrum(x[0] * wx0, abs(x[1]) * wz0, x[2], n)
        except (ZigzagError, EquilibriumError, ValueError):
            return np.full(n, 1e3)  # finite penalty keeps the solver moving
        return (pred - meas) / wx0

    # x_scale="jac": the quartic's sensitivity differs from the frequency
    # ratios' by orders of magnitude
    best = least_squares(residuals, [1.0, 1.0, guess.axial_quartic], x_scale="jac").x
    wx = best[0] * wx0
    wz = abs(best[1]) * wz0
    try:
        trap, geometry, pred = _predicted_spectrum(wx, wz, best[2], n)
    except (ZigzagError, EquilibriumError, ValueError) as exc:
        raise FitError(f"no stable chain reproduces the spectrum: {exc}") from exc
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

    Returns a LaserProfile with stark_amplitude left at zero.  If the
    measured values show no curvature the distinguished flat profile
    (waist = inf) is returned.
    """
    z = np.asarray(positions, dtype=float)
    rabi = np.asarray(rabi_measured, dtype=float)
    if z.size != rabi.size:
        raise ValueError("positions and rabi_measured must have the same length")
    if np.unique(z).size < 3:
        raise DegenerateDataError("need at least 3 distinct positions")

    spread = rabi.max() - rabi.min()
    if spread <= FLAT_RTOL * max(abs(rabi).max(), 1e-300):
        return LaserProfile(
            peak_rabi=float(rabi.mean()), waist=math.inf, beam_center=0.0
        )

    from scipy.optimize import least_squares

    def residuals(p):
        peak, center, sigma = p
        return peak * np.exp(-2.0 * (z - center) ** 2 / sigma**2) - rabi

    w = np.clip(rabi, 1e-300, None)
    center0 = float((z * w).sum() / w.sum())
    sigma0 = 2.0 * math.sqrt(float((w * (z - center0) ** 2).sum() / w.sum()))
    sigma0 = max(sigma0, 1e-2 * (z.max() - z.min()))
    # x_scale="jac": MINPACK scales the columns itself, since the peak
    # (rad/s) and the lengths (m) differ by about nine decades
    fit = least_squares(
        residuals, [float(rabi.max()), center0, sigma0], method="lm",
        x_scale="jac", max_nfev=20000,
    )
    if not fit.success:
        raise FitError(f"beam profile fit failed: {fit.message}")
    peak, center, sigma = fit.x
    return LaserProfile(
        peak_rabi=float(abs(peak)), waist=float(abs(sigma)), beam_center=float(center)
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
