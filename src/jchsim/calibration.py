"""Fitting experimental parameters and deriving per-ion couplings.

Three concerns live here: recovering trap parameters (and hence the
chain geometry) from a measured collective mode spectrum, fitting the
Gaussian drive profile from per-ion Rabi frequencies, and turning a
profile plus geometry into per-ion couplings g_i and detunings Delta_i.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import curve_fit, minimize

from .constants import TWO_PI
from .ion_chain import (
    ChainGeometry,
    EquilibriumError,
    TrapParameters,
    ZigzagError,
    equilibrium_positions,
    mode_parameters,
)

DEFAULT_RMS_THRESHOLD = TWO_PI * 1.0e3  # rad/s; quoted spectra carry ~kHz rounding


class FitError(RuntimeError):
    """Fit did not reach the required residual; carries the best found."""

    def __init__(self, message, best=None, residual=None):
        super().__init__(message)
        self.best = best
        self.residual = residual


class DegenerateDataError(ValueError):
    """Input data cannot constrain the fit (e.g. all positions equal)."""


@dataclass(frozen=True)
class LaserProfile:
    """Gaussian drive amplitude Omega0 exp(-2 (z-c)^2 / sigma^2).

    stark_amplitude is the peak fourth-order light shift D0; its spatial
    profile is the square of the amplitude profile.  waist = inf marks a
    flat profile (no measurable curvature).
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
        if self.is_flat:
            return self.peak_rabi * np.ones_like(np.asarray(z, dtype=float))
        return self.peak_rabi * np.exp(
            -2.0 * (np.asarray(z) - self.beam_center) ** 2 / self.waist**2
        )

    def stark_shift(self, z):
        if self.is_flat:
            return self.stark_amplitude * np.ones_like(np.asarray(z, dtype=float))
        return self.stark_amplitude * np.exp(
            -4.0 * (np.asarray(z) - self.beam_center) ** 2 / self.waist**2
        )


@dataclass(frozen=True)
class SiteParameters:
    """Per-ion couplings and detunings, angular rad/s."""

    couplings: np.ndarray
    detunings: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "couplings", np.asarray(self.couplings, dtype=float))
        object.__setattr__(self, "detunings", np.asarray(self.detunings, dtype=float))
        if self.couplings.shape != self.detunings.shape:
            raise ValueError("couplings and detunings must have the same length")
        if np.any(self.couplings <= 0):
            raise ValueError("couplings must be positive")


@dataclass(frozen=True)
class SpectrumFitResult:
    trap: TrapParameters
    geometry: ChainGeometry
    rms_residual: float          # rad/s
    best_trace: tuple            # best objective value after each start


def _predicted_spectrum(wx, wz, quartic, n_ions, template):
    trap = replace(
        template,
        transverse_frequency=wx,
        axial_quadratic=wz,
        axial_quartic=max(quartic, 0.0),
    )
    geometry = equilibrium_positions(trap, n_ions)
    return trap, geometry, mode_parameters(trap, geometry).collective_frequencies


def initial_trap_guess(measured_modes, template=None):
    """Rough (wx, wz) starting point from a measured spectrum.

    The top mode pins wx; the band width sets the nearest-neighbour
    hopping, which gives a typical spacing and hence wz through the
    minimum-spacing scaling of a harmonic chain.
    """
    meas = np.sort(np.asarray(measured_modes, dtype=float))
    n = meas.size
    if template is None:
        template = TrapParameters(transverse_frequency=meas[-1], axial_quadratic=1.0)
    wx = meas[-1]
    band = meas[-1] - meas[0]
    t_nn = band / (2.0 if n == 2 else 4.0)
    kc_over_m = template.coulomb_constant / template.ion_mass
    d = (kc_over_m / (2.0 * wx * t_nn)) ** (1.0 / 3.0)
    ell = d * n**0.559 / 2.018
    wz = math.sqrt(kc_over_m / ell**3)
    return replace(template, transverse_frequency=wx, axial_quadratic=wz)


def fit_chain_from_spectrum(
    measured_modes,
    trap_guess,
    n_starts=5,
    seed=0,
    rms_threshold=DEFAULT_RMS_THRESHOLD,
):
    """Fit (wx, wz, quartic) so the predicted collective spectrum matches.

    Derivative-free simplex with jittered multi-starts (the forward
    model contains an inner equilibrium solve).  Starts are merged by
    lowest residual with start-index tiebreak, so the result is
    deterministic for a fixed seed.
    """
    meas = np.sort(np.asarray(measured_modes, dtype=float))
    n = meas.size
    if n < 2:
        raise ValueError("need at least two measured modes")

    wx0 = trap_guess.transverse_frequency
    wz0 = trap_guess.axial_quadratic
    q0 = trap_guess.axial_quartic

    def objective(x):
        wx = x[0] * wx0
        wz = abs(x[1]) * wz0
        try:
            _, _, pred = _predicted_spectrum(wx, wz, x[2], n, trap_guess)
        except (ZigzagError, EquilibriumError, ValueError):
            return 1e6  # large finite penalty keeps the simplex moving
        return float(np.mean((pred - meas) ** 2)) / wx0**2

    rng = np.random.default_rng(seed)
    best = None
    trace = []
    for start in range(n_starts):
        x0 = np.array([1.0, 1.0, q0])
        if start > 0:
            x0[0] *= 1.0 + 1e-4 * rng.standard_normal()
            x0[1] *= 1.0 + 0.05 * rng.standard_normal()
            x0[2] += 0.02 * rng.standard_normal()
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            # fatol stays above the objective's noise floor, or starts run to maxiter
            options={"xatol": 1e-11, "fatol": 1e-18, "maxiter": 2000},
        )
        if best is None or res.fun < best.fun:
            best = res
        trace.append(best.fun)

    rms = math.sqrt(best.fun) * wx0
    wx = best.x[0] * wx0
    wz = abs(best.x[1]) * wz0
    trap, geometry, _ = _predicted_spectrum(wx, wz, best.x[2], n, trap_guess)
    geometry = ChainGeometry(positions=geometry.positions, source="fitted-from-spectrum")
    result = SpectrumFitResult(
        trap=trap, geometry=geometry, rms_residual=rms, best_trace=tuple(trace)
    )
    if rms > rms_threshold:
        raise FitError(
            f"spectrum fit residual {rms / TWO_PI:.1f} Hz RMS exceeds "
            f"{rms_threshold / TWO_PI:.1f} Hz",
            best=result,
            residual=rms,
        )
    return result


def fit_beam_profile(positions, rabi_measured, flat_rtol=1e-9):
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
    if spread <= flat_rtol * max(abs(rabi).max(), 1e-300):
        return LaserProfile(
            peak_rabi=float(rabi.mean()), waist=math.inf, beam_center=0.0
        )

    def model(zz, peak, center, sigma):
        return peak * np.exp(-2.0 * (zz - center) ** 2 / sigma**2)

    w = np.clip(rabi, 1e-300, None)
    center0 = float((z * w).sum() / w.sum())
    sigma0 = 2.0 * math.sqrt(float((w * (z - center0) ** 2).sum() / w.sum()))
    sigma0 = max(sigma0, 1e-2 * (z.max() - z.min()))
    try:
        import warnings

        from scipy.optimize import OptimizeWarning

        with warnings.catch_warnings():
            # Noiseless data fits exactly; the covariance warning is moot.
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, _ = curve_fit(
                model, z, rabi, p0=[float(rabi.max()), center0, sigma0], maxfev=20000
            )
    except RuntimeError as exc:
        raise FitError(f"beam profile fit failed: {exc}") from exc
    peak, center, sigma = popt
    return LaserProfile(
        peak_rabi=float(abs(peak)), waist=float(abs(sigma)), beam_center=float(center)
    )


def derive_site_parameters(
    profile,
    geometry,
    g_central,
    delta_central,
    include_eta_variation=False,
    modes=None,
):
    """Per-ion g_i and Delta_i from the drive profile and geometry.

    g_i scales with the amplitude profile normalized at the chain
    center (the middle ion for odd N, the beam center for even N);
    Delta_i adds the Stark-shift profile difference to the central
    detuning.  include_eta_variation additionally rescales g_i by
    sqrt(omega_c / omega_i) of the corrected local frequencies.
    """
    if g_central <= 0:
        raise ValueError("g_central must be positive")
    z = geometry.positions
    n = z.size
    if n % 2 == 1:
        z_c = z[n // 2]
    else:
        z_c = profile.beam_center

    if profile.is_flat:
        amp_ratio = np.ones(n)
        stark_diff = np.zeros(n)
    else:
        amp_ratio = profile.amplitude(z) / profile.amplitude(z_c)
        stark_diff = profile.stark_shift(z) - profile.stark_shift(z_c)

    g = g_central * amp_ratio
    if include_eta_variation:
        if modes is None:
            raise ValueError("include_eta_variation requires mode data")
        w = modes.corrected_local
        if n % 2 == 1:
            w_c = w[n // 2]
        else:
            w_c = 0.5 * (w[n // 2 - 1] + w[n // 2])
        g = g * np.sqrt(w_c / w)

    delta = delta_central + stark_diff
    return SiteParameters(couplings=g, detunings=delta)
