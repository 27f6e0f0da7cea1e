import math
import os

import numpy as np
import pytest

from conftest import CHAIN_TABLES, REPO_ROOT
from jchsim import calibration
from jchsim.calibration import (
    DegenerateDataError,
    FitError,
    LaserProfile,
    derive_site_parameters,
    fit_beam_profile,
    fit_chain_from_spectrum,
)
from jchsim.constants import khz, mhz, to_microns
from jchsim.experiment import read_spectrum_csv
from jchsim.ion_chain import (
    ChainGeometry,
    EquilibriumError,
    TrapParameters,
    ZigzagError,
    equilibrium_positions,
    mode_parameters,
)

BENCH_INPUTS = os.path.join(REPO_ROOT, "bench", "inputs")


def synthetic_spectrum(n_ions, quartic):
    """Seeded synthetic trap and its spectrum, half with a quartic term."""
    rng = np.random.default_rng(n_ions)
    trap = TrapParameters(
        mhz(rng.uniform(2.6, 2.9)),
        khz(rng.uniform(60.0, 150.0)),
        rng.uniform(0.02, 0.27) if quartic else 0.0,
    )
    geo = equilibrium_positions(trap, n_ions)
    modes = mode_parameters(trap.transverse_frequency, geo)
    return trap, list(modes.collective_frequencies)


SYNTHETIC_TRAPS = [(3, False), (4, True), (5, False), (8, True), (11, False), (15, True)]


class TestFitChainFromSpectrum:
    def test_two_ion_paper_distance(self, chain_tables):
        measured = [mhz(f) for f in chain_tables[2]["modes_MHz"]]
        fit = fit_chain_from_spectrum(measured)
        spacing_um = to_microns(fit.geometry.spacings[0])
        assert spacing_um == pytest.approx(5.280, abs=0.03)
        assert fit.geometry.source == "fitted-from-spectrum"

    def test_four_ion_paper_distances(self, chain_tables):
        measured = [mhz(f) for f in chain_tables[4]["modes_MHz"]]
        fit = fit_chain_from_spectrum(measured)
        got = to_microns(fit.geometry.spacings)
        assert got == pytest.approx([6.602, 6.104, 6.602], abs=0.05)

    # Seeded synthetic traps, half with a quartic term.  A 3-ion chain has
    # one spacing, so a quartic term there would not be identifiable.
    @pytest.mark.parametrize("n_ions,quartic", SYNTHETIC_TRAPS)
    def test_synthetic_roundtrip_recovers_axial(self, n_ions, quartic):
        trap, spectrum = synthetic_spectrum(n_ions, quartic)
        fit = fit_chain_from_spectrum(spectrum)
        rel = abs(fit.trap.axial_quadratic - trap.axial_quadratic)
        assert rel / trap.axial_quadratic < 1e-4

    def test_roundtrip_reproduces_spectrum(self):
        trap = TrapParameters(mhz(2.70), khz(90))
        geo = equilibrium_positions(trap, 3)
        modes = mode_parameters(trap.transverse_frequency, geo)
        spectrum = modes.collective_frequencies
        fit = fit_chain_from_spectrum(list(spectrum))
        refit = mode_parameters(
            fit.trap.transverse_frequency, fit.geometry
        ).collective_frequencies
        assert np.max(np.abs(refit - spectrum) / spectrum) < 1e-3

    def test_repeated_fits_bit_identical(self, chain_tables):
        measured = [mhz(f) for f in chain_tables[2]["modes_MHz"]]
        a = fit_chain_from_spectrum(measured)
        b = fit_chain_from_spectrum(measured)
        assert np.array_equal(a.geometry.positions, b.geometry.positions)

    @pytest.mark.parametrize("source", [2, 4, "spectrum_4.csv", "spectrum_20.csv"])
    def test_forward_solves_per_fit(self, monkeypatch, chain_tables, source):
        if isinstance(source, int):
            measured = [mhz(f) for f in chain_tables[source]["modes_MHz"]]
        else:
            measured = read_spectrum_csv(os.path.join(BENCH_INPUTS, source))
        calls = []
        forward = calibration._predicted_spectrum

        def counted(*args):
            calls.append(args)
            return forward(*args)

        monkeypatch.setattr(calibration, "_predicted_spectrum", counted)
        fit_chain_from_spectrum(measured)
        assert 0 < len(calls) <= 200

    @pytest.mark.parametrize("source", [2, 3])
    def test_short_chain_fits_no_quartic(self, monkeypatch, chain_tables, source):
        # One spacing cannot split the axial confinement between the
        # quadratic and quartic terms, so no solve may vary the quartic.
        if source == 2:
            measured = [mhz(f) for f in chain_tables[2]["modes_MHz"]]
        else:
            _, measured = synthetic_spectrum(3, False)
        quartics = []
        forward = calibration._predicted_spectrum

        def recorded(wx, wz, quartic, n_ions):
            quartics.append(quartic)
            return forward(wx, wz, quartic, n_ions)

        monkeypatch.setattr(calibration, "_predicted_spectrum", recorded)
        fit = fit_chain_from_spectrum(measured)
        assert quartics and set(quartics) == {0.0}
        assert fit.trap.axial_quartic == 0.0
        if source == 2:
            assert f"{to_microns(fit.geometry.spacings[0]):.4f}" == "5.2778"


class TestFitBeamProfile:
    def test_recovers_162um_waist(self):
        z = np.linspace(-50e-6, 50e-6, 31)
        rabi = khz(50.0) * np.exp(-2 * z**2 / (162e-6) ** 2)
        profile = fit_beam_profile(z, rabi)
        assert to_microns(profile.waist) == pytest.approx(162.0, abs=1.0)

    def test_flat_data_gives_flat_profile(self):
        z = np.linspace(-40e-6, 40e-6, 11)
        profile = fit_beam_profile(z, np.full(11, khz(30.0)))
        assert profile.is_flat
        assert profile.peak_rabi == pytest.approx(khz(30.0))

    def test_noisy_monte_carlo_median_within_ten_percent(self):
        rng = np.random.default_rng(2024)
        z = np.linspace(-50e-6, 50e-6, 31)
        clean = khz(50.0) * np.exp(-2 * z**2 / (162e-6) ** 2)
        errors = []
        for _ in range(100):
            noisy = clean * (1.0 + 0.05 * rng.standard_normal(z.size))
            profile = fit_beam_profile(z, noisy)
            errors.append(abs(to_microns(profile.waist) - 162.0) / 162.0)
        assert np.median(errors) < 0.10

    def test_degenerate_positions_rejected(self):
        with pytest.raises(DegenerateDataError):
            fit_beam_profile([1e-6, 1e-6, 1e-6], [khz(1), khz(2), khz(3)])

    def test_no_drive_rejected(self):
        # all zero is no measurement, not a flat beam of peak 0
        with pytest.raises(DegenerateDataError, match="no drive measured"):
            fit_beam_profile([-5e-6, 0.0, 5e-6], [0.0, 0.0, 0.0])

    def test_offcenter_beam(self):
        z = np.linspace(-60e-6, 60e-6, 25)
        center = 12e-6
        rabi = khz(40.0) * np.exp(-2 * (z - center) ** 2 / (150e-6) ** 2)
        profile = fit_beam_profile(z, rabi)
        assert to_microns(profile.beam_center) == pytest.approx(12.0, abs=0.5)

    def test_unconverged_fit_raises_fit_error(self, monkeypatch):
        # one evaluation cannot converge: the solver stops short
        monkeypatch.setattr(calibration, "_MAX_NFEV", 1)
        z = np.linspace(-60e-6, 60e-6, 25)
        rabi = khz(40.0) * np.exp(-2 * (z - 12e-6) ** 2 / (150e-6) ** 2)
        with pytest.raises(FitError, match="beam profile fit failed"):
            fit_beam_profile(z, rabi)


class TestDeriveSiteParameters:
    # derive_site_parameters returns (couplings, stark_offsets); ion i's
    # detuning is the central detuning plus its offset.
    def test_single_ion_passthrough(self):
        profile = LaserProfile(peak_rabi=khz(50), waist=162e-6, stark_amplitude=0.0)
        geo = ChainGeometry(positions=np.array([0.0]))
        couplings, stark = derive_site_parameters(profile, geo, khz(10))
        assert couplings[0] == pytest.approx(khz(10))
        assert khz(-60) + stark[0] == pytest.approx(khz(-60))

    def test_edge_ion_ratio_for_100um_chain(self):
        # 100 um long even chain centered at the beam: edge ratio e^(-2*50^2/162^2)
        profile = LaserProfile(peak_rabi=khz(50), waist=162e-6)
        positions = np.linspace(-50e-6, 50e-6, 10)
        geo = ChainGeometry(positions=positions)
        couplings, _ = derive_site_parameters(profile, geo, khz(10))
        expected = math.exp(-2 * 50.0**2 / 162.0**2)
        assert couplings[0] / khz(10) == pytest.approx(expected, rel=1e-6)
        assert expected == pytest.approx(0.826, abs=0.001)

    def test_even_chain_mirror_symmetry(self):
        profile = LaserProfile(peak_rabi=khz(50), waist=162e-6, stark_amplitude=khz(3))
        positions = np.array([-30.0, -10.0, 10.0, 30.0]) * 1e-6
        geo = ChainGeometry(positions=positions)
        couplings, stark = derive_site_parameters(profile, geo, khz(10))
        detunings = khz(-5) + stark
        assert couplings == pytest.approx(couplings[::-1], rel=0)
        assert detunings == pytest.approx(detunings[::-1], rel=0)

    def test_coupling_bounded_by_central(self):
        profile = LaserProfile(peak_rabi=khz(50), waist=162e-6)
        geo = ChainGeometry(positions=np.linspace(-45e-6, 45e-6, 7))
        couplings, _ = derive_site_parameters(profile, geo, khz(11))
        assert np.all(couplings <= khz(11) * (1 + 1e-12))

    def test_stark_shift_sign_follows_amplitude(self):
        geo = ChainGeometry(positions=np.linspace(-45e-6, 45e-6, 5))
        for d0, sign in [(khz(4), -1), (-khz(4), +1)]:
            profile = LaserProfile(peak_rabi=khz(50), waist=162e-6,
                                   stark_amplitude=d0)
            _, stark = derive_site_parameters(profile, geo, khz(10))
            # off-center ions see weaker stark shift, so the difference has
            # the opposite sign of D0 there
            off_center = np.delete(stark, 2)
            assert np.all(np.sign(off_center) == sign)

    def test_drive_underflow_at_center_rejected(self):
        # 0/0 at the middle ion would otherwise pass NaN couplings on
        profile = LaserProfile(peak_rabi=khz(50), waist=1e-9, beam_center=3e-6)
        geo = ChainGeometry(positions=np.array([-5e-6, 0.0, 5e-6]))
        with pytest.raises(ValueError, match="positive and finite"):
            derive_site_parameters(profile, geo, khz(10))

    def test_flat_profile_uniform_parameters(self):
        profile = LaserProfile(peak_rabi=khz(50), waist=math.inf,
                               stark_amplitude=khz(2))
        geo = ChainGeometry(positions=np.linspace(-45e-6, 45e-6, 5))
        couplings, stark = derive_site_parameters(profile, geo, khz(10))
        assert np.all(couplings == khz(10))
        assert np.all(khz(-7) + stark == khz(-7))


def scipy_chain_fit(measured):
    """fit_chain_from_spectrum's problem as scipy.optimize.least_squares
    solves it, with the arguments the fit once passed it (default method
    and tolerances, x_scale="jac"), on a forward model rebuilt here from
    ion_chain.  Returns the trap, the geometry and the RMS residual."""
    from scipy.optimize import least_squares

    meas = np.sort(np.asarray(measured, dtype=float))
    n = meas.size
    guess = calibration.initial_trap_guess(meas)
    wx0, wz0 = guess.transverse_frequency, guess.axial_quadratic

    def chain(x):
        quartic = max(x[2], 0.0) if x.size == 3 else 0.0
        trap = TrapParameters(x[0] * wx0, abs(x[1]) * wz0, quartic)
        geo = equilibrium_positions(trap, n)
        modes = mode_parameters(trap.transverse_frequency, geo)
        return trap, geo, modes.collective_frequencies

    def residuals(x):
        try:
            return (chain(x)[2] - meas) / wx0
        except (ZigzagError, EquilibriumError, ValueError):
            return np.full(n, 1e3)

    x0 = [1.0, 1.0, 0.0][: 2 if n <= 3 else 3]
    trap, geo, pred = chain(least_squares(residuals, x0, x_scale="jac").x)
    return trap, geo, math.sqrt(np.mean((pred - meas) ** 2))


def scipy_beam_fit(z, rabi):
    """fit_beam_profile's Gaussian as scipy.optimize.least_squares fits it,
    with the arguments the fit once passed it (MINPACK's Levenberg-Marquardt,
    x_scale="jac", max_nfev=20000, unscaled parameters).  Returns the
    peak, center, waist and RMS residual."""
    from scipy.optimize import least_squares

    w = np.clip(rabi, 1e-300, None)
    center0 = float((z * w).sum() / w.sum())
    sigma0 = 2.0 * math.sqrt(float((w * (z - center0) ** 2).sum() / w.sum()))
    sigma0 = max(sigma0, 1e-2 * (z.max() - z.min()))

    def residuals(p):
        return p[0] * np.exp(-2.0 * (z - p[1]) ** 2 / p[2] ** 2) - rabi

    fit = least_squares(residuals, [float(rabi.max()), center0, sigma0], method="lm",
                        x_scale="jac", max_nfev=20000)
    peak, center, sigma = fit.x
    return abs(peak), center, abs(sigma), math.sqrt(np.mean(fit.fun**2))


def seeded_rabi_tables():
    """Seeded Gaussian beams: noiseless on a 20-ion chain, and 5% noise on
    31 evenly spaced ions as in the Monte Carlo test."""
    spacings = np.loadtxt(os.path.join(BENCH_INPUTS, "spacings_20.csv"), delimiter=",",
                          skiprows=1, usecols=1)
    chain = np.concatenate([[0.0], np.cumsum(spacings)])
    chain = (chain - chain.mean()) * 1e-6
    even = np.linspace(-50e-6, 50e-6, 31)
    tables = []
    for seed in range(1, 7):
        rng = np.random.default_rng(seed)
        waist, peak, center = rng.uniform(140e-6, 180e-6), khz(rng.uniform(40, 60)), \
            rng.uniform(-5e-6, 5e-6)
        if seed <= 3:
            tables.append((chain, peak * np.exp(-2 * (chain - center) ** 2 / waist**2)))
        else:
            clean = peak * np.exp(-2 * (even - center) ** 2 / waist**2)
            tables.append((even, clean * (1 + 0.05 * rng.standard_normal(even.size))))
    return tables


REFERENCE_RTOL = 1e-6


class TestAgainstScipy:
    """Each fit against scipy.optimize.least_squares, which only this test
    imports.  Both stop at tolerances of 1e-8 on the relative reduction of
    the sum of squares, so they agree well within REFERENCE_RTOL; the RMS
    residual may exceed scipy's by REFERENCE_RTOL at most, plus a rounding
    floor of 1e-12 of the data's largest value."""

    @pytest.mark.parametrize("source", [
        *sorted(CHAIN_TABLES), "spectrum_4.csv", "spectrum_20.csv",
        *(f"synthetic{n}{'q' if q else ''}" for n, q in SYNTHETIC_TRAPS),
    ])
    def test_spectrum_fit(self, source):
        if source in CHAIN_TABLES:
            measured = [mhz(f) for f in CHAIN_TABLES[source]["modes_MHz"]]
        elif source.endswith(".csv"):
            measured = read_spectrum_csv(os.path.join(BENCH_INPUTS, source))
        else:
            _, measured = synthetic_spectrum(int(source[9:].rstrip("q")),
                                             source.endswith("q"))
        fit = fit_chain_from_spectrum(measured)
        trap, geo, rms = scipy_chain_fit(measured)
        assert fit.trap.transverse_frequency == pytest.approx(
            trap.transverse_frequency, rel=REFERENCE_RTOL)
        assert fit.trap.axial_quadratic == pytest.approx(
            trap.axial_quadratic, rel=REFERENCE_RTOL)
        # dimensionless, and 0 in a harmonic trap
        assert fit.trap.axial_quartic == pytest.approx(trap.axial_quartic,
                                                       abs=REFERENCE_RTOL)
        assert fit.geometry.spacings == pytest.approx(geo.spacings, rel=REFERENCE_RTOL)
        assert fit.rms_residual <= rms * (1 + REFERENCE_RTOL) + 1e-12 * max(measured)

    @pytest.mark.parametrize("table", range(6))
    def test_beam_fit(self, table):
        z, rabi = seeded_rabi_tables()[table]
        profile = fit_beam_profile(z, rabi)
        peak, center, waist, rms = scipy_beam_fit(z, rabi)
        assert profile.peak_rabi == pytest.approx(peak, rel=REFERENCE_RTOL)
        assert profile.waist == pytest.approx(waist, rel=REFERENCE_RTOL)
        assert profile.beam_center == pytest.approx(center, abs=REFERENCE_RTOL * waist)
        got = math.sqrt(np.mean((profile.amplitude(z) - rabi) ** 2))
        assert got <= rms * (1 + REFERENCE_RTOL) + 1e-12 * rabi.max()
