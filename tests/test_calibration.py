import math
import os

import numpy as np
import pytest
import scipy.optimize

from conftest import REPO_ROOT
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
    TrapParameters,
    equilibrium_positions,
    mode_parameters,
)

BENCH_INPUTS = os.path.join(REPO_ROOT, "bench", "inputs")


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
    @pytest.mark.parametrize("n_ions,quartic", [
        (3, False), (4, True), (5, False), (8, True), (11, False), (15, True),
    ])
    def test_synthetic_roundtrip_recovers_axial(self, n_ions, quartic):
        rng = np.random.default_rng(n_ions)
        trap = TrapParameters(
            mhz(rng.uniform(2.6, 2.9)),
            khz(rng.uniform(60.0, 150.0)),
            rng.uniform(0.02, 0.27) if quartic else 0.0,
        )
        geo = equilibrium_positions(trap, n_ions)
        modes = mode_parameters(trap.transverse_frequency, geo)
        spectrum = list(modes.collective_frequencies)
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

    def test_offcenter_beam(self):
        z = np.linspace(-60e-6, 60e-6, 25)
        center = 12e-6
        rabi = khz(40.0) * np.exp(-2 * (z - center) ** 2 / (150e-6) ** 2)
        profile = fit_beam_profile(z, rabi)
        assert to_microns(profile.beam_center) == pytest.approx(12.0, abs=0.5)

    def test_unconverged_fit_raises_fit_error(self, monkeypatch):
        solve = scipy.optimize.least_squares
        # one evaluation cannot converge: the solver stops short; the fit
        # imports least_squares from scipy.optimize when it is called
        monkeypatch.setattr(scipy.optimize, "least_squares",
                            lambda *args, **kw: solve(*args, **{**kw, "max_nfev": 1}))
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