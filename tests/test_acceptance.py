"""Acceptance suite: one test per release criterion, with the stated
tolerances.  Each test prints a single PASS/FAIL line, with its elapsed
time, so the suite output doubles as a checklist.  The time is printed,
not judged, since load on the machine moves it; where the program's
work has a count (matvecs, forward solves), the count is bounded."""

import os
import time
from math import comb

import numpy as np

import jchsim
from jchsim.constants import khz, mhz, to_khz, to_microns
from jchsim.experiment import parse_config, resolve_model, run, with_detuning

from conftest import (
    CHAIN_TABLES,
    CONFIG_DIR,
    dense_states,
    record_lanczos_steps,
    sampled_states,
    scipy_csr,
)


def report(number, name, passed):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if passed else 'FAIL'}")
    assert passed, f"acceptance criterion {number} ({name}) failed"


def shifted_modes(n):
    table = CHAIN_TABLES[n]
    geo = jchsim.ChainGeometry.from_spacings(
        [d * 1e-6 for d in table["spacings_um"]]
    )
    wx = jchsim.anchor_transverse_frequency(geo, mhz(table["modes_MHz"][-1]))
    modes = jchsim.mode_parameters(wx, geo)
    return geo, wx, jchsim.interaction_picture_shift(modes, wx)


def test_01_mode_reconstruction_two_ions():
    start = time.monotonic()
    _, wx, shifted = shifted_modes(2)
    absolute = shifted.collective_frequencies + wx
    ok_modes = np.allclose(
        absolute / (2 * np.pi * 1e6), [2.666, 2.718], atol=1e-3
    )
    ok_local = np.allclose(
        to_khz(shifted.corrected_local), [-25.96, -25.96], atol=0.5
    )
    elapsed = time.monotonic() - start
    report(1, f"mode reconstruction N=2 in {elapsed:.2f}s", ok_modes and ok_local)


def test_02_mode_reconstruction_large_chains():
    start = time.monotonic()
    ok = True
    for n in (4, 8, 20, 32):
        _, _, shifted = shifted_modes(n)
        got = to_khz(shifted.corrected_local)
        ok &= np.allclose(got, CHAIN_TABLES[n]["local_kHz"], atol=1.0)
    elapsed = time.monotonic() - start
    report(2, f"mode reconstruction N=4/8/20/32 in {elapsed:.2f}s", ok)


def test_03_dimension_formula():
    start = time.monotonic()
    ok = jchsim.sector_dimension(1, 1) == 2
    oracle_8_8 = sum(comb(8, k) * comb(15 - k, 7) for k in range(9))
    ok &= jchsim.sector_dimension(8, 8) == oracle_8_8 == 157184
    ok &= jchsim.sector_dimension(32, 32) > 2**77
    for n in range(1, 7):
        for m in range(0, 7):
            count = 0
            from itertools import product

            for mask in range(1 << n):
                k = bin(mask).count("1")
                if k > m:
                    continue
                for occ in product(range(m - k + 1), repeat=n):
                    if sum(occ) == m - k:
                        count += 1
            ok &= jchsim.sector_dimension(n, m) == count
    elapsed = time.monotonic() - start
    report(3, f"dimension formula in {elapsed:.2f}s", ok)


def test_04_calibration(monkeypatch):
    from jchsim import calibration
    from jchsim.calibration import (
        fit_beam_profile,
        fit_chain_from_spectrum,
    )

    solves = []
    forward = calibration._predicted_spectrum

    def counted(*args):
        solves.append(args)
        return forward(*args)

    monkeypatch.setattr(calibration, "_predicted_spectrum", counted)
    start = time.monotonic()
    meas2 = [mhz(f) for f in CHAIN_TABLES[2]["modes_MHz"]]
    fit2 = fit_chain_from_spectrum(meas2)
    ok = abs(to_microns(fit2.geometry.spacings[0]) - 5.280) < 0.05
    solves2 = len(solves)

    meas4 = [mhz(f) for f in CHAIN_TABLES[4]["modes_MHz"]]
    fit4 = fit_chain_from_spectrum(meas4)
    ok &= np.allclose(
        to_microns(fit4.geometry.spacings), [6.602, 6.104, 6.602], atol=0.05
    )
    solves4 = len(solves) - solves2
    # The budget is the forward solves, which load on the machine cannot
    # move: the dogleg fits make 13 (N=2) and 17 (N=4).
    ok &= solves2 <= 13 and solves4 <= 17

    z = np.linspace(-50e-6, 50e-6, 31)
    profile = fit_beam_profile(z, khz(50.0) * np.exp(-2 * z**2 / (162e-6) ** 2))
    ok &= abs(to_microns(profile.waist) - 162.0) < 1.0
    elapsed = time.monotonic() - start
    report(4, f"calibration fits in {elapsed:.2f}s, "
              f"{solves2} + {solves4} forward solves", ok)


def test_05_analytic_rabi_oracle():
    start = time.monotonic()
    ok = True
    for g_khz, d_khz in ((10.0, 0.0), (11.6, 18.0), (5.0, -30.0)):
        g = khz(g_khz)
        omega = khz(-4.0)
        delta = omega + khz(d_khz)
        basis = jchsim.enumerate_sector(1, 1)
        params = jchsim.JchParameters([delta], [omega], [g], [[0.0]])
        h = jchsim.build_hamiltonian(params, basis)
        req = jchsim.EvolutionRequest(
            total_time=1e-3, samples=257, excited_ions=[1]
        )
        series = jchsim.evolve(h, req, basis)
        d = khz(d_khz)
        rabi_sq = g**2 + d**2 / 4.0
        expected = 1.0 - (2.0 * g**2 / rabi_sq) * np.sin(
            np.sqrt(rabi_sq) * series.times
        ) ** 2
        ok &= np.max(np.abs(series.sigma_z[:, 0] - expected)) < 1e-10
    elapsed = time.monotonic() - start
    report(5, f"analytic detuned-Rabi oracle in {elapsed:.2f}s", ok)


def test_06_oracle_equivalence_shipped_configs():
    start = time.monotonic()
    ok = True
    checked = []
    for name in sorted(os.listdir(CONFIG_DIR)):
        if not name.endswith(".cfg"):
            continue
        cfg = parse_config(os.path.join(CONFIG_DIR, name))
        if cfg.delta_scan_khz:
            continue
        dim = jchsim.sector_dimension(cfg.n_ions, cfg.excitations)
        if dim > 2000:  # the dense eigh reference costs O(D^3)
            continue
        model = resolve_model(cfg)
        basis = jchsim.enumerate_sector(cfg.n_ions, cfg.excitations)
        h = jchsim.build_hamiltonian(with_detuning(model, cfg.delta_khz), basis)
        req = jchsim.EvolutionRequest(
            total_time=cfg.total_time_us * 1e-6,
            samples=cfg.samples,
            excited_ions=cfg.excited_ions,
        )
        dense = dense_states(h, req, basis)
        diff = np.max(np.abs(sampled_states(h, req, basis) - dense))
        # evolve's own sigma_z against that of the dense eigh states; the
        # largest difference seen is 2.0e-11 (fig3fg)
        sz = jchsim.evolve(h, req, basis).sigma_z
        sz_diff = np.max(np.abs(sz - np.abs(dense) ** 2 @ basis.spin_signs()))
        ok &= diff < 1e-8 and sz_diff < 1e-8
        checked.append((name, dim, diff, sz_diff))
    elapsed = time.monotonic() - start
    ok &= len(checked) >= 10  # fig2a, fig2cde, fig2fgh, fig3b-g, fig4a-e
    report(6, f"krylov vs dense eigh on shipped configs in {elapsed:.1f}s", ok)


def test_07_conservation_suite():
    _, _, shifted = shifted_modes(4)
    basis = jchsim.enumerate_sector(4, 4)
    params = jchsim.JchParameters(
        detunings=np.full(4, khz(-15.0)),
        local_frequencies=shifted.corrected_local,
        couplings=np.full(4, khz(12.9)),
        hoppings=shifted.corrected_hopping,
    )
    h = jchsim.build_hamiltonian(params, basis)
    req = jchsim.EvolutionRequest(
        total_time=1e-3, samples=101, excited_ions=[1, 2, 3, 4],
    )
    series = jchsim.evolve(h, req, basis)
    ok = series.norm_drift.max() < 1e-9
    ok &= series.excitation_drift.max() < 1e-9
    energies = np.array(
        [np.real(np.vdot(v, scipy_csr(h.matrix) @ v)) for v in sampled_states(h, req, basis)]
    )
    ok &= np.max(np.abs(energies - energies[0])) < 1e-8 * abs(energies[0])

    from jchsim.propagator import prepare_initial_state, propagate_krylov

    v0 = prepare_initial_state(basis, [1, 2, 3, 4])
    fwd = propagate_krylov(h, v0, 1e-3, 1e-9, 40)
    back = np.conj(propagate_krylov(h, np.conj(fwd), 1e-3, 1e-9, 40))
    ok &= np.max(np.abs(back - v0)) < 1e-7
    report(7, "conservation suite", ok)


def test_08_band_edge_phenomenology():
    start = time.monotonic()
    _, _, shifted = shifted_modes(4)
    basis = jchsim.enumerate_sector(4, 4)

    def run_delta(delta_khz):
        params = jchsim.JchParameters(
            detunings=np.full(4, khz(delta_khz)),
            local_frequencies=shifted.corrected_local,
            couplings=np.full(4, khz(12.9)),
            hoppings=shifted.corrected_hopping,
        )
        h = jchsim.build_hamiltonian(params, basis)
        req = jchsim.EvolutionRequest(
            total_time=1e-3, samples=201, excited_ions=[1, 2, 3, 4]
        )
        return jchsim.evolve(h, req, basis).sigma_z[:, 1]  # a central ion

    inside = run_delta(-15.0)
    outside = run_delta(60.0)
    edge = run_delta(-60.0)

    ok = inside.min() < outside.min()
    ok &= np.all(outside > 0.5)
    dip = int(edge.argmin())
    ok &= edge[dip:].max() >= edge[dip] + 0.1  # decay then revival
    elapsed = time.monotonic() - start
    report(8, f"band-edge phenomenology in {elapsed:.1f}s", ok)


def test_09_large_sector_performance(monkeypatch):
    log = record_lanczos_steps(monkeypatch)
    start = time.monotonic()
    _, _, shifted = shifted_modes(8)
    geo = jchsim.ChainGeometry.from_spacings(
        [d * 1e-6 for d in CHAIN_TABLES[8]["spacings_um"]]
    )
    from jchsim.calibration import LaserProfile, derive_site_parameters

    couplings, stark_offsets = derive_site_parameters(
        LaserProfile(peak_rabi=1.0, waist=162e-6), geo, g_central=khz(11.5)
    )
    params = jchsim.JchParameters(
        detunings=khz(-60.0) + stark_offsets,
        local_frequencies=shifted.corrected_local,
        couplings=couplings,
        hoppings=shifted.corrected_hopping,
    )
    basis = jchsim.enumerate_sector(8, 8)
    ok = len(basis) == 157184
    h = jchsim.build_hamiltonian(params, basis)
    req = jchsim.EvolutionRequest(
        total_time=600e-6, samples=100, excited_ions=list(range(1, 9))
    )
    series = jchsim.evolve(h, req, basis)
    elapsed = time.monotonic() - start
    ok &= series.norm_drift.max() < 1e-9
    ok &= np.all(np.abs(series.sigma_z) <= 1 + 1e-8)
    # The budget is the matvec count, which load on the machine cannot
    # move; the wall time is printed, not judged.  The full-sector Fig. 2b
    # evolution makes 2,940.
    matvecs = sum(calls for _, calls, _ in log)
    ok &= matvecs <= 3000
    report(9, f"N=8 M=8 evolution in {elapsed:.1f}s, {matvecs} matvecs", ok)


def test_10_determinism(tmp_path):
    cfg = os.path.join(CONFIG_DIR, "fig2a.cfg")
    out1 = run(cfg, output_dir=str(tmp_path / "a"))
    out2 = run(cfg, output_dir=str(tmp_path / "b"))
    with open(os.path.join(out1, "timeseries.csv"), "rb") as fh:
        first = fh.read()
    with open(os.path.join(out2, "timeseries.csv"), "rb") as fh:
        second = fh.read()
    report(10, "byte-identical reruns of fig2a", first == second)
