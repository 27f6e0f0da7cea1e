"""Self-test of the benchmark's correctness checks.

Each check must pass on a real jchsim output and fail once that output
is deliberately corrupted.  Run from the repository root with
  python3 -m pytest bench/tests -q
(about half a minute: it runs one small simulation, the shipped detuning
scan and two spectrum fits).
"""

import math
import os
import shutil
import sys
from math import comb

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
from jchsim.cli import main as jchsim_main  # noqa: E402

DELTAS = [-120.0, -105.0, -90.0, -75.0, -60.0, -45.0, -30.0, -15.0,
          0.0, 15.0, 30.0, 45.0, 60.0]


def _rewrite_csv(path, edit):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    with open(path) as fh:
        header = fh.readline()
    edit(rows)
    with open(path, "w") as fh:
        fh.write(header)
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _fresh_copy(src, tmp_path):
    dst = tmp_path / "copy"
    shutil.copytree(src, dst)
    return str(dst)


@pytest.mark.parametrize("n,m", [(1, 1), (3, 2), (4, 4), (8, 8)])
def test_sector_dimension(n, m):
    expected = sum(comb(n, k) * comb(n + m - k - 1, n - 1) for k in range(min(n, m) + 1))
    assert checks.Sector(n, m).dimension == expected


# ------------------------------------------------------------ single run

@pytest.fixture(scope="module")
def sector_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("sector")
    cfg = base / "small.cfg"
    cfg.write_text(
        "n_ions = 3\nexcitations = 3\ngeometry = spacings\n"
        "spacings_um = 6.0,6.0\ntop_mode_MHz = 2.75\ng_kHz = 11.5\n"
        "delta_kHz = -40\ntotal_time_us = 60\nsamples = 7\n"
    )
    out = str(base / "out")
    assert jchsim_main(["simulate", str(cfg), "--output-dir", out]) == 0
    return out


def test_sector_check_passes(sector_run):
    ref = checks.SectorReference(sector_run)
    assert checks.check_sector(sector_run, ref) == []


@pytest.mark.parametrize("column,delta", [(1, 1e-7), (-2, 1e-6), (-1, 1e-6)],
                         ids=["sigma_z", "norm_drift", "excitation_drift"])
def test_sector_check_catches_corruption(sector_run, tmp_path, column, delta):
    ref = checks.SectorReference(sector_run)
    out = _fresh_copy(sector_run, tmp_path)

    def edit(rows):
        rows[1, column] += delta

    _rewrite_csv(os.path.join(out, "timeseries.csv"), edit)
    assert checks.check_sector(out, ref)


def test_sector_check_catches_energy_drift(sector_run):
    ref = checks.SectorReference(sector_run)
    ref.energy_error = 1e-6
    assert checks.check_sector(sector_run, ref)


def test_sector_reference_uses_reported_parameters(sector_run, tmp_path):
    out = _fresh_copy(sector_run, tmp_path)
    path = os.path.join(out, "params.txt")
    with open(path) as fh:
        text = fh.read()
    with open(path, "w") as fh:
        fh.write(text.replace("ion2: g_kHz = ", "ion2: g_kHz = 1"))
    ref = checks.SectorReference(out)
    assert checks.check_sector(out, ref)


# ---------------------------------------------------------- detuning scan

@pytest.fixture(scope="module")
def scan_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("scan") / "out")
    cfg = os.path.join(ROOT, "configs", "fig3a_scan.cfg")
    assert jchsim_main(["--threads", "2", "simulate", cfg, "--output-dir", out]) == 0
    return out, checks.scan_references(out, DELTAS)


def test_scan_check_passes(scan_run):
    out, refs = scan_run
    assert checks.check_scan(out, DELTAS, 2, refs) == []


def test_scan_check_catches_subrun_corruption(scan_run, tmp_path):
    out, refs = scan_run
    out = _fresh_copy(out, tmp_path)

    def edit(rows):
        rows[50, 3] += 1e-7

    _rewrite_csv(os.path.join(out, "delta_-30kHz", "timeseries.csv"), edit)
    assert checks.check_scan(out, DELTAS, 2, refs)


def test_scan_check_catches_scan_csv_corruption(scan_run, tmp_path):
    out, refs = scan_run
    out = _fresh_copy(out, tmp_path)

    def edit(rows):
        rows[(rows[:, 1] == 45.0).nonzero()[0][20], 2] += 1e-7

    _rewrite_csv(os.path.join(out, "scan.csv"), edit)
    assert checks.check_scan(out, DELTAS, 2, refs)


def test_band_edge_ordering():
    t = np.linspace(0.0, 1.0, 101)
    inside = 1.0 - 0.9 * np.sin(3 * t) ** 2
    outside = 1.0 - 0.2 * np.sin(5 * t) ** 2
    edge = 1.0 - 0.8 * np.sin(4 * t) ** 2
    assert checks.band_edge_failures(inside, outside, edge) == []
    assert checks.band_edge_failures(outside, inside, edge)        # ordering
    assert checks.band_edge_failures(inside, outside - 0.4, edge)  # outside > 0.5
    assert checks.band_edge_failures(inside, outside, 1.0 - 0.8 * t)  # revival


# ------------------------------------------------------------ calibration

def _measured(n):
    return (checks.read_column(os.path.join(BENCH, "inputs", f"spectrum_{n}.csv"),
                               "frequency_MHz"),
            checks.read_column(os.path.join(BENCH, "inputs", f"spacings_{n}.csv"),
                               "spacing_um"))


def _edit_report(report, key, change):
    lines = []
    for line in report.splitlines():
        if line.startswith(f"{key} = "):
            values = [change(float(v)) for v in line.split(" = ")[1].split(",")]
            line = f"{key} = " + ",".join(f"{v:.6f}" for v in values)
        lines.append(line)
    return "\n".join(lines)


@pytest.mark.parametrize("n,seed", [(4, 1), (20, 0)])
def test_spectrum_check(capsys, n, seed):
    # Fit seed 1 reaches the same 4-ion fit as the default seed in a
    # fraction of the forward solves.
    spectrum = os.path.join(BENCH, "inputs", f"spectrum_{n}.csv")
    assert jchsim_main(["--seed", str(seed), "calibrate", "--spectrum", spectrum]) == 0
    report = capsys.readouterr().out
    measured, spacings = _measured(n)
    assert checks.check_spectrum_fit(report, measured, spacings) == []
    shifted = _edit_report(report, "spacings_um", lambda d: d + 0.1)
    assert checks.check_spectrum_fit(shifted, measured, spacings)
    detrapped = _edit_report(report, "transverse_MHz", lambda f: f + 0.002)
    assert checks.check_spectrum_fit(detrapped, measured, spacings)
    truncated = "\n".join(l for l in report.splitlines() if "spacings" not in l)
    assert checks.check_spectrum_fit(truncated, measured, spacings)


def test_transverse_modes_two_ions():
    # Two ions: centre-of-mass mode at wx, rocking mode at
    # sqrt(wx^2 - 2 k/(m d^3)).
    wx, d = 2 * math.pi * 2.718e6, 5.28e-6
    c = checks._COULOMB / checks._MASS / d**3
    np.testing.assert_allclose(checks.transverse_modes([d], wx),
                               [math.sqrt(wx**2 - 2 * c), wx], rtol=1e-14)


def test_rabi_check(capsys, tmp_path):
    _, spacings = _measured(20)
    z = np.concatenate([[0.0], np.cumsum(spacings)])
    table, truth = checks.rabi_table(7, z - z.mean())
    path = tmp_path / "rabi.csv"
    path.write_text(table)
    assert jchsim_main(["calibrate", "--rabi", str(path)]) == 0
    report = capsys.readouterr().out
    assert checks.check_rabi_fit(report, truth) == []
    for key, change in (("waist_um", 1.0), ("peak_rabi_kHz", 0.1), ("center_um", 0.1)):
        bad = _edit_report(report, key, lambda v: v + change)
        assert checks.check_rabi_fit(bad, truth), key
    assert checks.rabi_table(7, z)[1] == truth
    assert checks.rabi_table(8, z)[1] != truth
