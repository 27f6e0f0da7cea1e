import dataclasses
import os
import re
from pathlib import Path

import numpy as np
import pytest

from jchsim.cli import main
from jchsim.constants import TWO_PI, khz, to_khz
from jchsim.experiment import ExperimentConfig


def write(path, text):
    path.write_text(text)
    return str(path)


SMALL_CFG = """\
n_ions = 2
excitations = 2
geometry = spacings
spacings_um = 5.280
top_mode_MHz = 2.718
g_kHz = 11.6
delta_kHz = -60
total_time_us = 100
samples = 21
"""


class TestSimulate:
    def test_artifacts_written(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", SMALL_CFG)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--output-dir", str(out)]) == 0
        for name in ("timeseries.csv", "modes.csv", "t_matrix.csv",
                     "params.txt", "plot.svg"):
            assert (out / name).exists(), name
        params = (out / "params.txt").read_text()
        assert "g_kHz" in params and "omega_tilde_kHz" in params
        svg = (out / "plot.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write(tmp_path / "run.cfg", SMALL_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", cfg, "--output-dir", str(out1)]) == 0
        assert main(["simulate", cfg, "--output-dir", str(out2)]) == 0
        assert (out1 / "timeseries.csv").read_bytes() == (
            out2 / "timeseries.csv"
        ).read_bytes()

    def test_parse_error_reports_line(self, tmp_path, capsys):
        cfg = write(tmp_path / "bad.cfg", "n_ions = 2\nthis is not a pair\n")
        assert main(["simulate", cfg]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write(tmp_path / "bad.cfg", SMALL_CFG + "bogus_key = 1\n")
        assert main(["simulate", cfg]) == 2

    def test_missing_file(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.cfg")]) == 2

    def test_dimension_cap_exit_code(self, tmp_path, capsys):
        text = SMALL_CFG.replace("n_ions = 2", "n_ions = 20").replace(
            "excitations = 2", "excitations = 20"
        ).replace("spacings_um = 5.280", "spacings_um = " + ",".join(["5.0"] * 19))
        cfg = write(tmp_path / "big.cfg", text)
        assert main(["simulate", cfg]) == 3
        err = capsys.readouterr().err
        assert "dimension" in err

    def test_delta_scan(self, tmp_path):
        text = SMALL_CFG + "delta_scan_kHz = -30,10\nscan_ion = 1\n"
        cfg = write(tmp_path / "scan.cfg", text)
        out = tmp_path / "scan_out"
        assert main(["simulate", cfg, "--output-dir", str(out)]) == 0
        scan = (out / "scan.csv").read_text().strip().splitlines()
        assert scan[0] == "time_us,delta_kHz,sz_ion1"
        assert len(scan) == 1 + 2 * 21
        assert (out / "delta_-30kHz" / "timeseries.csv").exists()
        assert (out / "delta_10kHz" / "timeseries.csv").exists()

    def test_delta_scan_threaded_matches_serial(self, tmp_path):
        text = SMALL_CFG + "delta_scan_kHz = -30,10\nscan_ion = 1\n"
        cfg = write(tmp_path / "scan.cfg", text)
        out1, out2 = tmp_path / "serial", tmp_path / "threaded"
        assert main(["simulate", cfg, "--output-dir", str(out1)]) == 0
        assert main(["--threads", "2", "simulate", cfg,
                     "--output-dir", str(out2)]) == 0
        assert (out1 / "scan.csv").read_bytes() == (out2 / "scan.csv").read_bytes()


# Each replaces its keys' lines in SMALL_CFG and is appended last, so the
# error must name the config's last line.
BAD_CONFIG_VALUES = [
    "samples = 1",
    "krylov_tol = 0.5",
    "excited_ions = 1,9",
    "max_krylov_dim = 0",
    "g_kHz = nan",
    "g_kHz = -3",
    "total_time_us = -5",
    "top_mode_MHz = inf",
    "delta_scan_kHz = -30,10\nscan_ion = 5",
]


@pytest.mark.parametrize("bad", BAD_CONFIG_VALUES)
def test_bad_config_value_exits_2_with_line(tmp_path, capsys, bad):
    keys = {line.split("=")[0].strip() for line in bad.splitlines()}
    kept = [line for line in SMALL_CFG.splitlines()
            if line.split("=")[0].strip() not in keys]
    lines = kept + bad.splitlines()
    cfg = write(tmp_path / "bad.cfg", "\n".join(lines) + "\n")
    assert main(["simulate", cfg, "--output-dir", str(tmp_path / "out")]) == 2
    assert f"line {len(lines)}: " in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["abc", "nan", ""], ids=["text", "nan", "empty"])
@pytest.mark.parametrize("option,rows", [
    ("--spectrum", ["index,frequency_MHz", "1,2.70", "2,2.72", "3,{}"]),
    ("--rabi", ["position_um,rabi_kHz", "-5,40", "0,50", "5,{}"]),
])
def test_bad_csv_cell_exits_2_with_line(tmp_path, capsys, option, rows, cell):
    csv = write(tmp_path / "bad.csv", "\n".join(rows).format(cell) + "\n")
    assert main(["calibrate", option, csv]) == 2
    assert "line 4: " in capsys.readouterr().err


def test_readme_config_table_matches_grammar():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Config grammar")[1].split("\n### ")[0]
    documented = set()
    for row in table.splitlines():
        if row.startswith("| `"):
            documented.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    grammar = {f.metadata["key"] for f in dataclasses.fields(ExperimentConfig)}
    assert documented == grammar


class TestDimension:
    def test_small(self, capsys):
        assert main(["dimension", "1", "1"]) == 0
        out = capsys.readouterr().out
        assert "D(1,1) = 2" in out

    def test_8_8(self, capsys):
        assert main(["dimension", "8", "8"]) == 0
        assert "157184" in capsys.readouterr().out

    def test_32_32_log2(self, capsys):
        assert main(["dimension", "32", "32"]) == 0
        out = capsys.readouterr().out
        log2 = float(out.split("log2(D) = ")[1])
        assert log2 > 77.0


class TestCalibrate:
    def test_spectrum_fit_two_ions(self, tmp_path, capsys, chain_tables):
        rows = ["index,frequency_MHz"]
        rows += [f"{i + 1},{f}" for i, f in enumerate(chain_tables[2]["modes_MHz"])]
        csv = write(tmp_path / "spec.csv", "\n".join(rows) + "\n")
        assert main(["calibrate", "--spectrum", csv]) == 0
        out = capsys.readouterr().out
        spacing = float(out.split("spacings_um = ")[1].splitlines()[0])
        assert spacing == pytest.approx(5.280, abs=0.03)

    def test_rabi_fit(self, tmp_path, capsys):
        z = np.linspace(-50, 50, 31)
        rabi = 50.0 * np.exp(-2 * (z * 1e-6) ** 2 / (162e-6) ** 2)
        rows = ["position_um,rabi_kHz"]
        rows += [f"{zi},{ri}" for zi, ri in zip(z, rabi)]
        csv = write(tmp_path / "rabi.csv", "\n".join(rows) + "\n")
        assert main(["calibrate", "--rabi", csv]) == 0
        out = capsys.readouterr().out
        waist = float(out.split("waist_um = ")[1].splitlines()[0])
        assert waist == pytest.approx(162.0, abs=1.0)

    def test_bad_spectrum_schema(self, tmp_path):
        csv = write(tmp_path / "bad.csv", "a,b\n1,2\n")
        assert main(["calibrate", "--spectrum", csv]) == 2


def test_unit_roundtrip_exact():
    for value in (11.6, -60.0, 2.718e3, 0.3):
        assert abs(to_khz(khz(value)) - value) <= 1e-12 * abs(value)
    assert khz(1.0) == TWO_PI * 1e3
