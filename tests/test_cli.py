import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from jchsim import experiment, ion_chain
from jchsim.cli import main
from jchsim.constants import TWO_PI, khz, microseconds, to_khz
from jchsim.experiment import (
    ExperimentConfig,
    _scan_subdir,
    parse_config,
    resolve_model,
    with_detuning,
)
from jchsim.fock_basis import enumerate_sector, sector_dimension
from jchsim.hamiltonian import build_hamiltonian
from jchsim.propagator import SPAN_DIMENSION, EvolutionRequest, evolve

from conftest import REPO_ROOT, dense_sigma_z, record_lanczos_steps


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

    @pytest.mark.parametrize("message, detail", [
        ("Unable to allocate 745. GiB for an array with shape (100000000000,) "
         "and data type float64", " (Unable to allocate 745. GiB"),
        ("", "\n"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch,
                                   message, detail):
        # Raised, not allocated: a host that overcommits memory could grant
        # a real allocation and then kill the run.
        def evolve(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(experiment, "evolve", evolve)
        cfg = write(tmp_path / "run.cfg", SMALL_CFG)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--output-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible: not enough memory" + detail)
        assert "Traceback" not in err
        assert not out.exists()

    def test_delta_scan(self, tmp_path):
        text = SMALL_CFG + "delta_scan_kHz = -30,10\nscan_ion = 1\n"
        cfg = write(tmp_path / "scan.cfg", text)
        out = tmp_path / "scan_out"
        assert main(["simulate", cfg, "--output-dir", str(out)]) == 0
        scan = (out / "scan.csv").read_text().strip().splitlines()
        assert scan[0] == "time_us,delta_kHz,sz_ion1"
        assert len(scan) == 1 + 2 * 21
        # Each detuning's rows, in scan order, are its own sub-run's
        # time_us and sz_ion1 cells.
        expected = []
        for delta in ("-30", "10"):
            sub = (out / f"delta_{delta}kHz" / "timeseries.csv").read_text()
            header, *rows = sub.strip().splitlines()
            columns = header.split(",")
            t, sz = columns.index("time_us"), columns.index("sz_ion1")
            for row in rows:
                cells = row.split(",")
                expected.append(f"{cells[t]},{delta},{cells[sz]}")
        assert scan[1:] == expected

    @pytest.mark.parametrize("name", ["fig3h", "fig3i", "fig3j", "fig3k"])
    def test_infeasible_shipped_config_leaves_no_output(
        self, tmp_path, capsys, config_dir, name
    ):
        out = tmp_path / "x"
        cfg = os.path.join(config_dir, f"{name}.cfg")
        assert main(["simulate", cfg, "--output-dir", str(out)]) == 3
        assert "dimension" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new", [
        ("top_mode_MHz = 2.744", "top_mode_MHz = 0.3"),
        ("spacings_um = 6.602,6.104,6.602", "spacings_um = 1.5,1.5,1.5"),
    ], ids=["low_top_mode", "tight_spacings"])
    def test_unanchorable_top_mode_exits_3(self, tmp_path, capsys, config_dir,
                                           old, new):
        text = Path(config_dir, "fig3a_scan.cfg").read_text()
        assert old in text
        cfg = write(tmp_path / "run.cfg", text.replace(old, new))
        out = tmp_path / "x"
        assert main(["simulate", cfg, "--output-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible: cannot anchor top_mode_MHz")
        assert "omega_i^2 <= 0" in err
        assert not out.exists()

    def test_anchor_without_convergence_exits_3(self, tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.setattr(ion_chain, "ANCHOR_MAX_ITER", 1)
        cfg = write(tmp_path / "run.cfg", SMALL_CFG)
        out = tmp_path / "x"
        assert main(["simulate", cfg, "--output-dir", str(out)]) == 3
        assert "no transverse frequency" in capsys.readouterr().err
        assert not out.exists()

    def test_every_artifact_written_once_through_atomic_write(
        self, tmp_path, monkeypatch
    ):
        written = []
        atomic_write = experiment._atomic_write

        def recorded(path, text):
            written.append(Path(path))
            atomic_write(path, text)

        monkeypatch.setattr(experiment, "_atomic_write", recorded)
        text = SMALL_CFG + "delta_scan_kHz = -30,10\n"
        cfg = write(tmp_path / "scan.cfg", text)
        out = tmp_path / "scan_out"
        assert main(["simulate", cfg, "--output-dir", str(out)]) == 0
        files = sorted(p for p in out.rglob("*") if p.is_file())
        assert len(files) == 2 * 5 + 1  # five per sub-run, plus scan.csv
        assert sorted(written) == files
        assert not list(out.rglob("*.tmp"))

    def test_plot_svg_is_well_formed_xml(self, tmp_path):
        text = SMALL_CFG + "delta_scan_kHz = -30,10\n"
        cfg = write(tmp_path / "scan.cfg", text)
        out = tmp_path / "scan_out"
        assert main(["simulate", cfg, "--output-dir", str(out)]) == 0
        plots = sorted(out.rglob("plot.svg"))
        assert len(plots) == 2
        for plot in plots:
            root = ElementTree.parse(plot).getroot()
            assert root.tag == "{http://www.w3.org/2000/svg}svg"
            title = root.find("{http://www.w3.org/2000/svg}text").text
            assert title == "per-ion <sigma_z>"

    def test_benchmark_flags_parse_and_change_no_byte(self, tmp_path):
        # bench/run.py passes --threads and bench/tests pass --seed; both
        # must still parse and neither may change an artifact
        text = SMALL_CFG + "delta_scan_kHz = -30,10\nscan_ion = 1\n"
        cfg = write(tmp_path / "scan.cfg", text)
        out1, out2 = tmp_path / "plain", tmp_path / "flagged"
        assert main(["simulate", cfg, "--output-dir", str(out1)]) == 0
        assert main(["--threads", "2", "--seed", "1", "simulate", cfg,
                     "--output-dir", str(out2)]) == 0
        files = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(out2) for p in out2.rglob("*")
                               if p.is_file())
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def cfg_with(text, override):
    """text's lines with the override's keys replaced by its lines, last."""
    keys = {line.split("=")[0].strip() for line in override.splitlines()}
    kept = [line for line in text.splitlines()
            if line.split("=")[0].strip() not in keys]
    return kept + override.splitlines()


def small_cfg_with(override):
    return cfg_with(SMALL_CFG, override)


def spectrum_csv(modes):
    rows = ["index,frequency_MHz"]
    rows += [f"{i + 1},{f}" for i, f in enumerate(modes.split(","))]
    return "\n".join(rows) + "\n"


# Each is appended last by small_cfg_with, so the error must name the
# config's last line.
BAD_CONFIG_VALUES = [
    "samples = 1",
    "krylov_tol = 0.5",
    "excited_ions = 1,9",
    "dimension_cap = 0",
    "g_kHz = nan",
    "g_kHz = -3",
    "total_time_us = -5",
    "top_mode_MHz = inf",
    "delta_scan_kHz = -30,10\nscan_ion = 5",
    # runs start with zero phonons, so M > N cannot be prepared
    "excitations = 3",
    "excitations = 1000000000000",
    # sub-run directories are named with %g, so these would overwrite
    "delta_scan_kHz = -15.0000001,-15.0000002,-15",
    "delta_scan_kHz = 10,-30,10",
    # a scan lists at least one detuning; 0 and -0 would write two equal
    # sub-runs, delta_0kHz and delta_-0kHz
    "delta_scan_kHz = ,",
    "delta_scan_kHz = 0,-0",
    # an empty list entry is refused, not dropped; with excitations = 0
    # an empty excited_ions list would otherwise run with no excitation
    "excited_ions = ,",
    "excitations = 0\nexcited_ions = ,",
    "excited_ions = 1,,2",
    "spacings_um = 5.280,",
    # finite in the file's units, but 0 or inf once converted to SI
    "spacings_um = 1e-318",
    "total_time_us = 1e-318",
    "waist_um = 1e-318",
    "beam_center_um = 1e-318",
    "delta_kHz = 1e308",
    "stark_kHz = 1e305",
    "g_kHz = 1e305",
]


@pytest.mark.parametrize("bad", BAD_CONFIG_VALUES)
def test_bad_config_value_exits_2_with_line(tmp_path, capsys, bad):
    lines = small_cfg_with(bad)
    cfg = write(tmp_path / "bad.cfg", "\n".join(lines) + "\n")
    assert main(["simulate", cfg, "--output-dir", str(tmp_path / "out")]) == 2
    assert f"line {len(lines)}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def write_with_bom(path, text):
    """text as UTF-8 after a byte-order mark, as some editors save it."""
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    return str(path)


def test_config_with_byte_order_mark_runs(tmp_path):
    plain = write(tmp_path / "plain.cfg", SMALL_CFG)
    marked = write_with_bom(tmp_path / "marked.cfg", SMALL_CFG)
    out1, out2 = tmp_path / "plain", tmp_path / "marked"
    assert main(["simulate", plain, "--output-dir", str(out1)]) == 0
    assert main(["simulate", marked, "--output-dir", str(out2)]) == 0
    files = sorted(p.name for p in out1.iterdir())
    assert files == sorted(p.name for p in out2.iterdir()) and files
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_rabi_csv_with_byte_order_mark_runs(tmp_path, capsys):
    text = "position_um,rabi_kHz\n-50,30\n-20,45\n0,50\n20,45\n50,30\n"
    plain = write(tmp_path / "plain.csv", text)
    marked = write_with_bom(tmp_path / "marked.csv", text)
    assert main(["calibrate", "--rabi", plain]) == 0
    expected = capsys.readouterr().out
    assert main(["calibrate", "--rabi", marked]) == 0
    assert capsys.readouterr().out == expected


# Keys that only picked or tuned the algorithm, or repeated --output-dir.
@pytest.mark.parametrize("line", [
    "method = krylov", "max_krylov_dim = 40", "output_dir = elsewhere",
], ids=["method", "max_krylov_dim", "output_dir"])
def test_removed_key_exits_2_as_unknown(tmp_path, capsys, line):
    lines = small_cfg_with(line)
    cfg = write(tmp_path / "old.cfg", "\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--output-dir", str(out)]) == 2
    key = line.split(" = ")[0]
    assert f"line {len(lines)}: unknown key {key!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cell", ["abc", "nan", "", "1e305"],
                         ids=["text", "nan", "empty", "inf-in-SI"])
@pytest.mark.parametrize("option,rows", [
    ("--spectrum", ["index,frequency_MHz", "1,2.70", "2,2.72", "3,{}"]),
    ("--rabi", ["position_um,rabi_kHz", "-5,40", "0,50", "5,{}"]),
])
def test_bad_csv_cell_exits_2_with_line(tmp_path, capsys, option, rows, cell):
    csv = write(tmp_path / "bad.csv", "\n".join(rows).format(cell) + "\n")
    assert main(["calibrate", option, csv]) == 2
    assert "line 4: " in capsys.readouterr().err


@pytest.mark.parametrize("beam", [
    "waist_um = 1e-3",
    "n_ions = 3\nexcitations = 1\nspacings_um = 5.28,5.28\n"
    "waist_um = 1e-3\nbeam_center_um = 3",
], ids=["two-ion", "off-center"])
def test_beam_too_narrow_for_chain_exits_2(tmp_path, capsys, beam):
    # The drive underflows at an ion (or at the chain center), which no
    # single-key range can refuse: it depends on the ion positions.
    cfg = write(tmp_path / "narrow.cfg", "\n".join(small_cfg_with(beam)) + "\n")
    assert main(["simulate", cfg, "--output-dir", str(tmp_path / "out")]) == 2
    assert "waist_um" in capsys.readouterr().err


# Finite in SI units, but T ||H|| so large that rounding H's entries alone
# could move the state by more than krylov_tol.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("big", [
    "total_time_us = 1e300", "g_kHz = 1e300", "delta_kHz = 1e300",
])
def test_run_beyond_rounding_exits_2(tmp_path, capsys, big):
    cfg = write(tmp_path / "big.cfg", "\n".join(small_cfg_with(big)) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: total_time_us = ") and "krylov_tol" in err
    assert not out.exists()


# A transverse frequency finite in SI units whose square overflows.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("frequency", [
    "top_mode_MHz = 1e300",
    "geometry = trap\ntransverse_MHz = 1e300\naxial_kHz = 200",
], ids=["anchor", "trap"])
def test_overflowing_transverse_frequency_exits_3(tmp_path, capsys, frequency):
    cfg = write(tmp_path / "big.cfg", "\n".join(small_cfg_with(frequency)) + "\n")
    out = tmp_path / "out"
    assert main(["simulate", cfg, "--output-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("infeasible: ") and "square overflows" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "{dir}"],
    ["simulate", "{binary}"],
    ["calibrate", "--spectrum", "{dir}"],
    ["calibrate", "--rabi", "{dir}"],
    ["simulate", "{config}", "--output-dir", "{file}"],
], ids=["config-is-dir", "config-not-utf8", "spectrum-is-dir", "rabi-is-dir",
        "output-dir-is-file"])
def test_bad_input_file_exits_2(tmp_path, capsys, argv):
    (tmp_path / "binary.cfg").write_bytes(b"n_ions = \xff\n")
    paths = {"dir": tmp_path, "binary": tmp_path / "binary.cfg",
             "config": write(tmp_path / "run.cfg", SMALL_CFG),
             "file": write(tmp_path / "taken", "")}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_output_below_a_file_exits_2_before_any_work(tmp_path, capsys,
                                                     monkeypatch):
    def no_work(*args):
        raise AssertionError("ran before the output path was checked")

    monkeypatch.setattr(experiment, "resolve_model", no_work)
    taken = write(tmp_path / "taken", "")
    cfg = write(tmp_path / "run.cfg", SMALL_CFG)
    assert main(["simulate", cfg, "--output-dir", os.path.join(taken, "sub")]) == 2
    assert taken in capsys.readouterr().err


def test_spectrum_file_not_utf8_exits_2_naming_it(tmp_path, capsys):
    spectrum = tmp_path / "modes.csv"
    spectrum.write_bytes(b"index,frequency_MHz\n1,2.7\xff\n2,2.72\n")
    cfg = write(tmp_path / "run.cfg", "\n".join(small_cfg_with(
        f"geometry = spectrum\nspectrum_file = {spectrum}")) + "\n")
    assert main(["simulate", cfg, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(spectrum) in err
    assert not (tmp_path / "out").exists()


def test_broken_pipe_exits_141(tmp_path, monkeypatch):
    class ClosedPipe:
        """A stdout whose reader has gone away."""

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return fh.fileno()

    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["dimension", "8", "8"]) == 141
        # the flush at exit now writes to devnull and cannot fail again
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))


def src_env():
    """The environment, with this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH")])
    )
    return env


@pytest.mark.parametrize("read", [1, 0], ids=["head-c-1", "reader-gone"])
def test_closed_pipe_exits_without_traceback(read):
    """jchsim dimension 8 8 | head -c <read>, on a real pipe.

    head -c 1 may close the pipe before or after the write, so 0 and 141
    both pass; a reader gone before the write leaves only 141.  Either
    way the interpreter's flush at exit prints no traceback.
    """
    # stdout on a pipe is block-buffered, as from a shell, so the write
    # happens at a flush
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    r, w = os.pipe()
    if not read:
        os.close(r)
    with subprocess.Popen(
        [sys.executable, "-m", "jchsim.cli", "dimension", "8", "8"],
        stdout=w, stderr=subprocess.PIPE, env=env,
    ) as proc:
        os.close(w)
        if read:
            os.read(r, read)
            os.close(r)
        _, err = proc.communicate(timeout=60)
    assert proc.returncode in ({0, 141} if read else {141})
    assert "Traceback" not in err.decode()


LOADED_MODULES = """\
import sys
from jchsim.cli import main
code = main(sys.argv[1:])
print(*sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
sys.exit(code)
"""


@pytest.mark.parametrize("argv, sparse", [
    (["simulate", "{cfg}", "--output-dir", "{out}"], False),
    (["simulate", "{large_cfg}", "--output-dir", "{out}"], True),
    (["dimension", "8", "8"], False),
    (["calibrate", "--spectrum", "{spectrum}"], False),
    (["calibrate", "--rabi", "{rabi}"], False),
], ids=["simulate", "simulate-above-span-dimension", "dimension", "calibrate",
        "calibrate-rabi"])
def test_scipy_modules_each_subcommand_loads(tmp_path, argv, sparse):
    """Only a Hamiltonian build above SPAN_DIMENSION loads SciPy, and then
    only scipy.sparse: each import costs a cold process tenths of a
    second.  SMALL_CFG (N = M = 2) lies far below it, and large_cfg
    evolves a mirror-even sector of 2,687 states."""
    large = small_cfg_with("n_ions = 6\nexcitations = 6\nspacings_um = 6,5.6,5.5,5.6,6\n"
                           "total_time_us = 10\nsamples = 3")
    paths = {
        "cfg": write(tmp_path / "run.cfg", SMALL_CFG),
        "large_cfg": write(tmp_path / "large.cfg", "\n".join(large) + "\n"),
        "out": str(tmp_path / "out"),
        "spectrum": os.path.join(REPO_ROOT, "bench", "inputs", "spectrum_4.csv"),
        "rabi": write(tmp_path / "rabi.csv",
                      "position_um,rabi_kHz\n-50,30\n-20,45\n0,50\n20,45\n50,30\n"),
    }
    done = subprocess.run(
        [sys.executable, "-c", LOADED_MODULES, *(a.format(**paths) for a in argv)],
        capture_output=True, text=True, env=src_env(), check=True,
    )
    loaded = done.stdout.splitlines()[-1].split()
    assert ("scipy.sparse" in loaded) == sparse
    if not sparse:
        assert loaded == []
    for heavy in ("scipy.optimize", "scipy.linalg", "scipy.special", "scipy.fft"):
        assert heavy not in loaded


def test_readme_config_table_matches_grammar():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Config grammar")[1].split("\n### ")[0]
    documented = set()
    for row in table.splitlines():
        if row.startswith("| `"):
            documented.update(re.findall(r"`([^`]+)`", row.split("|")[1]))
    grammar = {f.metadata["key"] for f in dataclasses.fields(ExperimentConfig)}
    assert documented == grammar


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(example, "README.md", "exec"), {})
    sigma_z = np.array(capsys.readouterr().out.strip(" []\n").split(), dtype=float)
    assert sigma_z.shape == (2,) and np.all(np.abs(sigma_z) <= 1.0 + 1e-8)


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

    @staticmethod
    def without_int_str_limit(call):
        """call() with the int <-> str digit limit lifted."""
        # 0 means no limit, as before Python 3.10.7
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            return call()
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    def test_more_digits_than_int_str_limit(self, capsys):
        # D(n, 2) = 2 n^2 has 5,001 digits, above the 4,300 that str() of an
        # int allows by default (Python 3.10.7 on).
        n = 10**2500
        assert main(["dimension", str(n), "2"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        expected = self.without_int_str_limit(lambda: str(sector_dimension(n, 2)))
        assert len(expected) == 5001
        assert first == f"D({n},2) = {expected}"

    def test_n_with_more_digits_than_int_str_limit(self, capsys):
        # int() refuses an N of 4,401 digits, above the 4,300 it reads by
        # default (Python 3.10.7 on); D(n, 2) = 2 n^2 has 8,801.
        digits = "1" + "0" * 4399 + "7"
        assert main(["dimension", digits, "2"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        expected = self.without_int_str_limit(
            lambda: str(sector_dimension(int(digits), 2)))
        assert len(expected) == 8801
        assert first == f"D({digits},2) = {expected}"


@pytest.mark.parametrize("argv", [
    ["dimension", "-1", "3"],
    ["dimension", "0", "0"],
    ["dimension", "3", "-1"],
    ["--threads", "0", "dimension", "2", "2"],
    ["--threads", "-3", "dimension", "2", "2"],
], ids=["negative-ions", "zero-ions", "negative-excitations", "zero-threads",
        "negative-threads"])
def test_bad_cli_number_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "is not a finite int in" in capsys.readouterr().err


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

    @pytest.mark.parametrize("modes,code,message", [
        ("0.1,2.7", 4, "no stable chain"),
    ], ids=["zigzag"])
    def test_degenerate_spectrum_exit_code(self, tmp_path, capsys, modes, code,
                                           message):
        csv = write(tmp_path / "spec.csv", spectrum_csv(modes))
        assert main(["calibrate", "--spectrum", csv]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("option,rows,line,message", [
        ("--spectrum", ["index,frequency_MHz", "1,2.7", "2,-2.7"], 3, "positive mode"),
        ("--spectrum", ["index,frequency_MHz", "1,0", "2,2.7"], 2, "positive mode"),
        # abs() of the fitted peak once turned these into a +2 kHz beam
        ("--rabi", ["position_um,rabi_kHz", "-5,-1", "0,-2", "5,-1"], 2, ">= 0"),
        ("--rabi", ["position_um,rabi_kHz", "-5,1", "0,-2", "5,1", "10,0.5"], 3,
         ">= 0"),
    ], ids=["negative-mode", "zero-mode", "negative-rabi", "mixed-sign-rabi"])
    def test_impossible_cell_exits_2_naming_file_and_line(self, tmp_path, capsys,
                                                          option, rows, line,
                                                          message):
        csv = write(tmp_path / "cells.csv", "\n".join(rows) + "\n")
        assert main(["calibrate", option, csv]) == 2
        err = capsys.readouterr().err
        assert f"line {line}: {csv}: bad " in err and message in err

    @pytest.mark.parametrize("command,text,message", [
        ("--spectrum", spectrum_csv("2.7,2.7"), "band width"),
        ("--rabi", "position_um,rabi_kHz\n1,40\n1,50\n2,45\n", "3 distinct positions"),
        ("--rabi", "position_um,rabi_kHz\n-5,0\n0,0\n5,0\n", "no drive measured"),
        ("simulate", spectrum_csv("2.7,2.7"), "band width"),
    ], ids=["flat-spectrum", "two-positions", "zero-rabi", "flat-spectrum-config"])
    def test_degenerate_data_names_file(self, tmp_path, capsys, command, text,
                                        message):
        csv = write(tmp_path / "data.csv", text)
        if command == "simulate":
            lines = small_cfg_with(f"geometry = spectrum\nspectrum_file = {csv}")
            cfg = write(tmp_path / "run.cfg", "\n".join(lines) + "\n")
            argv = ["simulate", cfg, "--output-dir", str(tmp_path / "out")]
        else:
            argv = ["calibrate", command, csv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {csv}: " in err and message in err

    def test_spectrum_residual_over_threshold_exits_4(self, tmp_path, capsys):
        # bench/inputs/spectrum_4.csv with its second mode moved by +30 kHz
        csv = write(tmp_path / "spec.csv", spectrum_csv("2.692,2.744,2.732,2.744"))
        assert main(["calibrate", "--spectrum", csv]) == 4
        assert "exceeds" in capsys.readouterr().err


def test_unit_roundtrip_exact():
    for value in (11.6, -60.0, 2.718e3, 0.3):
        assert abs(to_khz(khz(value)) - value) <= 1e-12 * abs(value)
    assert khz(1.0) == TWO_PI * 1e3


def scan_cfg_with(tmp_path, config_dir, override):
    text = Path(config_dir, "fig3a_scan.cfg").read_text()
    return write(tmp_path / "scan.cfg", "\n".join(cfg_with(text, override)) + "\n")


def per_detuning(cfg_path, solve):
    """Each detuning of the config evolved alone on the full sector:
    {delta_kHz: solve(h, req, basis)}, solve being evolve or dense_sigma_z."""
    cfg = parse_config(cfg_path)
    model = resolve_model(cfg)
    basis = enumerate_sector(cfg.n_ions, cfg.excitations)
    req = EvolutionRequest(
        total_time=microseconds(cfg.total_time_us), samples=cfg.samples,
        excited_ions=cfg.excited_ions, krylov_tol=cfg.krylov_tol,
    )
    return {
        d: solve(build_hamiltonian(with_detuning(model, d), basis), req, basis)
        for d in cfg.delta_scan_khz or [cfg.delta_khz]
    }


class TestJointScan:
    """A scan's sub-runs: each detuning is evolved on its own, and its
    artifacts are those of a single run of that detuning."""

    # Detunings spanning +-600 kHz, which no longer share one Krylov step.
    WIDE = (
        "delta_scan_kHz = " + ",".join(str(d) for d in range(-600, 601, 100))
        + "\ntotal_time_us = 100\nsamples = 11"
    )
    FILES = ("timeseries.csv", "params.txt", "plot.svg")

    @staticmethod
    def single_run(tmp_path, scan_cfg, delta):
        """The output directory of a single run of the scan's detuning delta."""
        lines = cfg_with(Path(scan_cfg).read_text(), f"delta_kHz = {delta:g}")
        cfg = write(tmp_path / f"single{delta:g}.cfg",
                    "\n".join(line for line in lines
                              if not line.startswith("delta_scan_kHz")) + "\n")
        out = tmp_path / f"single{delta:g}"
        assert main(["simulate", cfg, "--output-dir", str(out)]) == 0
        return out

    @pytest.mark.parametrize("override", ["", WIDE], ids=["fig3a_scan", "wide"])
    def test_matches_dense_and_serial(self, tmp_path, monkeypatch, config_dir,
                                      override):
        cfg = scan_cfg_with(tmp_path, config_dir, override)
        out = tmp_path / "out"
        log = record_lanczos_steps(monkeypatch)
        assert main(["simulate", cfg, "--output-dir", str(out)]) == 0
        steps = list(log)
        monkeypatch.undo()
        deltas = parse_config(cfg).delta_scan_khz
        # One accepted step per detuning on the mirror-even sector of
        # N = M = 4 (100 of the 192 states), whose buffer spans it.
        assert [(size, ok) for size, _, ok in steps] == [(100, True)] * len(deltas)
        dense = per_detuning(cfg, dense_sigma_z)
        for d in deltas:
            sub = out / _scan_subdir(d)
            single = self.single_run(tmp_path, cfg, d)
            for name in self.FILES:
                assert (sub / name).read_bytes() == (single / name).read_bytes(), name
            rows = np.loadtxt(sub / "timeseries.csv", delimiter=",", skiprows=1)
            assert np.max(np.abs(rows[:, 1:-2] - dense[d])) <= 1e-10
            assert rows[:, -2].max() <= 1e-11  # norm drift
            assert rows[:, -1].max() <= 1e-11  # excitation drift

    def test_fig3a_scan_matvecs(self, tmp_path, monkeypatch, config_dir):
        log = record_lanczos_steps(monkeypatch)
        cfg = os.path.join(config_dir, "fig3a_scan.cfg")
        assert main(["simulate", cfg, "--output-dir", str(tmp_path / "out")]) == 0
        # D or D + 1 matvecs per detuning, D = 100: 1,304 in all, where
        # stacking the 13 detunings as one block-diagonal system made 3,663
        assert sum(calls for _, calls, _ in log) <= 1304

    def test_one_detuning_scan_matches_plain_run(self, tmp_path, config_dir):
        scan = scan_cfg_with(tmp_path, config_dir, "delta_scan_kHz = -45")
        plain = write(
            tmp_path / "plain.cfg",
            "\n".join(line for line in cfg_with(
                Path(scan).read_text(), "delta_kHz = -45") if "delta_scan" not in line)
            + "\n",
        )
        a, b = tmp_path / "scan", tmp_path / "plain"
        assert main(["simulate", scan, "--output-dir", str(a)]) == 0
        assert main(["simulate", plain, "--output-dir", str(b)]) == 0
        assert (a / "delta_-45kHz" / "timeseries.csv").read_bytes() == (
            b / "timeseries.csv").read_bytes()

    def test_sector_above_span_dimension_matches_single_runs(self, tmp_path,
                                                             monkeypatch):
        base = small_cfg_with(
            "n_ions = 6\nexcitations = 6\nspacings_um = 6,5.6,5.5,5.6,6\n"
            "total_time_us = 10\nsamples = 3"
        )
        scan = write(tmp_path / "scan.cfg",
                     "\n".join(base + ["delta_scan_kHz = -30,10"]) + "\n")
        log = record_lanczos_steps(monkeypatch)
        assert main(["simulate", scan, "--output-dir", str(tmp_path / "scan")]) == 0
        monkeypatch.undo()
        # the mirror-even sector: 2,687 of the 5,336 states, stepped
        assert {size for size, _, _ in log} == {2687} and 2687 > SPAN_DIMENSION
        for d in (-30, 10):
            out = self.single_run(tmp_path, scan, d)
            sub = tmp_path / "scan" / _scan_subdir(d)
            for name in self.FILES:
                assert (sub / name).read_bytes() == (out / name).read_bytes(), name


class TestMirrorEvenRuns:
    """A run evolves in the mirror-even sector only if its chain and its
    initial state are mirror-symmetric; otherwise it keeps the full sector."""

    FOUR_IONS = ("n_ions = 4\nspacings_um = 6.602,6.104,6.602\n"
                 "top_mode_MHz = 2.744\ntotal_time_us = 200\n")

    def run_logged(self, tmp_path, monkeypatch, override):
        cfg = write(tmp_path / "run.cfg",
                    "\n".join(small_cfg_with(self.FOUR_IONS + override)) + "\n")
        log = record_lanczos_steps(monkeypatch)
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--output-dir", str(out)]) == 0
        monkeypatch.undo()
        (full,) = per_detuning(cfg, evolve).values()
        return out, {size for size, _, _ in log}, full

    def test_symmetric_run_evolves_even(self, tmp_path, monkeypatch):
        out, sizes, full = self.run_logged(tmp_path, monkeypatch, "excitations = 4")
        assert sizes == {100}  # of 192 states
        rows = np.loadtxt(out / "timeseries.csv", delimiter=",", skiprows=1)
        assert np.max(np.abs(rows[:, 1:-2] - full.sigma_z)) <= 1e-10
        assert rows[:, -2].max() <= 1e-11  # norm drift

    @pytest.mark.parametrize("override", [
        "excitations = 4\nbeam_center_um = 3",
        "excited_ions = 1,2",
    ], ids=["off-center-beam", "odd-initial-state"])
    def test_asymmetric_run_keeps_full_sector(self, tmp_path, monkeypatch,
                                              override):
        out, sizes, full = self.run_logged(tmp_path, monkeypatch, override)
        m = parse_config(str(tmp_path / "run.cfg")).excitations
        assert sizes == {sector_dimension(4, m)}
        assert (out / "timeseries.csv").read_text() == experiment._timeseries_csv(full)
