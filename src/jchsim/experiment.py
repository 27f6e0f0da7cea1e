"""Config-driven experiment runs.

Configs are flat key=value text files (comments with '#', lists
comma-separated).  A run resolves the chain geometry, anchors the
transverse trap frequency, derives per-ion couplings and detunings,
builds the sector Hamiltonian, evolves, and writes timeseries.csv,
modes.csv, t_matrix.csv, params.txt and plot.svg into the output
directory.  All files are written atomically (temp + rename).
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import calibration, svgplot
from .constants import khz, mhz, microns, microseconds, to_khz, to_mhz, to_microns
from .fock_basis import DEFAULT_DIMENSION_CAP, enumerate_sector, sector_dimension
from .hamiltonian import JchParameters, build_hamiltonian
from .ion_chain import (
    ChainGeometry,
    TrapParameters,
    anchor_transverse_frequency,
    hopping_to_csv,
    interaction_picture_shift,
    mode_parameters,
    modes_to_csv,
    equilibrium_positions,
)
from .propagator import EvolutionRequest, evolve
from .textio import write_text_atomic as _atomic_write


class ConfigError(ValueError):
    """Bad config file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class InfeasibleError(RuntimeError):
    """Physically or combinatorially infeasible run (exit code 3)."""


_KNOWN_KEYS = {
    "n_ions", "excitations", "excited_ions",
    "geometry", "spacings_um", "spectrum_file",
    "transverse_MHz", "axial_kHz", "quartic",
    "top_mode_MHz",
    "g_kHz", "delta_kHz", "waist_um", "stark_kHz", "beam_center_um",
    "total_time_us", "samples", "method",
    "krylov_tol", "max_krylov_dim",
    "output_dir", "dimension_cap",
    "delta_scan_kHz", "scan_ion",
}


@dataclass
class ExperimentConfig:
    """Fully parsed run description (units still CLI-facing)."""

    n_ions: int
    g_khz: float
    delta_khz: float
    total_time_us: float
    samples: int
    excitations: int = None
    excited_ions: list = None
    geometry_source: str = "spacings"
    spacings_um: list = None
    spectrum_file: str = None
    transverse_mhz: float = None
    axial_khz: float = None
    quartic: float = 0.0
    top_mode_mhz: float = None
    waist_um: float = 162.0
    stark_khz: float = 0.0
    beam_center_um: float = 0.0
    method: str = "krylov"
    krylov_tol: float = 1e-9
    max_krylov_dim: int = 40
    output_dir: str = None
    dimension_cap: int = DEFAULT_DIMENSION_CAP
    delta_scan_khz: list = None
    scan_ion: int = None


def parse_key_values(path):
    """Read a flat key=value file; returns dict plus line numbers."""
    pairs = {}
    lines = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"expected 'key = value', got {text!r}", lineno)
            key, value = (part.strip() for part in text.split("=", 1))
            if not key:
                raise ConfigError("empty key", lineno)
            if key in pairs:
                raise ConfigError(f"duplicate key {key!r}", lineno)
            pairs[key] = value
            lines[key] = lineno
    return pairs, lines


def _want(pairs, lines, key, convert, required=False, default=None):
    if key not in pairs:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return convert(pairs[key])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key!r}: {exc}", lines[key]) from exc


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def parse_config(path):
    pairs, lines = parse_key_values(path)
    unknown = set(pairs) - _KNOWN_KEYS
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"unknown key {key!r}", lines[key])

    cfg = ExperimentConfig(
        n_ions=_want(pairs, lines, "n_ions", int, required=True),
        g_khz=_want(pairs, lines, "g_kHz", float, required=True),
        delta_khz=_want(pairs, lines, "delta_kHz", float, required=True),
        total_time_us=_want(pairs, lines, "total_time_us", float, required=True),
        samples=_want(pairs, lines, "samples", int, required=True),
        excitations=_want(pairs, lines, "excitations", int),
        excited_ions=_want(pairs, lines, "excited_ions", _int_list),
        geometry_source=_want(pairs, lines, "geometry", str, default="spacings"),
        spacings_um=_want(pairs, lines, "spacings_um", _float_list),
        spectrum_file=_want(pairs, lines, "spectrum_file", str),
        transverse_mhz=_want(pairs, lines, "transverse_MHz", float),
        axial_khz=_want(pairs, lines, "axial_kHz", float),
        quartic=_want(pairs, lines, "quartic", float, default=0.0),
        top_mode_mhz=_want(pairs, lines, "top_mode_MHz", float),
        waist_um=_want(pairs, lines, "waist_um", float, default=162.0),
        stark_khz=_want(pairs, lines, "stark_kHz", float, default=0.0),
        beam_center_um=_want(pairs, lines, "beam_center_um", float, default=0.0),
        method=_want(pairs, lines, "method", str, default="krylov"),
        krylov_tol=_want(pairs, lines, "krylov_tol", float, default=1e-9),
        max_krylov_dim=_want(pairs, lines, "max_krylov_dim", int, default=40),
        output_dir=_want(pairs, lines, "output_dir", str),
        dimension_cap=_want(
            pairs, lines, "dimension_cap", int, default=DEFAULT_DIMENSION_CAP
        ),
        delta_scan_khz=_want(pairs, lines, "delta_scan_kHz", _float_list),
        scan_ion=_want(pairs, lines, "scan_ion", int),
    )

    if cfg.n_ions < 1:
        raise ConfigError("n_ions must be >= 1", lines.get("n_ions"))
    if cfg.excitations is None and cfg.excited_ions is None:
        raise ConfigError("need either 'excitations' or 'excited_ions'")
    if cfg.excited_ions is None:
        cfg.excited_ions = list(range(1, cfg.excitations + 1))
    if cfg.excitations is None:
        cfg.excitations = len(cfg.excited_ions)
    if cfg.excitations != len(cfg.excited_ions):
        raise ConfigError("excitations does not match the excited_ions list")
    if cfg.geometry_source not in ("spacings", "trap", "spectrum"):
        raise ConfigError(
            f"geometry must be spacings|trap|spectrum, got {cfg.geometry_source!r}",
            lines.get("geometry"),
        )
    if cfg.geometry_source == "spacings" and cfg.spacings_um is None:
        raise ConfigError("geometry=spacings requires spacings_um")
    if cfg.geometry_source == "spectrum" and cfg.spectrum_file is None:
        raise ConfigError("geometry=spectrum requires spectrum_file")
    if cfg.geometry_source == "trap" and (
        cfg.transverse_mhz is None or cfg.axial_khz is None
    ):
        raise ConfigError("geometry=trap requires transverse_MHz and axial_kHz")
    if cfg.geometry_source == "spacings" and cfg.top_mode_mhz is None:
        raise ConfigError("geometry=spacings requires top_mode_MHz to anchor the trap")
    if cfg.method not in ("krylov", "dense-oracle"):
        raise ConfigError(f"unknown method {cfg.method!r}", lines.get("method"))
    return cfg


@dataclass
class ResolvedModel:
    """Everything needed to build and evolve, in SI angular units."""

    config: ExperimentConfig
    geometry: ChainGeometry
    transverse_frequency: float
    modes_absolute: "ModeData"
    modes_shifted: "ModeData"
    site: calibration.SiteParameters
    params: JchParameters
    dimension: int


def resolve_model(cfg, seed=0, delta_khz=None):
    """Resolve geometry, modes and per-ion parameters for one run."""
    from .ion_chain import ModeData  # noqa: F401  (type only)

    delta_khz = cfg.delta_khz if delta_khz is None else delta_khz

    if cfg.geometry_source == "spacings":
        geometry = ChainGeometry.from_spacings(
            [microns(d) for d in cfg.spacings_um]
        )
        if geometry.n_ions != cfg.n_ions:
            raise ConfigError(
                f"spacings_um implies {geometry.n_ions} ions, n_ions={cfg.n_ions}"
            )
        wx = anchor_transverse_frequency(geometry, mhz(cfg.top_mode_mhz))
        trap = TrapParameters(transverse_frequency=wx, axial_quadratic=1.0)
    elif cfg.geometry_source == "trap":
        trap = TrapParameters(
            transverse_frequency=mhz(cfg.transverse_mhz),
            axial_quadratic=khz(cfg.axial_khz),
            axial_quartic=cfg.quartic,
        )
        try:
            geometry = equilibrium_positions(trap, cfg.n_ions)
        except Exception as exc:
            raise InfeasibleError(f"equilibrium solve failed: {exc}") from exc
        wx = trap.transverse_frequency
    else:  # spectrum
        measured = read_spectrum_csv(cfg.spectrum_file)
        guess = calibration.initial_trap_guess(measured)
        fit = calibration.fit_chain_from_spectrum(measured, guess, seed=seed)
        geometry = fit.geometry
        trap = fit.trap
        wx = trap.transverse_frequency
        if geometry.n_ions != cfg.n_ions:
            raise ConfigError(
                f"spectrum implies {geometry.n_ions} ions, n_ions={cfg.n_ions}"
            )

    from .ion_chain import ZigzagError

    try:
        modes = mode_parameters(
            TrapParameters(transverse_frequency=wx, axial_quadratic=1.0)
            if cfg.geometry_source != "trap"
            else trap,
            geometry,
        )
    except ZigzagError as exc:
        raise InfeasibleError(str(exc)) from exc
    shifted = interaction_picture_shift(modes, wx)

    profile = calibration.LaserProfile(
        peak_rabi=1.0,
        waist=math.inf if cfg.waist_um <= 0 else microns(cfg.waist_um),
        stark_amplitude=khz(cfg.stark_khz),
        beam_center=microns(cfg.beam_center_um),
    )
    site = calibration.derive_site_parameters(
        profile, geometry, g_central=khz(cfg.g_khz), delta_central=khz(delta_khz)
    )
    params = JchParameters(
        detunings=site.detunings,
        local_frequencies=shifted.corrected_local,
        couplings=site.couplings,
        hoppings=shifted.corrected_hopping,
    )
    dim = sector_dimension(cfg.n_ions, cfg.excitations)
    return ResolvedModel(
        config=cfg,
        geometry=geometry,
        transverse_frequency=wx,
        modes_absolute=modes,
        modes_shifted=shifted,
        site=site,
        params=params,
        dimension=dim,
    )


def run_model(model):
    """Build the sector Hamiltonian and evolve; returns (basis, series)."""
    cfg = model.config
    if model.dimension > cfg.dimension_cap:
        raise InfeasibleError(
            f"sector dimension {model.dimension} exceeds the cap "
            f"{cfg.dimension_cap} (N={cfg.n_ions}, M={cfg.excitations})"
        )
    from .fock_basis import SectorCapError

    try:
        basis = enumerate_sector(cfg.n_ions, cfg.excitations, cfg.dimension_cap)
    except SectorCapError as exc:
        raise InfeasibleError(str(exc)) from exc
    h = build_hamiltonian(model.params, basis)
    req = EvolutionRequest(
        total_time=microseconds(cfg.total_time_us),
        samples=cfg.samples,
        excited_ions=cfg.excited_ions,
        method=cfg.method,
        krylov_tol=cfg.krylov_tol,
        max_krylov_dim=cfg.max_krylov_dim,
    )
    series = evolve(h, req, basis)
    return basis, series


def write_params_txt(model, path):
    """Fully resolved parameters, enough to reproduce the run."""
    cfg = model.config
    lines = [
        f"n_ions = {cfg.n_ions}",
        f"excitations = {cfg.excitations}",
        f"excited_ions = {','.join(str(i) for i in cfg.excited_ions)}",
        f"dimension = {model.dimension}",
        f"geometry_source = {model.geometry.source}",
        f"transverse_MHz = {to_mhz(model.transverse_frequency):.17g}",
        f"method = {cfg.method}",
        f"krylov_tol = {cfg.krylov_tol:.17g}",
        f"total_time_us = {cfg.total_time_us:.17g}",
        f"samples = {cfg.samples}",
    ]
    z_um = [f"{to_microns(z):.17g}" for z in model.geometry.positions]
    lines.append("positions_um = " + ",".join(z_um))
    for i in range(cfg.n_ions):
        lines.append(
            f"ion{i + 1}: g_kHz = {to_khz(model.site.couplings[i]):.17g}, "
            f"delta_kHz = {to_khz(model.site.detunings[i]):.17g}, "
            f"omega_tilde_kHz = {to_khz(model.modes_shifted.corrected_local[i]):.17g}"
        )
    _atomic_write(path, "\n".join(lines) + "\n")


def run(config_path, output_dir=None, threads=1, seed=0):
    """Full pipeline for one config; returns the output directory."""
    cfg = parse_config(config_path)
    out = output_dir or cfg.output_dir
    if out is None:
        base = os.path.splitext(os.path.basename(config_path))[0]
        out = os.path.join("out", base)
    os.makedirs(out, exist_ok=True)

    if cfg.delta_scan_khz:
        return _run_scan(cfg, out, threads=threads, seed=seed)

    model = resolve_model(cfg, seed=seed)
    basis, series = run_model(model)
    _write_artifacts(model, series, out)
    return out


def _write_artifacts(model, series, out):
    series.to_csv(os.path.join(out, "timeseries.csv"))
    modes_to_csv(model.modes_shifted, os.path.join(out, "modes.csv"))
    hopping_to_csv(model.modes_shifted, os.path.join(out, "t_matrix.csv"))
    write_params_txt(model, os.path.join(out, "params.txt"))
    svgplot.write_timeseries_svg(series, os.path.join(out, "plot.svg"))


def _run_scan(cfg, out, threads=1, seed=0):
    """One sub-run per scan detuning plus a combined heat-map CSV."""
    scan_ion = cfg.scan_ion or (cfg.n_ions + 1) // 2
    deltas = list(cfg.delta_scan_khz)

    def one(delta_khz):
        model = resolve_model(cfg, seed=seed, delta_khz=delta_khz)
        _, series = run_model(model)
        sub = os.path.join(out, f"delta_{delta_khz:g}kHz")
        os.makedirs(sub, exist_ok=True)
        _write_artifacts(model, series, sub)
        return series

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, deltas))
    else:
        results = [one(d) for d in deltas]

    lines = [f"time_us,delta_kHz,sz_ion{scan_ion}"]
    for delta_khz, series in zip(deltas, results):
        for k in range(series.times.size):
            lines.append(
                f"{series.times[k] * 1e6:.17g},{delta_khz:.17g},"
                f"{series.sigma_z[k, scan_ion - 1]:.17g}"
            )
    _atomic_write(os.path.join(out, "scan.csv"), "\n".join(lines) + "\n")
    return out


def read_spectrum_csv(path):
    """Measured collective modes: CSV with columns index, frequency_MHz."""
    import csv

    values = []
    with open(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "frequency_MHz" not in reader.fieldnames:
            raise ConfigError(f"{path}: expected columns index,frequency_MHz")
        for row in reader:
            values.append(mhz(float(row["frequency_MHz"])))
    if len(values) < 2:
        raise ConfigError(f"{path}: need at least two modes")
    return values


def read_rabi_csv(path):
    """Rabi calibration table: CSV with columns position_um, rabi_kHz."""
    import csv

    positions, rabis = [], []
    with open(path) as fh:
        reader = csv.DictReader(fh)
        need = {"position_um", "rabi_kHz"}
        if reader.fieldnames is None or not need <= set(reader.fieldnames):
            raise ConfigError(f"{path}: expected columns position_um,rabi_kHz")
        for row in reader:
            positions.append(microns(float(row["position_um"])))
            rabis.append(khz(float(row["rabi_kHz"])))
    return positions, rabis
