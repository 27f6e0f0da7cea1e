"""Config-driven experiment runs.

Configs are flat key=value text files (comments with '#', lists
comma-separated).  ExperimentConfig is the whole grammar: each field
carries its key and a converter that refuses non-finite and out-of-range
values.  parse_config and the calibration CSV readers raise ConfigError
naming the line of any bad key, value or cell.  A run resolves the chain
geometry, anchors the transverse trap frequency, derives per-ion
couplings and detunings, builds the sector Hamiltonian, evolves, and
writes timeseries.csv, modes.csv, t_matrix.csv, params.txt and plot.svg
into the output directory.  All files are written atomically (temp +
rename).
"""

import csv
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace

from . import calibration, svgplot
from .constants import khz, mhz, microns, microseconds, to_khz, to_mhz, to_microns
from .fock_basis import (
    DEFAULT_DIMENSION_CAP,
    SectorCapError,
    enumerate_sector,
    sector_dimension,
)
from .hamiltonian import JchParameters, build_hamiltonian
from .ion_chain import (
    ChainGeometry,
    ModeData,
    TrapParameters,
    ZigzagError,
    anchor_transverse_frequency,
    hopping_to_csv,
    interaction_picture_shift,
    mode_parameters,
    modes_to_csv,
    equilibrium_positions,
)
from .propagator import DENSE_ORACLE_CAP, EvolutionRequest, evolve
from .textio import write_text_atomic as _atomic_write


class ConfigError(ValueError):
    """Bad config file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class InfeasibleError(RuntimeError):
    """Physically or combinatorially infeasible run (exit code 3)."""


def _number(kind, low=-math.inf, high=math.inf, above=False):
    """Converter to a finite int or float in [low, high], or (low, high] if above."""
    wants = f"a finite {kind.__name__} in {'(' if above else '['}{low:g}, {high:g}]"

    def convert(text):
        try:
            value = kind(text)
        except (TypeError, ValueError):
            value = math.nan
        # not math.isfinite, which overflows on huge ints; nan fails any test
        if not (abs(value) < math.inf and value <= high
                and (value > low if above else value >= low)):
            raise ValueError(f"{text!r} is not {wants}")
        return value

    return convert


def _choice(*options):
    def convert(text):
        if text not in options:
            raise ValueError(f"{text!r} is not one of {', '.join(options)}")
        return text

    return convert


def _list_of(convert):
    return lambda text: [convert(tok) for tok in map(str.strip, text.split(",")) if tok]


_FINITE = _number(float)
_POSITIVE = _number(float, 0, above=True)


def _key(name, convert, default=MISSING):
    """A config key: its name in the file and the converter for its value."""
    return field(default=default, metadata={"key": name, "convert": convert})


@dataclass
class ExperimentConfig:
    """Fully parsed run description (units still CLI-facing).

    This class is the config grammar.  Each field names its key and the
    converter that checks the value; a field without a default is a
    required key.  Checks spanning several keys are in parse_config.
    """

    n_ions: int = _key("n_ions", _number(int, 1))
    g_khz: float = _key("g_kHz", _POSITIVE)
    delta_khz: float = _key("delta_kHz", _FINITE)
    total_time_us: float = _key("total_time_us", _POSITIVE)
    samples: int = _key("samples", _number(int, 2))
    # packed states hold at most 255 quanta per ion
    excitations: int = _key("excitations", _number(int, 0, 255), None)
    excited_ions: list = _key("excited_ions", _list_of(_number(int, 1)), None)
    geometry_source: str = _key(
        "geometry", _choice("spacings", "trap", "spectrum"), "spacings"
    )
    spacings_um: list = _key("spacings_um", _list_of(_POSITIVE), None)
    spectrum_file: str = _key("spectrum_file", str, None)
    transverse_mhz: float = _key("transverse_MHz", _POSITIVE, None)
    axial_khz: float = _key("axial_kHz", _POSITIVE, None)
    quartic: float = _key("quartic", _FINITE, 0.0)
    top_mode_mhz: float = _key("top_mode_MHz", _POSITIVE, None)
    waist_um: float = _key("waist_um", _FINITE, 162.0)  # <= 0: flat beam
    stark_khz: float = _key("stark_kHz", _FINITE, 0.0)
    beam_center_um: float = _key("beam_center_um", _FINITE, 0.0)
    method: str = _key("method", _choice("krylov", "dense-oracle"), "krylov")
    krylov_tol: float = _key("krylov_tol", _number(float, 0, 1e-3, above=True), 1e-9)
    # one Lanczos iteration can only accept on breakdown
    max_krylov_dim: int = _key("max_krylov_dim", _number(int, 2), 40)
    output_dir: str = _key("output_dir", str, None)
    dimension_cap: int = _key("dimension_cap", _number(int, 1), DEFAULT_DIMENSION_CAP)
    delta_scan_khz: list = _key("delta_scan_kHz", _list_of(_FINITE), None)
    scan_ion: int = _key("scan_ion", _number(int, 1), None)


_FIELDS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}
# top_mode_MHz anchors the transverse trap frequency of a spacings chain
_GEOMETRY_KEYS = {
    "spacings": ("spacings_um", "top_mode_MHz"),
    "trap": ("transverse_MHz", "axial_kHz"),
    "spectrum": ("spectrum_file",),
}


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


def parse_config(path):
    """Read a config file into an ExperimentConfig.

    Any unknown key, missing required key, bad value or inconsistent
    combination of keys raises ConfigError naming the key's line.
    """
    pairs, lines = parse_key_values(path)
    values = {}
    for key, text in pairs.items():
        if key not in _FIELDS:
            raise ConfigError(f"unknown key {key!r}", lines[key])
        try:
            values[_FIELDS[key].name] = _FIELDS[key].metadata["convert"](text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", lines[key]) from exc
    for key, f in _FIELDS.items():
        if f.default is MISSING and key not in pairs:
            raise ConfigError(f"missing required key {key!r}")
    cfg = ExperimentConfig(**values)

    if cfg.excitations is None and cfg.excited_ions is None:
        raise ConfigError("need either 'excitations' or 'excited_ions'")
    if cfg.excited_ions is None:
        cfg.excited_ions = list(range(1, cfg.excitations + 1))
    if cfg.excitations is None:
        cfg.excitations = len(cfg.excited_ions)
    ions_line = lines.get("excited_ions", lines.get("excitations"))
    if cfg.excitations != len(cfg.excited_ions):
        raise ConfigError("excitations does not match the excited_ions list", ions_line)
    ions = cfg.excited_ions
    if len(set(ions)) < len(ions) or max(ions, default=0) > cfg.n_ions:
        raise ConfigError(
            f"excited_ions {ions} must be distinct ions in 1..{cfg.n_ions}", ions_line
        )
    if cfg.scan_ion is not None and cfg.scan_ion > cfg.n_ions:
        raise ConfigError(f"scan_ion must lie in 1..{cfg.n_ions}", lines["scan_ion"])
    for key in _GEOMETRY_KEYS[cfg.geometry_source]:
        if key not in pairs:
            raise ConfigError(
                f"geometry={cfg.geometry_source} requires {key}", lines.get("geometry")
            )
    if cfg.geometry_source == "spacings" and len(cfg.spacings_um) + 1 != cfg.n_ions:
        raise ConfigError(
            f"spacings_um implies {len(cfg.spacings_um) + 1} ions, n_ions={cfg.n_ions}",
            lines["spacings_um"],
        )
    if cfg.method == "dense-oracle" and (
        sector_dimension(cfg.n_ions, cfg.excitations) > DENSE_ORACLE_CAP
    ):
        limit = f"dense-oracle needs sector dimension <= {DENSE_ORACLE_CAP}"
        raise ConfigError(limit, lines["method"])
    return cfg


@dataclass
class ResolvedModel:
    """Everything needed to build and evolve, in SI angular units."""

    config: ExperimentConfig
    geometry: ChainGeometry
    transverse_frequency: float
    modes_absolute: ModeData
    modes_shifted: ModeData
    site: calibration.SiteParameters
    params: JchParameters
    dimension: int


def resolve_model(cfg, seed=0):
    """Resolve geometry, modes and per-ion parameters for one run."""
    if cfg.geometry_source == "spacings":
        geometry = ChainGeometry.from_spacings(
            [microns(d) for d in cfg.spacings_um]
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
    else:  # spectrum
        measured = read_spectrum_csv(cfg.spectrum_file)
        guess = calibration.initial_trap_guess(measured)
        fit = calibration.fit_chain_from_spectrum(measured, guess, seed=seed)
        geometry = fit.geometry
        trap = fit.trap
        if geometry.n_ions != cfg.n_ions:
            raise ConfigError(
                f"spectrum implies {geometry.n_ions} ions, n_ions={cfg.n_ions}"
            )

    wx = trap.transverse_frequency
    try:
        modes = mode_parameters(trap, geometry)
    except ZigzagError as exc:
        raise InfeasibleError(str(exc)) from exc
    shifted = interaction_picture_shift(modes, wx)

    chain = ResolvedModel(
        config=cfg,
        geometry=geometry,
        transverse_frequency=wx,
        modes_absolute=modes,
        modes_shifted=shifted,
        site=None,
        params=None,
        dimension=sector_dimension(cfg.n_ions, cfg.excitations),
    )
    return with_detuning(chain, cfg.delta_khz)


def with_detuning(model, delta_khz):
    """The model with per-ion parameters re-derived at a central detuning.

    Geometry and modes do not depend on the detuning, so a scan resolves
    them once and calls this per detuning.
    """
    cfg = model.config
    profile = calibration.LaserProfile(
        peak_rabi=1.0,
        waist=math.inf if cfg.waist_um <= 0 else microns(cfg.waist_um),
        stark_amplitude=khz(cfg.stark_khz),
        beam_center=microns(cfg.beam_center_um),
    )
    site = calibration.derive_site_parameters(
        profile, model.geometry, g_central=khz(cfg.g_khz),
        delta_central=khz(delta_khz),
    )
    params = JchParameters(
        detunings=site.detunings,
        local_frequencies=model.modes_shifted.corrected_local,
        couplings=site.couplings,
        hoppings=model.modes_shifted.corrected_hopping,
    )
    return replace(model, site=site, params=params)


def run_model(model):
    """Build the sector Hamiltonian and evolve; returns (basis, series)."""
    cfg = model.config
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
    chain = resolve_model(cfg, seed=seed)

    def one(delta_khz):
        model = with_detuning(chain, delta_khz)
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


def _read_columns(path, *names):
    """The named columns of a CSV file with a header row, as finite floats.

    A missing column or a bad cell raises ConfigError; a bad cell's
    error names its line in the file.
    """
    columns = [[] for _ in names]
    with open(path) as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(names) <= set(reader.fieldnames):
            raise ConfigError(f"{path}: expected columns {','.join(names)}")
        for row in reader:
            for name, column in zip(names, columns):
                try:
                    column.append(_FINITE(row[name]))
                except ValueError as exc:
                    raise ConfigError(
                        f"{path}: bad {name} cell: {exc}", reader.line_num
                    ) from exc
    return columns


def read_spectrum_csv(path):
    """Measured collective modes: CSV with columns index, frequency_MHz."""
    (frequencies,) = _read_columns(path, "frequency_MHz")
    if len(frequencies) < 2:
        raise ConfigError(f"{path}: need at least two modes")
    return [mhz(f) for f in frequencies]


def read_rabi_csv(path):
    """Rabi calibration table: CSV with columns position_um, rabi_kHz."""
    positions, rabis = _read_columns(path, "position_um", "rabi_kHz")
    return [microns(z) for z in positions], [khz(r) for r in rabis]
