"""Config-driven experiment runs.

Configs are flat key=value text files (comments with '#', lists
comma-separated).  ExperimentConfig is the whole grammar: each field
carries its key and a converter that refuses out-of-range values and
values that are not finite, or that turn infinite or zero in SI units;
the config keeps the file's units.  parse_config and the calibration CSV
readers read UTF-8 and raise ConfigError naming the line of any bad key,
value or cell, or the file if it is not UTF-8.  A run resolves the chain
geometry, anchors the transverse trap frequency and derives the beam's
per-ion couplings and Stark offsets, all once per config; with_detuning
adds each central detuning.  It then builds the sector Hamiltonian,
evolves it with the Krylov propagator, and writes timeseries.csv,
modes.csv, t_matrix.csv, params.txt and plot.svg into the output
directory.  A config sets the model and krylov_tol, never which
algorithm runs or how it is tuned.  A run whose chain and initial state
are mirror-symmetric (to within a share of krylov_tol, see
_evolves_even) builds and evolves only the mirror-even sector, about
half the states; its artifacts are those of the full sector.  A scan
evolves each detuning on its own and writes one sub-run directory per
detuning; a single run is a scan of one detuning written into the output
directory itself.  An output path that cannot become a directory is
refused before any work, and the output directory is made only once the
run has results, so a run that fails before then leaves none.  This
module is the only one that knows the artifact formats (svgplot draws
the plot) or writes files, and it writes each file atomically (temp +
rename).
"""

import csv
import math
import os
import re
import sys
from dataclasses import MISSING, dataclass, field, fields
from decimal import Decimal

import numpy as np

from . import calibration, svgplot
from .constants import (
    khz,
    mhz,
    microns,
    microseconds,
    to_khz,
    to_mhz,
    to_microns,
    to_microseconds,
)
from .fock_basis import (
    DEFAULT_DIMENSION_CAP,
    SectorCapError,
    enumerate_sector,
    sector_dimension,
)
from .hamiltonian import JchParameters, build_hamiltonian, mirror_asymmetry, norm_bound
from .ion_chain import (
    ChainGeometry,
    ModeData,
    TrapParameters,
    anchor_transverse_frequency,
    interaction_picture_shift,
    mode_parameters,
    equilibrium_positions,
)
from .propagator import EvolutionRequest, evolve

# Share of krylov_tol that replacing H by its mirror-symmetrized part may
# cost a run evolved in the mirror-even sector (see _evolves_even).
MIRROR_SHARE = 0.01


class ConfigError(ValueError):
    """Bad config file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class InfeasibleError(RuntimeError):
    """Physically or combinatorially infeasible run (exit code 3)."""


# The strings int() accepts: no point, exponent, nan or inf.
_INT_TEXT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _int(text):
    """int(text) for any number of digits.

    int() refuses more than 4,300 digits (Python 3.10.7 on) under a
    process-wide limit; Decimal reads the same digits and converts them
    exactly.
    """
    if not _INT_TEXT.fullmatch(text):
        raise ValueError(text)
    return int(Decimal(text))


def _number(kind, low=-math.inf, high=math.inf, above=False, unit=None,
            wants=None):
    """Converter to a finite int or float in [low, high], or (low, high] if above.

    The value stays in the file's units.  With a unit (the constants
    helper that converts it to SI, such as khz), the SI value must be
    finite too, and nonzero if the value is.  wants names the accepted
    values in the error; by default it states the kind and the range.
    """
    if wants is None:
        wants = f"a finite {kind.__name__} in {'(' if above else '['}{low:g}, {high:g}]"
    parse = _int if kind is int else kind

    def convert(text):
        try:
            value = parse(text)
        except (TypeError, ValueError):
            value = math.nan
        # not math.isfinite, which overflows on huge ints; nan fails any test
        if not (abs(value) < math.inf and value <= high
                and (value > low if above else value >= low)):
            raise ValueError(f"{text!r} is not {wants}")
        if unit is not None:
            si = unit(value)
            if not math.isfinite(si) or (si == 0.0) != (value == 0.0):
                raise ValueError(f"{text!r} is {si:g} in SI units")
        return value

    return convert


def _choice(*options):
    def convert(text):
        if text not in options:
            raise ValueError(f"{text!r} is not one of {', '.join(options)}")
        return text

    return convert


def _list_of(convert):
    """Converter of a comma-separated list; an empty entry is refused."""

    def convert_list(text):
        tokens = [tok.strip() for tok in text.split(",")]
        if "" in tokens:
            raise ValueError(f"{text!r} has an empty list entry")
        return [convert(tok) for tok in tokens]

    return convert_list


def _finite(unit=None):
    return _number(float, unit=unit)


def _positive(unit):
    return _number(float, 0, above=True, unit=unit)


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
    g_khz: float = _key("g_kHz", _positive(khz))
    delta_khz: float = _key("delta_kHz", _finite(khz))
    total_time_us: float = _key("total_time_us", _positive(microseconds))
    samples: int = _key("samples", _number(int, 2))
    excitations: int = _key("excitations", _number(int, 0), None)
    excited_ions: list = _key("excited_ions", _list_of(_number(int, 1)), None)
    geometry_source: str = _key(
        "geometry", _choice("spacings", "trap", "spectrum"), "spacings"
    )
    spacings_um: list = _key("spacings_um", _list_of(_positive(microns)), None)
    spectrum_file: str = _key("spectrum_file", str, None)
    transverse_mhz: float = _key("transverse_MHz", _positive(mhz), None)
    axial_khz: float = _key("axial_kHz", _positive(khz), None)
    quartic: float = _key("quartic", _finite(), 0.0)
    top_mode_mhz: float = _key("top_mode_MHz", _positive(mhz), None)
    waist_um: float = _key("waist_um", _finite(microns), 162.0)  # <= 0: flat beam
    stark_khz: float = _key("stark_kHz", _finite(khz), 0.0)
    beam_center_um: float = _key("beam_center_um", _finite(microns), 0.0)
    krylov_tol: float = _key("krylov_tol", _number(float, 0, 1e-3, above=True), 1e-9)
    dimension_cap: int = _key("dimension_cap", _number(int, 1), DEFAULT_DIMENSION_CAP)
    delta_scan_khz: list = _key("delta_scan_kHz", _list_of(_finite(khz)), None)
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
    for lineno, raw in enumerate(_read_lines(path), start=1):
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


def _read_lines(path):
    """The lines of a UTF-8 text file; other bytes raise ConfigError naming it."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from exc


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
    # runs start with zero phonons, so each excitation is a spin-up ion;
    # checked before the default excited_ions list is built
    if (cfg.excitations or 0) > cfg.n_ions:
        raise ConfigError(
            f"excitations exceeds n_ions = {cfg.n_ions}; runs start with no phonons",
            lines["excitations"],
        )
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
    scan = cfg.delta_scan_khz
    # a set holds 0 and -0 once, though %g names their sub-runs apart
    if scan is not None and len(set(scan)) < len(scan):
        raise ConfigError("delta_scan_kHz must list distinct detunings",
                          lines["delta_scan_kHz"])
    subdirs = {}
    for delta in scan or ():
        name = _scan_subdir(delta)
        if name in subdirs:
            raise ConfigError(
                f"delta_scan_kHz values {subdirs[name]!r} and {delta!r} would "
                f"share the sub-run directory {name}",
                lines["delta_scan_kHz"],
            )
        subdirs[name] = delta
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
    return cfg


@dataclass
class ResolvedModel:
    """Everything needed to build and evolve, in SI angular units.

    couplings and stark_offsets are per ion and do not depend on the
    central detuning; with_detuning makes the parameters of one detuning.
    """

    config: ExperimentConfig
    geometry: ChainGeometry
    transverse_frequency: float
    modes_shifted: ModeData
    couplings: np.ndarray
    stark_offsets: np.ndarray


def resolve_model(cfg):
    """Resolve geometry, modes and per-ion beam parameters for one config."""
    if cfg.geometry_source == "spacings":
        geometry = ChainGeometry.from_spacings(
            [microns(d) for d in cfg.spacings_um]
        )
        try:
            wx = anchor_transverse_frequency(geometry, mhz(cfg.top_mode_mhz))
        except ValueError as exc:  # ZigzagError, or no convergence
            raise InfeasibleError(
                f"cannot anchor top_mode_MHz = {cfg.top_mode_mhz:g}: {exc}"
            ) from exc
    elif cfg.geometry_source == "trap":
        trap = TrapParameters(
            transverse_frequency=mhz(cfg.transverse_mhz),
            axial_quadratic=khz(cfg.axial_khz),
            axial_quartic=cfg.quartic,
        )
        wx = trap.transverse_frequency
        try:
            geometry = equilibrium_positions(trap, cfg.n_ions)
        except Exception as exc:
            raise InfeasibleError(f"equilibrium solve failed: {exc}") from exc
    else:  # spectrum
        measured = read_spectrum_csv(cfg.spectrum_file)
        try:
            fit = calibration.fit_chain_from_spectrum(measured)
        except calibration.DegenerateDataError as exc:
            raise calibration.DegenerateDataError(f"{cfg.spectrum_file}: {exc}") from exc
        geometry = fit.geometry
        wx = fit.trap.transverse_frequency
        if geometry.n_ions != cfg.n_ions:
            raise ConfigError(
                f"spectrum implies {geometry.n_ions} ions, n_ions={cfg.n_ions}"
            )

    try:
        modes = mode_parameters(wx, geometry)
    except ValueError as exc:  # ZigzagError, or a frequency whose square overflows
        raise InfeasibleError(str(exc)) from exc

    profile = calibration.LaserProfile(
        peak_rabi=1.0,
        waist=math.inf if cfg.waist_um <= 0 else microns(cfg.waist_um),
        stark_amplitude=khz(cfg.stark_khz),
        beam_center=microns(cfg.beam_center_um),
    )
    try:
        couplings, stark_offsets = calibration.derive_site_parameters(
            profile, geometry, g_central=khz(cfg.g_khz)
        )
    except ValueError as exc:
        # the smallest usable waist depends on the ion positions
        raise ConfigError(
            f"waist_um = {cfg.waist_um:g} with beam_center_um = "
            f"{cfg.beam_center_um:g} leaves an ion without drive ({exc})"
        ) from exc
    return ResolvedModel(
        config=cfg,
        geometry=geometry,
        transverse_frequency=wx,
        modes_shifted=interaction_picture_shift(modes, wx),
        couplings=couplings,
        stark_offsets=stark_offsets,
    )


def with_detuning(model, delta_khz):
    """The model's JchParameters at one central detuning."""
    return JchParameters(
        detunings=khz(delta_khz) + model.stark_offsets,
        local_frequencies=model.modes_shifted.corrected_local,
        couplings=model.couplings,
        hoppings=model.modes_shifted.corrected_hopping,
    )


def run(config_path, output_dir=None):
    """Full pipeline for one config; returns the output directory.

    output_dir defaults to out/<config file name without extension>.  A
    config without delta_scan_kHz runs as a scan of its one detuning
    whose sub-run is the output directory itself.  A scan writes one
    sub-run per detuning, then the heat-map scan.csv.  Each detuning is
    built, evolved and written on its own, in scan order, so a sub-run
    is byte-identical to a single run of its detuning on the same
    sector.  The evolution runs in the mirror-even sector when
    _evolves_even allows it, and on the full sector otherwise.  A run that rounding
    alone could put outside krylov_tol is refused before enumeration.
    """
    cfg = parse_config(config_path)
    base = os.path.splitext(os.path.basename(config_path))[0]
    out = output_dir or os.path.join("out", base)
    _check_output_dir(out)
    model = resolve_model(cfg)
    req = EvolutionRequest(
        total_time=microseconds(cfg.total_time_us),
        samples=cfg.samples,
        excited_ions=cfg.excited_ions,
        krylov_tol=cfg.krylov_tol,
    )
    scan = cfg.delta_scan_khz
    deltas = scan or [cfg.delta_khz]
    params = [with_detuning(model, d) for d in deltas]
    # Rounding H's entries moves H by up to eps ||H||, so by Duhamel's
    # formula (see _evolves_even) it can move the state by eps T ||H||.
    bound = max(norm_bound(p, cfg.excitations) for p in params)
    rounding = sys.float_info.epsilon * req.total_time * bound
    if rounding > cfg.krylov_tol:
        raise ConfigError(
            f"total_time_us = {cfg.total_time_us:g} with ||H|| up to {bound:.3g} "
            f"rad/s lets rounding alone err by up to {rounding:.3g}, above "
            f"krylov_tol = {cfg.krylov_tol:g}"
        )
    try:
        basis = enumerate_sector(cfg.n_ions, cfg.excitations, cfg.dimension_cap,
                                 mirror_even=_evolves_even(req, params))
    except SectorCapError as exc:
        raise InfeasibleError(str(exc)) from exc
    runs = []  # (delta_kHz, TimeSeries) per sub-run, in scan order
    for delta_khz, p in zip(deltas, params):
        series = evolve(build_hamiltonian(p, basis), req, basis)
        sub = os.path.join(out, _scan_subdir(delta_khz)) if scan else out
        _write_artifacts(model, p, series, sub)
        runs.append((delta_khz, series))
    if scan:
        _atomic_write(os.path.join(out, "scan.csv"), _scan_csv(cfg, runs))
    return out


def _check_output_dir(out):
    """Refuse, before any work, an output path that cannot become a directory."""
    path = existing = os.path.abspath(out)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if os.path.isdir(existing):
        return
    if existing == path:
        raise ConfigError(f"output directory {out} exists and is not a directory")
    raise ConfigError(f"output directory {out} lies below {existing}, a file")


def _evolves_even(req, params):
    """Whether a run may evolve in the mirror-even sector.

    It needs an excited set that is its own mirror image and parameters
    mirror-symmetric enough.  The even sector evolves H_s = (H + PHP) / 2
    in place of H, and by Duhamel's formula
    ||exp(-iHt) v - exp(-iH_s t) v|| <= t ||H - H_s|| = t ||H - PHP|| / 2,
    which must stay within MIRROR_SHARE of krylov_tol over the run.
    """
    n = params[0].n_ions
    m = len(req.excited_ions)
    ions = set(req.excited_ions)
    return (
        ions == {n + 1 - i for i in ions}
        and all(
            req.total_time * mirror_asymmetry(p, m) / 2
            <= MIRROR_SHARE * req.krylov_tol
            for p in params
        )
    )


def _atomic_write(path, text):
    """Write via a temp file and rename, so readers never see a partial file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_artifacts(model, params, series, out):
    """Format one run's artifacts and write each into out atomically."""
    os.makedirs(out, exist_ok=True)
    files = {
        "timeseries.csv": _timeseries_csv(series),
        "modes.csv": _modes_csv(model.modes_shifted),
        "t_matrix.csv": _t_matrix_csv(model.modes_shifted),
        "params.txt": _params_txt(model, params),
        "plot.svg": svgplot.timeseries_svg(series),
    }
    for name, text in files.items():
        _atomic_write(os.path.join(out, name), text)


def _timeseries_csv(series):
    """CSV: time_us, sz_ion1..N, norm_drift, excitation_drift."""
    n = series.sigma_z.shape[1]
    header = (
        "time_us,"
        + ",".join(f"sz_ion{i + 1}" for i in range(n))
        + ",norm_drift,excitation_drift"
    )
    lines = [header]
    for k in range(series.times.size):
        cells = [f"{to_microseconds(series.times[k]):.17g}"]
        cells += [f"{v:.17g}" for v in series.sigma_z[k]]
        cells.append(f"{series.norm_drift[k]:.17g}")
        cells.append(f"{series.excitation_drift[k]:.17g}")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _modes_csv(modes):
    """Per-ion bare and corrected local frequencies as CSV (kHz columns)."""
    lines = ["ion_index,omega_i_kHz,omega_tilde_i_kHz"]
    for i in range(modes.n_ions):
        lines.append(
            f"{i + 1},{to_khz(modes.local_frequencies[i]):.17g},"
            f"{to_khz(modes.corrected_local[i]):.17g}"
        )
    return "\n".join(lines) + "\n"


def _t_matrix_csv(modes):
    """The corrected hopping matrix as a dense CSV in kHz."""
    lines = []
    for row in modes.corrected_hopping:
        lines.append(",".join(f"{to_khz(v):.17g}" for v in row))
    return "\n".join(lines) + "\n"


def _params_txt(model, params):
    """Fully resolved parameters, enough to reproduce the run."""
    cfg = model.config
    lines = [
        f"n_ions = {cfg.n_ions}",
        f"excitations = {cfg.excitations}",
        f"excited_ions = {','.join(str(i) for i in cfg.excited_ions)}",
        f"dimension = {sector_dimension(cfg.n_ions, cfg.excitations)}",
        f"geometry_source = {model.geometry.source}",
        f"transverse_MHz = {to_mhz(model.transverse_frequency):.17g}",
        "method = krylov",
        f"krylov_tol = {cfg.krylov_tol:.17g}",
        f"total_time_us = {cfg.total_time_us:.17g}",
        f"samples = {cfg.samples}",
    ]
    z_um = [f"{to_microns(z):.17g}" for z in model.geometry.positions]
    lines.append("positions_um = " + ",".join(z_um))
    for i in range(cfg.n_ions):
        lines.append(
            f"ion{i + 1}: g_kHz = {to_khz(params.couplings[i]):.17g}, "
            f"delta_kHz = {to_khz(params.detunings[i]):.17g}, "
            f"omega_tilde_kHz = {to_khz(params.local_frequencies[i]):.17g}"
        )
    return "\n".join(lines) + "\n"


def _scan_csv(cfg, runs):
    """Heat map: sigma_z of the scan ion per (time, detuning) sub-run."""
    scan_ion = cfg.scan_ion or (cfg.n_ions + 1) // 2
    lines = [f"time_us,delta_kHz,sz_ion{scan_ion}"]
    for delta_khz, series in runs:
        for k in range(series.times.size):
            lines.append(
                f"{to_microseconds(series.times[k]):.17g},{delta_khz:.17g},"
                f"{series.sigma_z[k, scan_ion - 1]:.17g}"
            )
    return "\n".join(lines) + "\n"


def _scan_subdir(delta_khz):
    """Directory name of one scan sub-run."""
    return f"delta_{delta_khz:g}kHz"


def _read_columns(path, **columns):
    """The named columns of a CSV file with a header row, in SI units.

    columns maps each column name to (convert, unit): convert checks a
    cell as a config value is (a _number converter with that unit), and
    unit is the constants helper that takes the value to SI.  A missing
    column or a bad cell raises ConfigError; a bad cell's error names its
    line in the file.
    """
    values = {name: [] for name in columns}
    reader = csv.DictReader(_read_lines(path))
    if reader.fieldnames is None or not set(columns) <= set(reader.fieldnames):
        raise ConfigError(f"{path}: expected columns {','.join(columns)}")
    for row in reader:
        for name, (convert, unit) in columns.items():
            try:
                values[name].append(unit(convert(row[name])))
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: bad {name} cell: {exc}", reader.line_num
                ) from exc
    return list(values.values())


def read_spectrum_csv(path):
    """Measured collective modes: CSV with columns index, frequency_MHz.

    A mode frequency must be positive.
    """
    frequency = _number(float, 0, above=True, unit=mhz,
                        wants="a finite positive mode frequency")
    (frequencies,) = _read_columns(path, frequency_MHz=(frequency, mhz))
    if len(frequencies) < 2:
        raise ConfigError(f"{path}: need at least two modes")
    return frequencies


def read_rabi_csv(path):
    """Rabi calibration table: CSV with columns position_um, rabi_kHz.

    A Rabi frequency is a magnitude, so it must not be negative.
    """
    rabi = _number(float, 0, unit=khz, wants="a finite Rabi frequency >= 0")
    return tuple(_read_columns(
        path, position_um=(_finite(microns), microns), rabi_kHz=(rabi, khz)
    ))
