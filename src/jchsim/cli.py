"""Command line front end.

Subcommands:
  simulate <config>                     run a config, write CSV/SVG artifacts
  dimension <N> <M>                     print the exact sector dimension
  calibrate --spectrum CSV | --rabi CSV fit trap/beam parameters

Exit codes: 0 success, 2 bad input (config, CSV, a path that cannot be
read or written, or a run that rounding alone would put outside
krylov_tol), 3 infeasible physics or not enough memory for the run, 4
numerical failure, 141 the reader of stdout went away (128 + SIGPIPE, as
a shell reports a writer the pipe killed).
"""

import argparse
import math
import os
import sys
from decimal import Decimal

from .calibration import (
    DegenerateDataError,
    FitError,
    fit_beam_profile,
    fit_chain_from_spectrum,
)
from .constants import to_khz, to_mhz, to_microns
from .experiment import (
    ConfigError,
    InfeasibleError,
    _number,
    read_rabi_csv,
    read_spectrum_csv,
    run,
)
from .fock_basis import sector_dimension
from .propagator import PropagationError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4
EXIT_BROKEN_PIPE = 141


def _integer(low):
    """argparse type for an integer >= low, checked as config values are."""
    convert = _number(int, low)

    def parse(text):
        try:
            return convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jchsim",
        description="Trapped-ion Jaynes-Cummings-Hubbard chain simulator",
    )
    # Read by nothing; kept because the benchmark still passes it.
    parser.add_argument("--threads", type=_integer(1), default=1,
                        help=argparse.SUPPRESS)
    # Read by nothing; kept because the benchmark's self-tests still pass it.
    parser.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a key=value config file")
    p_sim.add_argument("config")
    p_sim.add_argument("--output-dir", default=None)

    p_dim = sub.add_parser("dimension", help="exact sector dimension")
    p_dim.add_argument("n_ions", type=_integer(1))
    p_dim.add_argument("excitations", type=_integer(0))

    p_cal = sub.add_parser("calibrate", help="fit trap or beam parameters")
    group = p_cal.add_mutually_exclusive_group(required=True)
    group.add_argument("--spectrum", help="CSV: index,frequency_MHz")
    group.add_argument("--rabi", help="CSV: position_um,rabi_kHz")

    return parser


def _cmd_simulate(args):
    out = run(args.config, output_dir=args.output_dir)
    print(f"wrote artifacts to {out}")
    return EXIT_OK


def _cmd_dimension(args):
    dim = sector_dimension(args.n_ions, args.excitations)
    # Decimal prints every digit: str() refuses ints above 4300 digits.
    n, m = (Decimal(x) for x in (args.n_ions, args.excitations))
    print(f"D({n},{m}) = {Decimal(dim)}")
    print(f"log2(D) = {math.log2(dim):.4f}" if dim > 1 else "log2(D) = 0.0000")
    return EXIT_OK


def _cmd_calibrate(args):
    path = args.spectrum or args.rabi
    try:
        if args.spectrum:
            fit = fit_chain_from_spectrum(read_spectrum_csv(path))
        else:
            profile = fit_beam_profile(*read_rabi_csv(path))
    except DegenerateDataError as exc:
        raise DegenerateDataError(f"{path}: {exc}") from exc
    if args.spectrum:
        print(f"n_ions = {fit.geometry.n_ions}")
        print(f"transverse_MHz = {to_mhz(fit.trap.transverse_frequency):.6f}")
        print(f"axial_kHz = {to_khz(fit.trap.axial_quadratic):.6f}")
        print(f"quartic = {fit.trap.axial_quartic:.6g}")
        spacings = ",".join(
            f"{to_microns(d):.4f}" for d in fit.geometry.spacings
        )
        print(f"spacings_um = {spacings}")
        print(f"rms_residual_kHz = {to_khz(fit.rms_residual):.4f}")
    elif profile.is_flat:
        print("profile = flat")
        print(f"peak_rabi_kHz = {to_khz(profile.peak_rabi):.6f}")
    else:
        print("profile = gaussian")
        print(f"peak_rabi_kHz = {to_khz(profile.peak_rabi):.6f}")
        print(f"waist_um = {to_microns(profile.waist):.4f}")
        print(f"center_um = {to_microns(profile.beam_center):.4f}")
    return EXIT_OK


def main(argv=None):
    args = build_parser().parse_args(argv)
    commands = {"simulate": _cmd_simulate, "dimension": _cmd_dimension,
                "calibrate": _cmd_calibrate}
    try:
        code = commands[args.command](args)
        # A reader that went away is reported here, not by the flush at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    # OSError: the system refused a config, CSV or output path the user
    # named (a directory, a file, missing, unreadable)
    except (ConfigError, OSError, DegenerateDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except MemoryError as exc:
        # numpy's message names the allocation it could not make
        detail = f" ({exc})" if str(exc) else ""
        print(f"infeasible: not enough memory{detail}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (FitError, PropagationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
