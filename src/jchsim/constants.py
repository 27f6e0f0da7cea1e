"""Physical constants and unit helpers.

All frequencies inside the package are angular (rad/s); lengths are in
meters and times in seconds.  CLI-facing values use kHz / MHz / us / um
and are converted through the helpers below so the conversion factor is
defined in exactly one place.
"""

import math

# CODATA 2018
ELEMENTARY_CHARGE = 1.602176634e-19  # C
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m
ATOMIC_MASS_UNIT = 1.66053906660e-27  # kg

# e^2 / (4 pi eps0), the Coulomb force constant between two charges e
COULOMB_CONSTANT = ELEMENTARY_CHARGE**2 / (4.0 * math.pi * VACUUM_PERMITTIVITY)

# 171Yb+ mass; the missing-electron correction is far below the kHz-level
# tolerances used throughout.
YB171_MASS = 171.0 * ATOMIC_MASS_UNIT

TWO_PI = 2.0 * math.pi


def khz(value):
    """Ordinary frequency in kHz -> angular rad/s."""
    return TWO_PI * 1e3 * value


def mhz(value):
    """Ordinary frequency in MHz -> angular rad/s."""
    return TWO_PI * 1e6 * value


def to_khz(angular):
    """Angular rad/s -> ordinary frequency in kHz."""
    return angular / (TWO_PI * 1e3)


def to_mhz(angular):
    """Angular rad/s -> ordinary frequency in MHz."""
    return angular / (TWO_PI * 1e6)


def microns(value):
    return 1e-6 * value


def to_microns(meters):
    return 1e6 * meters


def microseconds(value):
    return 1e-6 * value


def to_microseconds(seconds):
    return 1e6 * seconds
