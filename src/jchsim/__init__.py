"""Trapped-ion Jaynes-Cummings-Hubbard chain simulator."""

from .calibration import (
    LaserProfile,
    derive_site_parameters,
    fit_beam_profile,
    fit_chain_from_spectrum,
)
from .fock_basis import SectorBasis, enumerate_sector, sector_dimension
from .hamiltonian import (
    JchParameters,
    SparseHamiltonian,
    build_hamiltonian,
)
from .ion_chain import (
    ChainGeometry,
    ModeData,
    TrapParameters,
    anchor_transverse_frequency,
    equilibrium_positions,
    interaction_picture_shift,
    mode_parameters,
)
from .propagator import (
    EvolutionRequest,
    TimeSeries,
    evolve,
    prepare_initial_state,
)

__version__ = "0.1.0"
