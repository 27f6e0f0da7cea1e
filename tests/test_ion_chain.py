import glob
import io
import math
import os

import numpy as np
import pytest

from conftest import CONFIG_DIR, REPO_ROOT
from jchsim import ion_chain
from jchsim.constants import COULOMB_CONSTANT, YB171_MASS, khz, mhz, to_khz, to_mhz
from jchsim.experiment import parse_config
from jchsim.ion_chain import (
    ChainGeometry,
    TrapParameters,
    ZigzagError,
    anchor_transverse_frequency,
    collective_spectrum_from,
    equilibrium_positions,
    interaction_picture_shift,
    mode_parameters,
)

TRAP = TrapParameters(transverse_frequency=mhz(2.7), axial_quadratic=khz(100))
# Every shipped config and the benchmark's sector8x8 input that anchors
# its chain on a measured top mode.
SPACINGS_CONFIGS = [
    path
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.cfg")))
    + [os.path.join(REPO_ROOT, "bench", "inputs", "sector8x8.cfg")]
    if parse_config(path).geometry_source == "spacings"
]


def force_residual(trap, geometry):
    """Relative force-balance residual, summed ion by ion in SI units.

    The net axial force on each ion comes from the trap potential
    (1/2) m wz^2 z^2 + m wz^2 q z^4 / l^2 and the pairwise Coulomb
    repulsion.  The largest, in units of k_C / l^2 = m wz^2 l, is divided
    by max(1, max |z| / l).
    """
    m_wz2 = YB171_MASS * trap.axial_quadratic**2
    ell = trap.length_scale()
    z = list(geometry.positions)
    forces = []
    for i, zi in enumerate(z):
        force = -m_wz2 * zi - 4.0 * m_wz2 * trap.axial_quartic * zi**3 / ell**2
        for j, zj in enumerate(z):
            if j != i:
                force += math.copysign(COULOMB_CONSTANT, zi - zj) / (zi - zj) ** 2
        forces.append(abs(force) / (m_wz2 * ell))
    return max(forces) / max(1.0, max(abs(zi) for zi in z) / ell)


class TestEquilibriumPositions:
    def test_single_ion_at_center(self):
        geo = equilibrium_positions(TRAP, 1)
        assert geo.positions == pytest.approx([0.0])

    def test_two_ions_closed_form(self):
        geo = equilibrium_positions(TRAP, 2)
        ell = TRAP.length_scale()
        expected = 0.5 ** (2.0 / 3.0) * ell
        assert geo.positions == pytest.approx([-expected, expected], rel=1e-10)

    def test_three_ions_bisection_oracle(self):
        # Outer ion obeys u - 1/(2u)^2 - 1/u^2 = 0; solve by bisection.
        lo, hi = 0.5, 3.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid - 1.0 / (2 * mid) ** 2 - 1.0 / mid**2 > 0:
                hi = mid
            else:
                lo = mid
        u_outer = 0.5 * (lo + hi)
        assert u_outer == pytest.approx((5.0 / 4.0) ** (1.0 / 3.0), rel=1e-9)
        geo = equilibrium_positions(TRAP, 3)
        ell = TRAP.length_scale()
        assert geo.positions / ell == pytest.approx(
            [-u_outer, 0.0, u_outer], abs=1e-9
        )

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 20])
    def test_force_balance_residual(self, n):
        geo = equilibrium_positions(TRAP, n)
        assert force_residual(TRAP, geo) < 1e-6

    @pytest.mark.parametrize("quartic", [0.0, 0.05, 0.3])
    def test_quartic_trap_converges(self, quartic):
        trap = TrapParameters(
            transverse_frequency=mhz(2.7),
            axial_quadratic=khz(100),
            axial_quartic=quartic,
        )
        geo = equilibrium_positions(trap, 12)
        assert force_residual(trap, geo) < 1e-6
        assert np.all(np.diff(geo.positions) > 0)

    def test_quartic_compresses_spacing_spread(self):
        harmonic = TrapParameters(mhz(2.7), khz(100), 0.0)
        quartic = TrapParameters(mhz(2.7), khz(100), 0.5)
        sp_h = equilibrium_positions(harmonic, 12).spacings
        sp_q = equilibrium_positions(quartic, 12).spacings
        assert sp_q.max() / sp_q.min() < sp_h.max() / sp_h.min()

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            equilibrium_positions(TRAP, 0)
        with pytest.raises(ValueError):
            equilibrium_positions(
                TrapParameters(mhz(2.7), axial_quadratic=-khz(1)), 2
            )


class TestModeParameters:
    def test_two_ion_paper_values(self, chain_tables):
        table = chain_tables[2]
        geo = ChainGeometry.from_spacings(
            [d * 1e-6 for d in table["spacings_um"]]
        )
        wx = anchor_transverse_frequency(geo, mhz(table["modes_MHz"][-1]))
        modes = mode_parameters(wx, geo)
        got_mhz = to_mhz(modes.collective_frequencies)
        assert got_mhz == pytest.approx(table["modes_MHz"], abs=1e-3)
        shifted = interaction_picture_shift(modes, wx)
        assert to_khz(shifted.corrected_local) == pytest.approx(
            table["local_kHz"], abs=0.5
        )

    def test_two_ions_no_hopping_correction(self):
        geo = ChainGeometry.from_spacings([5.28e-6])
        modes = mode_parameters(mhz(2.75), geo)
        assert modes.corrected_hopping[0, 1] == modes.hopping[0, 1]

    def test_four_ion_paper_values(self, chain_tables):
        table = chain_tables[4]
        geo = ChainGeometry.from_spacings(
            [d * 1e-6 for d in table["spacings_um"]]
        )
        wx = anchor_transverse_frequency(geo, mhz(table["modes_MHz"][-1]))
        modes = mode_parameters(wx, geo)
        shifted = interaction_picture_shift(modes, wx)
        assert to_khz(shifted.corrected_local) == pytest.approx(
            table["local_kHz"], abs=0.5
        )
        band = shifted.collective_frequencies
        assert to_khz(band[0]) == pytest.approx(-52.0, abs=1.5)
        assert to_khz(band[-1]) == pytest.approx(0.0, abs=0.5)

    def test_hopping_symmetric_positive_cubic_decay(self):
        # Uniform synthetic spacing: t(i, i+2) / t(i, i+1) = 1/8 up to the
        # local-frequency factor, which is removed below.
        d = 6e-6
        geo = ChainGeometry.from_spacings([d, d, d])
        modes = mode_parameters(mhz(3.0), geo)
        t = modes.hopping
        assert np.allclose(t, t.T)
        off = ~np.eye(4, dtype=bool)
        assert np.all(t[off] > 0)
        w = modes.local_frequencies
        ratio = (t[0, 2] * np.sqrt(w[0] * w[2])) / (t[0, 1] * np.sqrt(w[0] * w[1]))
        assert ratio == pytest.approx(1.0 / 8.0, abs=1e-12)

    def test_collective_eigvals_permutation_invariant(self):
        geo = equilibrium_positions(TRAP, 5)
        modes = mode_parameters(TRAP.transverse_frequency, geo)
        m = np.diag(modes.corrected_local) + modes.corrected_hopping
        rng = np.random.default_rng(3)
        perm = rng.permutation(5)
        mp = m[np.ix_(perm, perm)]
        assert np.linalg.eigvalsh(mp) == pytest.approx(
            modes.collective_frequencies, rel=1e-12
        )

    def test_mirror_symmetry(self):
        geo = equilibrium_positions(TRAP, 6)
        modes = mode_parameters(TRAP.transverse_frequency, geo)
        w = modes.corrected_local
        assert w == pytest.approx(w[::-1], rel=1e-12)

    def test_band_top_bound(self):
        geo = equilibrium_positions(TRAP, 6)
        modes = mode_parameters(TRAP.transverse_frequency, geo)
        bound = TRAP.transverse_frequency + modes.corrected_hopping.sum(axis=1).max()
        assert modes.collective_frequencies[-1] <= bound

    @pytest.mark.parametrize("wx", [0.0, -mhz(2.7)])
    def test_nonpositive_transverse_frequency_rejected(self, wx):
        with pytest.raises(ValueError, match="transverse_frequency"):
            mode_parameters(wx, ChainGeometry.from_spacings([5.28e-6]))

    def test_zigzag_error_names_ion(self):
        geo = ChainGeometry.from_spacings([0.5e-6])
        with pytest.raises(ZigzagError) as excinfo:
            mode_parameters(khz(300), geo)
        assert excinfo.value.ion_index in (1, 2)

    def test_uncorrected_spectrum_flag(self):
        geo = equilibrium_positions(TRAP, 4)
        modes = mode_parameters(TRAP.transverse_frequency, geo)
        raw = collective_spectrum_from(modes.local_frequencies, modes.hopping)
        cooked = collective_spectrum_from(
            modes.corrected_local, modes.corrected_hopping
        )
        # the correction is tiny relative to the absolute mode frequency,
        # so compare with a tolerance well below its ~Hz scale
        assert np.max(np.abs(raw - cooked)) > 1.0
        assert np.allclose(cooked, modes.collective_frequencies)


class TestInteractionPictureShift:
    def test_zero_reference_is_identity(self):
        geo = equilibrium_positions(TRAP, 3)
        modes = mode_parameters(TRAP.transverse_frequency, geo)
        same = interaction_picture_shift(modes, 0.0)
        assert np.allclose(same.corrected_local, modes.corrected_local)
        assert np.allclose(
            same.collective_frequencies, modes.collective_frequencies
        )

    def test_two_ion_shift_matches_band(self, chain_tables):
        table = chain_tables[2]
        geo = ChainGeometry.from_spacings([5.280e-6])
        wx = anchor_transverse_frequency(geo, mhz(table["modes_MHz"][-1]))
        modes = mode_parameters(wx, geo)
        shifted = interaction_picture_shift(modes, wx)
        got = to_khz(shifted.collective_frequencies)
        assert got[0] == pytest.approx(-52.0, abs=1.5)
        assert got[1] == pytest.approx(0.0, abs=0.5)

    def test_32_ion_paper_values(self, chain_tables):
        table = chain_tables[32]
        geo = ChainGeometry.from_spacings(
            [d * 1e-6 for d in table["spacings_um"]]
        )
        wx = anchor_transverse_frequency(geo, mhz(table["modes_MHz"][-1]))
        modes = mode_parameters(wx, geo)
        shifted = interaction_picture_shift(modes, wx)
        assert to_khz(shifted.corrected_local) == pytest.approx(
            table["local_kHz"], abs=1.0
        )

    def test_constant_shift_moves_every_collective_mode(self):
        geo = equilibrium_positions(TRAP, 5)
        modes = mode_parameters(TRAP.transverse_frequency, geo)
        c = khz(17.0)
        shifted = interaction_picture_shift(modes, c)
        assert shifted.collective_frequencies == pytest.approx(
            modes.collective_frequencies - c, rel=1e-12
        )
        assert np.allclose(shifted.hopping, modes.hopping)


def top_mode_excess(geometry, top_mode):
    return lambda wx: (
        mode_parameters(wx, geometry).collective_frequencies[-1] - top_mode
    )


class TestAnchorTransverseFrequency:
    @pytest.mark.parametrize("path", SPACINGS_CONFIGS, ids=os.path.basename)
    def test_matches_brentq_on_shipped_chains(self, path):
        from scipy.optimize import brentq

        cfg = parse_config(path)
        geo = ChainGeometry.from_spacings([d * 1e-6 for d in cfg.spacings_um])
        top = mhz(cfg.top_mode_mhz)
        # The bracketed root finder the anchor used before: +-2% of top.
        ref = brentq(top_mode_excess(geo, top), 0.98 * top, 1.02 * top, xtol=1e-6)
        assert abs(anchor_transverse_frequency(geo, top) - ref) <= 8 * np.spacing(ref)

    def test_root_beyond_two_percent_of_top_mode(self):
        # Tight spacings put the trap frequency 5% above the top mode,
        # where a +-2% bracket around it would find no root.
        geo = ChainGeometry.from_spacings([1.8e-6] * 3)
        top = mhz(2.744)
        wx = anchor_transverse_frequency(geo, top)
        assert wx > 1.02 * top
        assert abs(top_mode_excess(geo, top)(wx)) <= 8 * np.spacing(top)

    @pytest.mark.parametrize("spacing_um, top_mhz", [(6.6, 0.3), (1.5, 2.744)])
    def test_unconfined_chain_raises_zigzag(self, spacing_um, top_mhz):
        geo = ChainGeometry.from_spacings([spacing_um * 1e-6] * 3)
        with pytest.raises(ZigzagError):
            anchor_transverse_frequency(geo, mhz(top_mhz))

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(ion_chain, "ANCHOR_MAX_ITER", 1)
        geo = ChainGeometry.from_spacings([6.602e-6, 6.104e-6, 6.602e-6])
        with pytest.raises(ValueError, match="no transverse frequency"):
            anchor_transverse_frequency(geo, mhz(2.744))


def test_modes_csv_roundtrip():
    from jchsim.experiment import _modes_csv, _t_matrix_csv

    geo = equilibrium_positions(TRAP, 3)
    modes = mode_parameters(TRAP.transverse_frequency, geo)
    rows = _modes_csv(modes).strip().splitlines()
    assert rows[0] == "ion_index,omega_i_kHz,omega_tilde_i_kHz"
    assert len(rows) == 4
    got = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert got == pytest.approx(to_khz(modes.local_frequencies), rel=1e-12)
    t = np.loadtxt(io.StringIO(_t_matrix_csv(modes)), delimiter=",")
    assert t.shape == (3, 3)
    assert t == pytest.approx(to_khz(modes.corrected_hopping), rel=1e-12)
