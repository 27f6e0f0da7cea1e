"""Fixed-total-excitation Hilbert sector for N spins with local bosons.

The sector keeps exactly the states whose spin-up count plus total
phonon number equals M.  SectorBasis stores it as two (D, N) arrays,
spin-up flags and phonon occupations, ordered by spin mask ascending
(bit i set = ion i+1 up), then occupations in colexicographic order;
its indices() ranks array rows in closed form, so no other module needs
the ordering.

Ion reversal i <-> N+1-i maps the sector onto itself.  MirrorEvenBasis
is the subspace of states even under it, one basis vector per mirror
orbit: a chain whose Hamiltonian commutes with the reversal, started
from an even state, never leaves it, and it holds about half the
states.  Both bases expose the same n_ions, excitations, dimension,
spins, occupations, weights, indices() and spin_signs(), so the
Hamiltonian builder and the propagator read either one alike; a
SectorBasis is the case where every orbit is one state of weight 1.
"""

from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

DEFAULT_DIMENSION_CAP = 300_000


class SectorCapError(ValueError):
    """Sector dimension exceeds the configured cap."""

    def __init__(self, dimension, cap):
        super().__init__(
            f"sector dimension {dimension} exceeds the cap {cap}; "
            "reduce N or M or raise the cap"
        )
        self.dimension = dimension
        self.cap = cap


def sector_dimension(n_ions, excitations):
    """Exact dimension of the fixed-excitation sector (big integer).

    Sum over the spin-up count k of C(N, k) * C(N + M - k - 1, N - 1):
    choose which spins are up, then distribute the remaining M - k
    excitations as phonons over N sites.
    """
    if n_ions < 1 or excitations < 0:
        raise ValueError("need n_ions >= 1 and excitations >= 0")
    n, m = n_ions, excitations
    return sum(
        comb(n, k) * comb(n + m - k - 1, n - 1) for k in range(min(n, m) + 1)
    )


@lru_cache(maxsize=None)
def _compositions_colex(total, parts):
    """All compositions of total into parts parts, colex ascending: a
    read-only int16 array, one composition per row."""
    if parts == 1:
        out = np.full((1, 1), total, dtype=np.int16)
    else:
        heads = [_compositions_colex(total - last, parts - 1)
                 for last in range(total + 1)]
        lasts = np.repeat(np.arange(total + 1, dtype=np.int16),
                          [len(head) for head in heads])
        out = np.column_stack([np.concatenate(heads), lasts])
    out.flags.writeable = False
    return out


class _SectorRank:
    """Closed-form position of in-sector states in a sector's order.

    It holds only counting tables, each entry at most D, so a basis that
    ranks full-sector states need not hold the full sector's arrays.
    """

    def __init__(self, n_ions, excitations):
        n, m = self.n_ions, self.excitations = n_ions, excitations
        # _placements[r, j] is the number of ways to put r phonons on j
        # ions; columns are contiguous.
        self._placements = np.array(
            [[comb(r + j - 1, j - 1) if j else 0 for j in range(n + 1)]
             for r in range(m + 1)],
            dtype=np.int64, order="F",
        )
        # _before[i, k]: states whose mask has k ups above bit i, bit i
        # clear and any bits below, i.e. those preceding a mask with bit i
        # set among masks that share its bits above i.
        block = [int(c) for c in self._placements[:, n]]
        self._before = np.array(
            [[sum(comb(i, u) * block[m - k - u] for u in range(min(i, m - k) + 1))
              for k in range(m + 1)]
             for i in range(n)],
            dtype=np.int64,
        )

    def __call__(self, spins, occupations):
        """See SectorBasis.indices."""
        index = np.zeros(len(spins), dtype=np.int64)
        ups = np.zeros(len(spins), dtype=np.int64)
        for i in range(self.n_ions - 1, -1, -1):
            index += np.where(spins[:, i], self._before[i][ups], 0)
            ups += spins[:, i]
        # Colex rank: from ion N down, count the compositions of the phonons
        # still left whose last part is smaller than this ion's occupation.
        left = self.excitations - ups
        for j in range(self.n_ions, 1, -1):
            occ, placements = occupations[:, j - 1], self._placements[:, j]
            index += placements[left] - placements[left - occ]
            left -= occ
        return index


class SectorBasis:
    """Immutable enumeration of a fixed-excitation sector.

    spins[j, i] is True when ion i+1 is up in state j, and
    occupations[j, i] is its phonon number; both arrays are read-only.
    weights are all 1, as each state is its own orbit (see
    MirrorEvenBasis).
    """

    def __init__(self, n_ions, excitations, spins, occupations):
        self.n_ions = n_ions
        self.excitations = excitations
        self.spins = spins
        self.occupations = occupations
        spins.flags.writeable = False
        occupations.flags.writeable = False
        # A read-only zero-stride view, which holds no array of D ones.
        self.weights = np.broadcast_to(1.0, (len(occupations),))
        self._rank = _SectorRank(n_ions, excitations)

    def __len__(self):
        return len(self.occupations)

    @property
    def dimension(self):
        return len(self.occupations)

    def indices(self, spins, occupations):
        """Positions of in-sector states given as (K, N) spin and occupation arrays.

        The rank is the number of states in the blocks of smaller spin
        masks plus the colex rank of the occupations within the block.
        Rows must lie in the sector: the result for any other row is
        meaningless and may fall outside 0..D-1.
        """
        return self._rank(spins, occupations)

    def spin_signs(self):
        """(D, N) int8 diagonal of sigma_z^i: each state's +/-1 spin eigenvalues."""
        return np.where(self.spins, np.int8(1), np.int8(-1))


class MirrorEvenBasis:
    """The mirror-even subspace of a SectorBasis, one vector per orbit.

    orbit[j] is the orbit of full-sector state j.  Orbit a has a
    representative r, the smaller full-sector index of the pair, and the
    even vector weights[a] * (|r> + |partner r>), partner r being r
    reversed: weights are 1/sqrt(2) for a pair and 1 for a state that is
    its own mirror image, which is then counted once.  spins and
    occupations are the representatives' rows, and indices() maps any
    in-sector state to its orbit.  The full sector's own arrays, the
    partners and the representatives' indices are not kept.
    """

    def __init__(self, full):
        self.n_ions = full.n_ions
        self.excitations = full.excitations
        self._rank = full._rank
        dim = full.dimension
        partner = full.indices(full.spins[:, ::-1], full.occupations[:, ::-1])
        reps = np.flatnonzero(np.arange(dim) <= partner)
        orbit = np.empty(dim, dtype=np.int64)
        orbit[reps] = np.arange(len(reps))
        orbit[partner[reps]] = orbit[reps]
        self.orbit = orbit
        self.weights = np.where(partner[reps] == reps, 1.0, np.sqrt(0.5))
        self.spins = full.spins[reps]
        self.occupations = full.occupations[reps]
        for array in (orbit, self.weights, self.spins, self.occupations):
            array.flags.writeable = False

    def __len__(self):
        return len(self.weights)

    @property
    def dimension(self):
        return len(self.weights)

    def indices(self, spins, occupations):
        """Orbits of in-sector states given as (K, N) spin and occupation rows."""
        return self.orbit[self._rank(spins, occupations)]

    def spin_signs(self):
        """(D, N) int8 diagonal of sigma_z^i: each orbit's mean spin eigenvalue.

        A representative's partner is its reversal, so the pair's signs
        are the representative's own read backwards; the mean of a pair's
        two +/-1 values is -1, 0 or 1.
        """
        signs = np.where(self.spins, np.int8(1), np.int8(-1))
        return (signs + signs[:, ::-1]) // 2


def enumerate_sector(n_ions, excitations, dimension_cap=DEFAULT_DIMENSION_CAP,
                     mirror_even=False):
    """Enumerate all states with popcount(spins) + sum(phonons) = M.

    Ordering: spin bitmask ascending, then phonon occupations in colex
    order (ion N's occupation is the most significant).  With
    mirror_even, returns the MirrorEvenBasis of that sector instead; the
    cap applies to the full dimension either way.
    """
    dim = sector_dimension(n_ions, excitations)
    if dim > dimension_cap:
        raise SectorCapError(dim, dimension_cap)
    if excitations > np.iinfo(np.int16).max:
        raise ValueError("excitations exceed the int16 occupation array")

    n, m = n_ions, excitations
    # Masks with popcount <= M, generated per spin-up count so that large
    # N with small M stays cheap, then sorted into ascending order.
    masks = sorted(
        sum(1 << i for i in ups)
        for k in range(min(n, m) + 1)
        for ups in combinations(range(n), k)
    )
    mask_spins = np.array(
        [[(mask >> i) & 1 for i in range(n)] for mask in masks], dtype=bool
    )
    # Each mask with k ups owns a block of the colex compositions of M - k.
    tables = [_compositions_colex(m - k, n) for k in range(min(n, m) + 1)]
    blocks = [tables[k] for k in mask_spins.sum(axis=1)]
    spins = np.repeat(mask_spins, [len(b) for b in blocks], axis=0)
    occupations = np.concatenate(blocks)
    assert len(occupations) == dim
    basis = SectorBasis(n_ions, excitations, spins, occupations)
    return MirrorEvenBasis(basis) if mirror_even else basis
