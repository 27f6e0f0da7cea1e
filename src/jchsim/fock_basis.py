"""Fixed-total-excitation Hilbert sector for N spins with local bosons.

The sector keeps exactly the states whose spin-up count plus total
phonon number equals M.  SectorBasis stores it as two (D, N) arrays,
spin-up flags and phonon occupations, ordered by spin mask ascending
(bit i set = ion i+1 up), then occupations in colexicographic order;
its indices() ranks array rows in closed form, so no other module needs
the ordering.  BasisState and the packed integer of pack_state
(occupation bytes for ions 1..N from the low byte up, spin mask above)
are only the interchange format, whose numeric order is the sector order.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from .textio import write_text_atomic

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


class SectorMismatchError(ValueError):
    """State does not belong to the sector."""


@dataclass(frozen=True)
class BasisState:
    spins: int
    phonons: tuple

    def __post_init__(self):
        object.__setattr__(self, "phonons", tuple(int(n) for n in self.phonons))
        if self.spins < 0 or any(n < 0 for n in self.phonons):
            raise ValueError("spins and phonon occupations must be non-negative")

    @property
    def n_ions(self):
        return len(self.phonons)

    def excitations(self):
        return bin(self.spins).count("1") + sum(self.phonons)


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
    """All compositions of total into parts parts, colex ascending."""
    if parts == 1:
        return ((total,),)
    out = []
    for last in range(total + 1):
        for head in _compositions_colex(total - last, parts - 1):
            out.append(head + (last,))
    return tuple(out)


def pack_state(spins, phonons):
    """Packed integer encoding: occupation bytes then spin mask on top."""
    n = len(phonons)
    packed = spins << (8 * n)
    for i, occ in enumerate(phonons):
        if occ > 255:
            raise ValueError("phonon occupation exceeds one byte")
        packed |= occ << (8 * i)
    return packed


def unpack_state(packed, n_ions):
    spins = packed >> (8 * n_ions)
    phonons = tuple((packed >> (8 * i)) & 0xFF for i in range(n_ions))
    return BasisState(spins=spins, phonons=phonons)


class SectorBasis:
    """Immutable enumeration of a fixed-excitation sector.

    spins[j, i] is True when ion i+1 is up in state j, and
    occupations[j, i] is its phonon number; both arrays are read-only.
    """

    def __init__(self, n_ions, excitations, spins, occupations):
        self.n_ions = n_ions
        self.excitations = excitations
        self.spins = spins
        self.occupations = occupations
        spins.flags.writeable = False
        occupations.flags.writeable = False
        n, m = n_ions, excitations
        # Counts for indices(), each at most D: _placements[r, j] is the
        # number of ways to put r phonons on j ions.
        self._placements = np.array(
            [[comb(r + j - 1, j - 1) if j else 0 for j in range(n + 1)]
             for r in range(m + 1)],
            dtype=np.int64,
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

    def __len__(self):
        return len(self.occupations)

    @property
    def dimension(self):
        return len(self.occupations)

    @property
    def packed_states(self):
        """Packed integer of every state, in sector order (built on demand)."""
        states = map(self.state_at, range(len(self)))
        return [pack_state(s.spins, s.phonons) for s in states]

    def state_at(self, j):
        spins = sum(1 << i for i, up in enumerate(self.spins[j]) if up)
        return BasisState(spins=spins, phonons=self.occupations[j].tolist())

    def indices(self, spins, occupations):
        """Positions of in-sector states given as (K, N) spin and occupation rows.

        The rank is the number of states in the blocks of smaller spin
        masks plus the colex rank of the occupations within the block.
        Rows must lie in the sector; index_of checks outside input first.
        """
        spins = np.asarray(spins, dtype=bool)
        occupations = np.asarray(occupations)
        index = np.zeros(len(spins), dtype=np.int64)
        ups = np.zeros(len(spins), dtype=np.int64)
        for i in range(self.n_ions - 1, -1, -1):
            index += spins[:, i] * self._before[i, ups]
            ups += spins[:, i]
        # Colex rank: from ion N down, count the compositions of the phonons
        # still left whose last part is smaller than this ion's occupation.
        left = self.excitations - ups
        for j in range(self.n_ions, 1, -1):
            occ = occupations[:, j - 1]
            index += self._placements[left, j] - self._placements[left - occ, j]
            left -= occ
        return index

    def index_of(self, state):
        """Position of a BasisState (or its packed integer) in the sector."""
        if not isinstance(state, BasisState):
            state = unpack_state(state, self.n_ions)
        if state.n_ions != self.n_ions:
            raise SectorMismatchError(
                f"state has {state.n_ions} ions, basis has {self.n_ions}"
            )
        if state.spins >> self.n_ions or state.excitations() != self.excitations:
            raise SectorMismatchError(
                f"state not in the (N={self.n_ions}, M={self.excitations}) sector"
            )
        spins = [(state.spins >> i) & 1 for i in range(self.n_ions)]
        return int(self.indices([spins], [state.phonons])[0])

    def spin_signs(self):
        """(D, N) array of +/-1 spin eigenvalues per state and ion."""
        return np.where(self.spins, np.int8(1), np.int8(-1))

    def phonon_totals(self):
        """(D,) array of total phonon number per state."""
        return self.occupations.sum(axis=1)

    def to_csv(self, path):
        """Debug dump: index, spin string (ion 1 first), occupations."""
        lines = ["index,spins,phonons"]
        for j, (ups, occ) in enumerate(zip(self.spins, self.occupations)):
            spin_str = "".join("u" if up else "d" for up in ups)
            lines.append(f"{j},{spin_str},{' '.join(map(str, occ))}")
        write_text_atomic(path, "\n".join(lines) + "\n")


def enumerate_sector(n_ions, excitations, dimension_cap=DEFAULT_DIMENSION_CAP):
    """Enumerate all states with popcount(spins) + sum(phonons) = M.

    Ordering: spin bitmask ascending, then phonon occupations in colex
    order, which coincides with numeric order of the packed encoding.
    """
    dim = sector_dimension(n_ions, excitations)
    if dim > dimension_cap:
        raise SectorCapError(dim, dimension_cap)
    if excitations > 255:
        raise ValueError("excitations > 255 not representable in packed bytes")

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
    tables = [np.array(_compositions_colex(m - k, n), dtype=np.int16)
              for k in range(min(n, m) + 1)]
    blocks = [tables[k] for k in mask_spins.sum(axis=1)]
    spins = np.repeat(mask_spins, [len(b) for b in blocks], axis=0)
    occupations = np.concatenate(blocks)
    assert len(occupations) == dim
    return SectorBasis(n_ions, excitations, spins, occupations)
