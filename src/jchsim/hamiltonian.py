"""Sparse excitation-conserving spin-boson lattice Hamiltonian.

H = sum_i [ Delta_i/2 sigma_z^i + omega_i a_i^dag a_i
            + g_i (sigma_+^i a_i + a_i^dag sigma_-^i) ]
    + sum_{i<j} t_ij (a_i^dag a_j + a_j^dag a_i)

built on a fixed-excitation SectorBasis, or on its MirrorEvenBasis,
from the per-ion JchParameters of one detuning, by one builder that
reads either basis alike.  In either basis every matrix element is
real, so the matrix is stored as a real symmetric CSR, assembled from
the raising moves alone: no lowering move reaches its upper triangle.
norm_bound bounds the norm of H, and mirror_asymmetry how far H is
from commuting with the ion reversal, which decides whether the even
sector may stand in for the full one.  This module builds only H:
propagator.evolve reads the sigma_z and excitation observables straight
from the basis arrays.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fock_basis import MirrorEvenBasis


@dataclass(frozen=True)
class JchParameters:
    """Per-ion model parameters, all angular rad/s, arrays of length N."""

    detunings: np.ndarray
    local_frequencies: np.ndarray
    couplings: np.ndarray
    hoppings: np.ndarray  # symmetric N x N, zero diagonal

    def __post_init__(self):
        for name in ("detunings", "local_frequencies", "couplings", "hoppings"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.detunings.size
        if self.local_frequencies.size != n or self.couplings.size != n:
            raise ValueError("parameter arrays must all have length N")
        if self.hoppings.shape != (n, n):
            raise ValueError("hoppings must be N x N")
        if not np.allclose(self.hoppings, self.hoppings.T):
            raise ValueError("hoppings must be symmetric")
        if np.any(np.diag(self.hoppings) != 0.0):
            raise ValueError("hoppings must have zero diagonal")

    @property
    def n_ions(self):
        return self.detunings.size


class SparseHamiltonian:
    """Real symmetric sparse operator on a sector basis."""

    def __init__(self, matrix, params, basis):
        self.matrix = matrix  # scipy CSR, float64
        self.params = params
        self.basis = basis


def _mirror_pairs(params):
    """Each parameter array beside its image under ion reversal i <-> N+1-i.

    Only the upper triangle of the hoppings enters H, so the image of
    t_ij (i < j) is t_{N+1-j, N+1-i}, again in the upper triangle.
    """
    return [
        (params.detunings, params.detunings[::-1]),
        (params.local_frequencies, params.local_frequencies[::-1]),
        (params.couplings, params.couplings[::-1]),
        (params.hoppings, params.hoppings[::-1, ::-1].T),
    ]


def norm_bound(params, excitations):
    """Upper bound on ||H||_2 in the sector of the given excitation number.

    The largest absolute row sum bounds the norm of a symmetric matrix;
    in a sector of M excitations a row holds at most |delta|/2 summed
    over ions, M max|omega|, sqrt(M) |g| per ion, and (M + 1) |t| per
    pair (the two hops of a pair have elements summing to at most
    n_i + n_j + 1).  A sum that overflows is inf, still a bound.
    """
    m = excitations
    with np.errstate(over="ignore"):
        return float(0.5 * np.abs(params.detunings).sum()
                     + m * np.abs(params.local_frequencies).max()
                     + math.sqrt(m) * np.abs(params.couplings).sum()
                     + (m + 1) * np.triu(np.abs(params.hoppings), 1).sum())


def mirror_asymmetry(params, excitations):
    """Upper bound on ||H - PHP||_2 in the sector, P the ion reversal.

    H is linear in its parameters, so H - PHP is the Hamiltonian of the
    differences between the parameters and their mirror image, and
    norm_bound bounds it.
    """
    return norm_bound(
        JchParameters(*(x - y for x, y in _mirror_pairs(params))), excitations
    )


def _diagonal(params, spins, occ):
    """Diagonal of H on the given states."""
    # Summed ion by ion, in ion order, so the rounding of each element does
    # not depend on the BLAS in use.
    signs = np.where(spins, np.int8(1), np.int8(-1))
    diag = np.zeros(len(occ))
    for i in range(params.n_ions):
        diag += (0.5 * params.detunings[i] * signs[:, i]
                 + params.local_frequencies[i] * occ[:, i])
    return diag


def _couplings(params, spins, occ):
    """Raising off-diagonal elements of H out of the given states, by term.

    Yields (sources, target spins, target occupations, elements), where
    sources index the given rows, one block per raising term:
      spin flip up with phonon absorption on ion i: g_i sqrt(n_i)
      phonon hop i -> j for i < j: t_ij sqrt((n_j + 1) n_i)
    Their reverses, the lowering moves, strictly lower the full-sector
    index: a flip down lowers the spin mask, and a hop j -> i lowers the
    colex rank, whose most significant digit is ion N's occupation.
    """
    g, t = params.couplings, params.hoppings
    for i in range(params.n_ions):
        col = np.flatnonzero(~spins[:, i] & (occ[:, i] > 0))
        up = spins[col]
        up[:, i] = True
        absorbed = occ[col]
        absorbed[:, i] -= 1
        yield col, up, absorbed, g[i] * np.sqrt(occ[col, i] + 0.0)

    for i, j in zip(*np.nonzero(np.triu(t, 1))):
        col = np.flatnonzero(occ[:, i])
        hopped = occ[col]
        hopped[:, j] += 1
        hopped[:, i] -= 1
        yield col, spins[col], hopped, t[i, j] * np.sqrt(
            (occ[col, j] + 1.0) * occ[col, i])


def _batches(blocks, size):
    """Consecutive blocks, concatenated until each batch holds size rows or more."""
    batch = []
    for block in blocks:
        batch.append(block)
        if sum(len(sources) for sources, *_ in batch) >= size:
            yield map(np.concatenate, zip(*batch))
            batch = []
    if batch:
        yield map(np.concatenate, zip(*batch))


def _move_count(params, spins, occ):
    """Number of raising moves _couplings yields out of the given states:
    per ion, its spin-down rows with a phonon, and per coupled pair
    i < j, the rows with a phonon on ion i."""
    with_phonon = np.count_nonzero(occ > 0, axis=0)
    flips = np.count_nonzero(~spins & (occ > 0))
    return int(flips + with_phonon[np.nonzero(np.triu(params.hoppings, 1))[0]].sum())


def _index_dtype(dim):
    # Indices are stored as int32 whenever D fits, as scipy would pick, so
    # the conversion below reads them without another copy.
    return np.int32 if dim <= np.iinfo(np.int32).max else np.int64


def _csr(dim, upper, diag):
    """Real symmetric CSR from one triangle's entries and the diagonal.

    upper holds the (rows, cols, vals) arrays of the triangle, and is
    emptied, so that they are freed as they are consumed.  Both
    triangles and the diagonal go through one COO -> CSR conversion,
    which sums repeated (row, col) entries.  A repeat has two terms at
    most, so its sum is the same in either triangle and the matrix stays
    bitwise symmetric.  Zeros are dropped, as CSR addition would drop
    them.
    """
    rows, cols, vals = upper
    upper.clear()
    on_diag = np.arange(dim, dtype=_index_dtype(dim))
    r = np.concatenate([rows, cols, on_diag])
    c = np.concatenate([cols, rows, on_diag])
    del rows, cols, on_diag
    v = np.concatenate([vals, vals, diag])
    del vals, diag
    # Imported here, so that only a Hamiltonian build loads scipy.sparse.
    import scipy.sparse as sp

    h = sp.csr_matrix((v, (r, c)), shape=(dim, dim))
    del r, c, v
    h.eliminate_zeros()
    return h


def build_hamiltonian(params, basis):
    """Assemble the Hamiltonian on a basis as a real symmetric CSR matrix.

    Basis vector a is w_a times the sum of the states of its orbit,
    represented by the row r_a: on a SectorBasis an orbit is one state
    and w_a = 1; on a MirrorEvenBasis it is a state and its mirror image.
    For an H that commutes with the reversal P (any H, if orbits are
    single states),
        <a|H|b> = (w_b / w_a) * sum over y in orbit b of H[r_a, y],
    so each row is read off the neighbours of one representative, one
    vectorized block per raising term (see _couplings).  A lowering move
    from r_a lands below r_a, so in an orbit b < a, as a representative
    is the lower index of its orbit: every entry with b > a, and the
    H[r, Pr] that a pair coupled to its own mirror image (b == a) adds to
    its diagonal, comes from a raising move.  The upper triangle is
    mirrored, so the CSR is bitwise symmetric.  On a MirrorEvenBasis the
    matrix is that of the mean of the parameters and their mirror image,
    whose H is (H + PHP) / 2, and the full-sector matrix is never formed.
    """
    if params.n_ions != basis.n_ions:
        raise ValueError(f"parameters are for {params.n_ions} ions but "
                         f"basis has {basis.n_ions}")
    if isinstance(basis, MirrorEvenBasis):
        # Mirror-symmetric parameters come back bitwise unchanged.
        params = JchParameters(*(0.5 * (x + y) for x, y in _mirror_pairs(params)))
    dim = basis.dimension
    spins, occ, weights = basis.spins, basis.occupations, basis.weights
    diag = _diagonal(params, spins, occ)
    # The upper triangle is written into arrays sized once from the move
    # count, not gathered batch by batch, so no scattered batch arrays
    # outlive the build on the heap.
    moves = _move_count(params, spins, occ)
    index = _index_dtype(dim)
    upper = [np.empty(moves, dtype=index), np.empty(moves, dtype=index),
             np.empty(moves)]
    n = 0
    # Moves are ranked in batches of at least D, one indices() call each;
    # np.add.at sums a source row that repeats within a batch.
    for a, moved_spins, moved, element in _batches(_couplings(params, spins, occ), dim):
        b = basis.indices(moved_spins, moved)
        same = b == a
        np.add.at(diag, a[same], element[same])
        keep = b > a
        a, b = a[keep], b[keep]
        end = n + len(a)
        upper[0][n:end] = a
        upper[1][n:end] = b
        upper[2][n:end] = element[keep] * (weights[b] / weights[a])
        n = end
    upper = [x[:n] for x in upper]
    return SparseHamiltonian(_csr(dim, upper, diag), params, basis)
