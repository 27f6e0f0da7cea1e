"""Sparse excitation-conserving spin-boson lattice Hamiltonian.

H = sum_i [ Delta_i/2 sigma_z^i + omega_i a_i^dag a_i
            + g_i (sigma_+^i a_i + a_i^dag sigma_-^i) ]
    + sum_{i<j} t_ij (a_i^dag a_j + a_j^dag a_i)

built on a fixed-excitation SectorBasis, or on its MirrorEvenBasis,
from the per-ion JchParameters of one detuning, by one builder that
reads either basis alike.  In either basis every matrix element is
real, so the matrix is stored as a real symmetric CSR.
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
    """Off-diagonal elements of H out of the given states, term by term.

    Yields (sources, target spins, target occupations, elements), where
    sources index the given rows, in pairs: each lowering term, one per
    ion or hopping pair,
      spin flip down with phonon emission on ion i (spin up, any n_i):
          element g_i sqrt(n_i + 1)
      phonon hop j -> i for i < j with n_j >= 1:
          element t_ij sqrt((n_i + 1) n_j)
    followed by its reverse, so every neighbour of each given state is
    produced, with the element the lowering term gives from that
    neighbour.
    """
    g, t = params.couplings, params.hoppings
    for i in range(params.n_ions):
        col = np.flatnonzero(spins[:, i])
        down = spins[col]
        down[:, i] = False
        emitted = occ[col]
        emitted[:, i] += 1
        yield col, down, emitted, g[i] * np.sqrt(occ[col, i] + 1.0)
        col = np.flatnonzero(~spins[:, i] & (occ[:, i] > 0))
        up = spins[col]
        up[:, i] = True
        absorbed = occ[col]
        absorbed[:, i] -= 1
        yield col, up, absorbed, g[i] * np.sqrt(occ[col, i] + 0.0)

    for i, j in zip(*np.nonzero(np.triu(t, 1))):
        for to, source in ((i, j), (j, i)):
            col = np.flatnonzero(occ[:, source])
            hopped = occ[col]
            hopped[:, to] += 1
            hopped[:, source] -= 1
            yield col, spins[col], hopped, t[i, j] * np.sqrt(
                (occ[col, to] + 1.0) * occ[col, source])


def _index_dtype(dim):
    # Indices are stored as int32 whenever D fits, as scipy would pick, so
    # the conversion below reads them without another copy.
    return np.int32 if dim <= np.iinfo(np.int32).max else np.int64


def _csr(dim, rows, cols, vals, diag):
    """Real symmetric CSR from one triangle's entries and the diagonal.

    Both triangles and the diagonal go through one COO -> CSR conversion,
    which sums repeated (row, col) entries.  A repeat has two terms at
    most, so its sum is the same in either triangle and the matrix stays
    bitwise symmetric.  Zeros are dropped, as CSR addition would drop
    them.  The lists are emptied as they are consumed, to free their
    arrays early.
    """
    on_diag = np.arange(dim, dtype=_index_dtype(dim))
    r = np.concatenate(rows + cols + [on_diag])
    c = np.concatenate(cols + rows + [on_diag])
    rows.clear()
    cols.clear()
    del on_diag
    v = np.concatenate(vals + vals + [diag])
    vals.clear()
    del diag
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
    vectorized block per term and its reverse (see _couplings).  Only
    the upper triangle (b > a) is kept and mirrored, so the CSR is
    bitwise symmetric; a pair coupled to its own mirror image (b == a)
    adds H[r, Pr] to its diagonal.  On a MirrorEvenBasis the matrix is
    that of the mean of the parameters and their mirror image, whose H
    is (H + PHP) / 2, and the full-sector matrix is never formed.
    """
    n = params.n_ions
    if n != basis.n_ions:
        raise ValueError(
            f"parameters are for {n} ions but basis has {basis.n_ions}"
        )
    if isinstance(basis, MirrorEvenBasis):
        # Mirror-symmetric parameters come back bitwise unchanged.
        params = JchParameters(*(0.5 * (x + y) for x, y in _mirror_pairs(params)))
    dim = basis.dimension
    spins, occ, weights = basis.spins, basis.occupations, basis.weights
    diag = _diagonal(params, spins, occ)
    index = _index_dtype(dim)
    rows, cols, vals = [], [], []
    blocks = _couplings(params, spins, occ)
    # Each term and its reverse are ranked in one indices() call.
    for pair in zip(blocks, blocks):
        a, moved_spins, moved, element = map(np.concatenate, zip(*pair))
        b = basis.indices(moved_spins, moved)
        same = b == a
        diag[a[same]] += element[same]
        upper = b > a
        a, b = a[upper], b[upper]
        rows.append(a.astype(index))
        cols.append(b.astype(index))
        vals.append(element[upper] * (weights[b] / weights[a]))
    return SparseHamiltonian(_csr(dim, rows, cols, vals, diag), params, basis)
