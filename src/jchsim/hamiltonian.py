"""Sparse excitation-conserving spin-boson lattice Hamiltonian.

H = sum_i [ Delta_i/2 sigma_z^i + omega_i a_i^dag a_i
            + g_i (sigma_+^i a_i + a_i^dag sigma_-^i) ]
    + sum_{i<j} t_ij (a_i^dag a_j + a_j^dag a_i)

built on a fixed-excitation SectorBasis.  In that basis every matrix
element is real, so the matrix is stored as a real symmetric CSR.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .textio import write_text_atomic


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

    @property
    def dimension(self):
        return self.matrix.shape[0]

    def apply(self, v):
        v = np.asarray(v)
        if v.shape != (self.dimension,):
            raise ValueError(f"vector length {v.shape} != dimension {self.dimension}")
        return self.matrix @ v

    def dense(self):
        return self.matrix.toarray()

    def diagonal(self):
        return self.matrix.diagonal()

    def to_coordinate_text(self, path):
        """Dump nonzeros as 'row col value' lines (0-based) for cross-checks."""
        coo = self.matrix.tocoo()
        lines = (f"{r} {c} {v:.17g}\n" for r, c, v in zip(coo.row, coo.col, coo.data))
        write_text_atomic(path, "".join(lines))


def build_hamiltonian(params, basis):
    """Assemble the sector Hamiltonian as a real symmetric CSR matrix.

    Off-diagonal rules on a basis state |spins; n_1..n_N>:
      spin flip down with phonon emission on ion i (spin up, any n_i):
          element g_i sqrt(n_i + 1)
      phonon hop j -> i for i < j with n_j >= 1:
          element t_ij sqrt((n_i + 1) n_j)
    Each undirected pair is generated once, one vectorized block per ion
    or hopping pair, and symmetrized at the end.
    """
    n = params.n_ions
    if n != basis.n_ions:
        raise ValueError(
            f"parameters are for {n} ions but basis has {basis.n_ions}"
        )
    dim = basis.dimension
    spins, occ = basis.spins, basis.occupations
    delta = params.detunings
    omega = params.local_frequencies
    g = params.couplings
    t = params.hoppings

    # Summed ion by ion, in ion order, so the rounding of each element does
    # not depend on the BLAS in use.
    signs = basis.spin_signs()
    diag = np.zeros(dim)
    for i in range(n):
        diag += 0.5 * delta[i] * signs[:, i] + omega[i] * occ[:, i]

    rows, cols, vals = [], [], []
    for i in range(n):
        col = np.flatnonzero(spins[:, i])
        down = spins[col]
        down[:, i] = False
        emitted = occ[col]
        emitted[:, i] += 1
        rows.append(basis.indices(down, emitted))
        cols.append(col)
        vals.append(g[i] * np.sqrt(occ[col, i] + 1.0))

    for i, j in zip(*np.nonzero(np.triu(t, 1))):
        col = np.flatnonzero(occ[:, j])
        hopped = occ[col]
        hopped[:, i] += 1
        hopped[:, j] -= 1
        rows.append(basis.indices(spins[col], hopped))
        cols.append(col)
        vals.append(t[i, j] * np.sqrt((occ[col, i] + 1.0) * occ[col, j]))

    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    off = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim))
    h = (off + off.T + sp.diags(diag)).tocsr()
    h.sum_duplicates()
    return SparseHamiltonian(h, params, basis)


def sigma_z_expectation(basis, v, norm_tol=1e-8):
    """Per-ion <sigma_z> for a normalized sector vector."""
    v = np.asarray(v)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > norm_tol:
        raise ValueError(f"state norm {nrm} deviates from 1 beyond {norm_tol}")
    probs = np.abs(v) ** 2
    return probs @ basis.spin_signs().astype(float)


def excitation_expectation(basis, v, norm_tol=1e-8):
    """<total excitations> = spin-up count plus phonon number."""
    v = np.asarray(v)
    nrm = np.linalg.norm(v)
    if abs(nrm - 1.0) > norm_tol:
        raise ValueError(f"state norm {nrm} deviates from 1 beyond {norm_tol}")
    probs = np.abs(v) ** 2
    return float(probs @ (basis.spins.sum(axis=1) + basis.phonon_totals()))
