"""Correctness checks for the benchmark, computed apart from jchsim.

Every reference here is built from the numbers a run wrote (params.txt,
t_matrix.csv, the calibrate report) or from the benchmark's own inputs,
with the benchmark's own sector enumeration, Hamiltonian assembly, mode
formula and scipy solvers.  Each check_* function returns a list of
failure messages; an empty list means the output is correct.

The one place the program's code is called is the energy check on the
large sector: scipy has no cheap energy-conserving reference there, so
the check re-runs jchsim's propagator for the first sample step on the
benchmark's Hamiltonian, requires its sigma_z to equal the run's, and
then tests that <H> is conserved.
"""

import csv
import math
import os
from itertools import combinations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

# CODATA 2018; the Coulomb constant between two elementary charges and
# the 171Yb+ mass.
_COULOMB = 1.602176634e-19**2 / (4.0 * math.pi * 8.8541878128e-12)
_MASS = 171.0 * 1.66053906660e-27
_KHZ = 2.0 * math.pi * 1e3

DRIFT_TOL = 1e-9
SIGMA_Z_TOL = 1e-8
ENERGY_RTOL = 1e-8
SAME_STATE_TOL = 1e-10
MODE_RMS_KHZ = 1.0
SPACING_TOL_UM = {4: 0.05, 20: 0.3}
RABI_RTOL = 1e-4
RABI_CENTER_TOL_UM = 0.01


# ---------------------------------------------------------------- reading

def read_params(out_dir):
    """The resolved model of a run, from params.txt and t_matrix.csv."""
    head, ions = {}, []
    with open(os.path.join(out_dir, "params.txt")) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("ion"):
                fields = dict(
                    part.split(" = ") for part in line.split(": ", 1)[1].split(", ")
                )
                ions.append([float(fields[k]) for k in
                             ("g_kHz", "delta_kHz", "omega_tilde_kHz")])
            elif " = " in line:
                key, value = line.split(" = ", 1)
                head[key] = value
    ions = np.array(ions) * _KHZ
    hop = np.loadtxt(os.path.join(out_dir, "t_matrix.csv"), delimiter=",", ndmin=2)
    return {
        "n_ions": int(head["n_ions"]),
        "excitations": int(head["excitations"]),
        "excited_ions": [int(i) for i in head["excited_ions"].split(",")],
        "total_time": float(head["total_time_us"]) * 1e-6,
        "samples": int(head["samples"]),
        "krylov_tol": float(head["krylov_tol"]),
        "g": ions[:, 0],
        "delta": ions[:, 1],
        "omega": ions[:, 2],
        "hopping": hop * _KHZ,
    }


def read_timeseries(out_dir):
    """(sigma_z (samples, N), norm_drift, excitation_drift)."""
    data = np.loadtxt(os.path.join(out_dir, "timeseries.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    return data[:, 1:-2], data[:, -2], data[:, -1]


def read_report(text):
    """key = value lines printed by `jchsim calibrate`."""
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            out[key.strip()] = value.strip()
    return out


def read_column(path, column):
    with open(path) as fh:
        return np.array([float(row[column]) for row in csv.DictReader(fh)])


# ----------------------------------------------------- sector Hamiltonian

class Sector:
    """Fixed-excitation sector: spin-up flags and phonon occupations."""

    def __init__(self, n_ions, excitations):
        n, m = n_ions, excitations
        spins, occs = [], []
        for k in range(min(n, m) + 1):
            r = m - k
            # Stars and bars: n - 1 bar positions among r + n - 1 slots.
            bars = list(combinations(range(r + n - 1), n - 1))
            bars = np.array(bars, dtype=np.int64).reshape(len(bars), n - 1)
            edges = np.hstack([np.full((len(bars), 1), -1), bars,
                               np.full((len(bars), 1), r + n - 1)])
            comp = np.diff(edges, axis=1) - 1
            for ups in combinations(range(n), k):
                up = np.zeros(n, dtype=bool)
                up[list(ups)] = True
                spins.append(np.broadcast_to(up, comp.shape))
                occs.append(comp)
        self.n_ions, self.excitations = n, m
        self.up = np.vstack(spins)
        self.occ = np.vstack(occs)
        self.base = m + 1
        keys = self._keys(self.up, self.occ)
        order = np.argsort(keys)
        self.up, self.occ, self.keys = self.up[order], self.occ[order], keys[order]

    @property
    def dimension(self):
        return len(self.keys)

    def _keys(self, up, occ):
        weights = self.base ** np.arange(self.n_ions, dtype=np.int64)
        masks = up.astype(np.int64) @ (1 << np.arange(self.n_ions, dtype=np.int64))
        return masks * self.base**self.n_ions + occ.astype(np.int64) @ weights

    def index(self, up, occ):
        keys = self._keys(up, occ)
        idx = np.searchsorted(self.keys, keys)
        if np.any(idx >= len(self.keys)) or np.any(self.keys[idx] != keys):
            raise ValueError("partner state outside the sector")
        return idx

    def product_state(self, excited_ions):
        up = np.zeros((1, self.n_ions), dtype=bool)
        up[0, [i - 1 for i in excited_ions]] = True
        v = np.zeros(self.dimension, dtype=complex)
        v[self.index(up, np.zeros((1, self.n_ions), dtype=np.int64))[0]] = 1.0
        return v

    def sigma_z(self, states):
        """Per-ion <sigma_z> of the rows of states (normalized)."""
        probs = np.abs(np.atleast_2d(states)) ** 2
        return probs @ np.where(self.up, 1.0, -1.0)

    def hamiltonian(self, model):
        """JCH Hamiltonian on this sector as a real symmetric CSR matrix."""
        n = self.n_ions
        sign = np.where(self.up, 1.0, -1.0)
        diag = (0.5 * sign * model["delta"] + self.occ * model["omega"]).sum(axis=1)
        rows, cols, vals = [], [], []
        for i in range(n):
            src = np.flatnonzero(self.up[:, i])
            up, occ = self.up[src].copy(), self.occ[src].copy()
            up[:, i] = False
            occ[:, i] += 1
            rows.append(self.index(up, occ))
            cols.append(src)
            vals.append(model["g"][i] * np.sqrt(occ[:, i]))
        for i in range(n):
            for j in range(i + 1, n):
                t = model["hopping"][i, j]
                src = np.flatnonzero(self.occ[:, j] > 0)
                if t == 0.0 or src.size == 0:
                    continue
                occ = self.occ[src].copy()
                occ[:, i] += 1
                occ[:, j] -= 1
                rows.append(self.index(self.up[src], occ))
                cols.append(src)
                vals.append(t * np.sqrt(occ[:, i] * self.occ[src, j]))
        d = self.dimension
        off = sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(d, d),
        )
        return (off + off.T + sp.diags(diag)).tocsr()


# ------------------------------------------------------------ simulations

def _drift_failures(name, norm_drift, exc_drift):
    fails = []
    if not norm_drift.max() <= DRIFT_TOL:
        fails.append(f"{name}: norm drift {norm_drift.max():.3e} > {DRIFT_TOL}")
    if not exc_drift.max() <= DRIFT_TOL:
        fails.append(f"{name}: excitation drift {exc_drift.max():.3e} > {DRIFT_TOL}")
    return fails


class SectorReference:
    """Reference for one evolution: expm_multiply at the first sample,
    plus the energy check on the program's propagator (see module doc)."""

    def __init__(self, out_dir):
        from jchsim.hamiltonian import SparseHamiltonian
        from jchsim.propagator import propagate_krylov

        model = read_params(out_dir)
        sector = Sector(model["n_ions"], model["excitations"])
        h = sector.hamiltonian(model)
        v0 = sector.product_state(model["excited_ions"])
        dt = model["total_time"] / (model["samples"] - 1)
        shift = h.diagonal().mean()
        shifted = (h - shift * sp.identity(sector.dimension, format="csr")).tocsr()
        exact = expm_multiply((-1j * dt) * shifted, v0)
        self.sigma_z_exact = sector.sigma_z(exact)[0]

        program = propagate_krylov(SparseHamiltonian(h, None, None), v0, dt,
                                   model["krylov_tol"], 40,
                                   time_scale=model["total_time"])
        self.sigma_z_program = sector.sigma_z(program)[0]
        e0 = np.vdot(v0, h @ v0).real
        e1 = np.vdot(program, h @ program).real / np.vdot(program, program).real
        self.energy_error = abs(e1 - e0) / abs(e0)
        self.samples = model["samples"]


def check_sector(out_dir, ref):
    """A single evolution's outputs against a SectorReference."""
    sz, norm_drift, exc_drift = read_timeseries(out_dir)
    fails = _drift_failures(out_dir, norm_drift, exc_drift)
    if sz.shape[0] != ref.samples:
        return fails + [f"{out_dir}: {sz.shape[0]} samples, expected {ref.samples}"]
    err = np.abs(sz[1] - ref.sigma_z_exact).max()
    if not err <= SIGMA_Z_TOL:
        fails.append(f"{out_dir}: sigma_z at sample 1 is {err:.3e} from expm_multiply")
    err = np.abs(sz[1] - ref.sigma_z_program).max()
    if not err <= SAME_STATE_TOL:
        fails.append(f"{out_dir}: energy-checked state differs from the run by {err:.3e}")
    if not ref.energy_error <= ENERGY_RTOL:
        fails.append(f"energy drift {ref.energy_error:.3e} > {ENERGY_RTOL}")
    return fails


def dense_sigma_z(out_dir):
    """sigma_z(t) on the run's full time grid by dense diagonalization."""
    model = read_params(out_dir)
    sector = Sector(model["n_ions"], model["excitations"])
    evals, evecs = sla.eigh(sector.hamiltonian(model).toarray())
    coeffs = evecs.T @ sector.product_state(model["excited_ions"])
    times = np.linspace(0.0, model["total_time"], model["samples"])
    states = (np.exp(-1j * np.outer(times, evals)) * coeffs) @ evecs.T
    return sector.sigma_z(states)


def scan_references(scan_dir, deltas):
    return {d: dense_sigma_z(os.path.join(scan_dir, f"delta_{d:g}kHz")) for d in deltas}


def check_scan(scan_dir, deltas, scan_ion, refs):
    """Detuning scan: every sub-run and scan.csv against dense evolution,
    then the band-edge ordering of the acceptance suite on scan_ion."""
    fails = []
    table = np.loadtxt(os.path.join(scan_dir, "scan.csv"), delimiter=",",
                       skiprows=1, ndmin=2)
    traces = {}
    for d in deltas:
        sub = os.path.join(scan_dir, f"delta_{d:g}kHz")
        sz, norm_drift, exc_drift = read_timeseries(sub)
        fails += _drift_failures(sub, norm_drift, exc_drift)
        ref = refs[d]
        if sz.shape != ref.shape:
            fails.append(f"{sub}: shape {sz.shape}, expected {ref.shape}")
            continue
        err = np.abs(sz - ref).max()
        if not err <= SIGMA_Z_TOL:
            fails.append(f"{sub}: sigma_z is {err:.3e} from dense evolution")
        col = table[table[:, 1] == d, 2]
        if col.shape != (ref.shape[0],):
            fails.append(f"scan.csv: {col.size} rows for {d:g} kHz")
            continue
        err = np.abs(col - ref[:, scan_ion - 1]).max()
        if not err <= SIGMA_Z_TOL:
            fails.append(f"scan.csv at {d:g} kHz: {err:.3e} from dense evolution")
        traces[d] = col
    if len(table) != len(deltas) * refs[deltas[0]].shape[0]:
        fails.append(f"scan.csv has {len(table)} rows")
    if not fails:
        fails += band_edge_failures(traces[-15.0], traces[60.0], traces[-60.0])
    return fails


def band_edge_failures(inside, outside, edge):
    """Acceptance criterion 8: inside the band the spin decays further than
    outside it, outside it stays above 0.5, and at the edge it revives."""
    fails = []
    if not inside.min() < outside.min():
        fails.append("band edge: decay inside the band is not deeper than outside")
    if not np.all(outside > 0.5):
        fails.append("band edge: outside the band sigma_z drops to 0.5 or below")
    dip = int(edge.argmin())
    if not edge[dip:].max() >= edge[dip] + 0.1:
        fails.append("band edge: no revival after the dip at the band edge")
    return fails


# ------------------------------------------------------------ calibration

def transverse_modes(spacings_m, wx):
    """Exact transverse normal modes (rad/s) of a chain with these spacings."""
    z = np.concatenate([[0.0], np.cumsum(spacings_m)])
    dz = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(dz, np.inf)
    c = _COULOMB / _MASS / dz**3
    k = np.diag(wx**2 - c.sum(axis=1)) + c
    return np.sqrt(np.linalg.eigvalsh(k))


def check_spectrum_fit(report, measured_mhz, measured_spacings_um):
    """A `calibrate --spectrum` report against the measured chain."""
    try:
        fields = read_report(report)
        spacings = np.array([float(s) for s in fields["spacings_um"].split(",")])
        wx = 2.0 * math.pi * 1e6 * float(fields["transverse_MHz"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable calibrate report: {exc!r}"]
    n = len(measured_mhz)
    if spacings.shape != (n - 1,):
        return [f"{n}-ion fit reports {spacings.size} spacings"]
    fails = []
    tol = SPACING_TOL_UM[n]
    err = np.abs(spacings - measured_spacings_um).max()
    if not err <= tol:
        fails.append(f"{n}-ion fit: spacing off by {err:.4f} um > {tol}")
    modes = transverse_modes(spacings * 1e-6, wx)
    rms = math.sqrt(np.mean((modes - 2.0 * math.pi * 1e6 * np.sort(measured_mhz)) ** 2))
    if not rms / _KHZ <= MODE_RMS_KHZ:
        fails.append(f"{n}-ion fit: modes {rms / _KHZ:.3f} kHz RMS from measured")
    return fails


def rabi_table(seed, positions_um):
    """Seeded noiseless Gaussian beam sampled at the ion positions."""
    rng = np.random.default_rng(seed)
    truth = {
        "waist_um": float(rng.uniform(140.0, 180.0)),
        "peak_rabi_kHz": float(rng.uniform(40.0, 60.0)),
        "center_um": float(rng.uniform(-5.0, 5.0)),
    }
    z = np.asarray(positions_um)
    rabi = truth["peak_rabi_kHz"] * np.exp(
        -2.0 * (z - truth["center_um"]) ** 2 / truth["waist_um"] ** 2
    )
    lines = ["position_um,rabi_kHz"] + [f"{a:.9f},{b:.9f}" for a, b in zip(z, rabi)]
    return "\n".join(lines) + "\n", truth


def check_rabi_fit(report, truth):
    """A `calibrate --rabi` report against the profile that made the table."""
    try:
        fields = read_report(report)
        got = {k: float(fields[k]) for k in truth}
    except (KeyError, ValueError) as exc:
        return [f"unreadable rabi report: {exc!r}"]
    fails = []
    for key in ("waist_um", "peak_rabi_kHz"):
        if not abs(got[key] - truth[key]) <= RABI_RTOL * truth[key]:
            fails.append(f"rabi fit: {key} {got[key]} vs {truth[key]:.6f}")
    if not abs(got["center_um"] - truth["center_um"]) <= RABI_CENTER_TOL_UM:
        fails.append(f"rabi fit: center_um {got['center_um']} vs {truth['center_um']:.6f}")
    return fails
