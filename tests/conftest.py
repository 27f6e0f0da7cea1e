import os

import numpy as np
import pytest

from jchsim import propagator

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(REPO_ROOT, "configs")

# Measurement tables used across tests: adjacent ion distances (um),
# the top collective mode (MHz) and the quoted interaction-picture
# local frequencies (kHz).
CHAIN_TABLES = {
    2: {
        "spacings_um": [5.280],
        "modes_MHz": [2.666, 2.718],
        "local_kHz": [-25.96, -25.96],
    },
    4: {
        "spacings_um": [6.602, 6.104, 6.602],
        "modes_MHz": [2.692, 2.714, 2.732, 2.744],
        "local_kHz": [-15.45, -31.61, -31.61, -15.45],
    },
    8: {
        "spacings_um": [7.655, 6.496, 6.030, 5.940, 6.030, 6.496, 7.655],
        "modes_MHz": [2.689, 2.703, 2.716, 2.727, 2.737, 2.745, 2.751, 2.756],
        "local_kHz": [-10.55, -25.04, -35.46, -40.58,
                      -40.58, -35.46, -25.04, -10.55],
    },
    20: {
        "spacings_um": [7.290, 6.236, 5.594, 5.210, 4.960, 4.792, 4.672,
                        4.590, 4.561, 4.516, 4.561, 4.590, 4.672, 4.792,
                        4.960, 5.210, 5.594, 6.236, 7.290],
        "modes_MHz": [2.575, 2.589, 2.602, 2.615, 2.627, 2.639, 2.650,
                      2.661, 2.671, 2.681, 2.690, 2.698, 2.706, 2.713,
                      2.720, 2.726, 2.731, 2.735, 2.739, 2.742],
        "local_kHz": [-12.55, -29.37, -43.98, -57.54, -69.10, -78.58,
                      -86.18, -92.06, -95.63, -97.97, -97.97, -95.63,
                      -92.06, -86.18, -78.58, -69.10, -57.54, -43.98,
                      -29.37, -12.55],
    },
    32: {
        "spacings_um": [6.661, 5.859, 5.328, 4.920, 4.668, 4.471, 4.312,
                        4.195, 4.099, 4.049, 3.968, 3.929, 3.892, 3.868,
                        3.857, 3.867, 3.857, 3.868, 3.892, 3.929, 3.968,
                        4.049, 4.099, 4.195, 4.312, 4.471, 4.668, 4.920,
                        5.328, 5.859, 6.661],
        "modes_MHz": [2.603, 2.616, 2.630, 2.643, 2.656, 2.668, 2.680,
                      2.692, 2.704, 2.715, 2.726, 2.737, 2.747, 2.757,
                      2.767, 2.776, 2.785, 2.794, 2.802, 2.810, 2.817,
                      2.824, 2.831, 2.838, 2.843, 2.849, 2.854, 2.858,
                      2.862, 2.865, 2.868, 2.872],
        "local_kHz": [-15.59, -34.82, -49.71, -64.89, -79.19, -91.83,
                      -103.73, -114.42, -123.72, -130.87, -137.71,
                      -144.13, -148.63, -152.25, -154.39, -154.63,
                      -154.63, -154.39, -152.25, -148.63, -144.13,
                      -137.71, -130.87, -123.72, -114.42, -103.73,
                      -91.83, -79.19, -64.89, -49.71, -34.81, -15.59],
    },
}


@pytest.fixture
def chain_tables():
    return CHAIN_TABLES


@pytest.fixture
def config_dir():
    return CONFIG_DIR


def record_lanczos_steps(monkeypatch):
    """Log (vector length, matvecs, accepted) for every Lanczos step."""
    log = []
    step = propagator._lanczos_step

    def logged(matvec, v, *args, **kwargs):
        calls = [0]

        def counted(x):
            calls[0] += 1
            return matvec(x)

        result = step(counted, v, *args, **kwargs)
        log.append((v.size, calls[0], result[0] is not None))
        return result

    monkeypatch.setattr(propagator, "_lanczos_step", logged)
    return log


def scipy_csr(matrix):
    """A Hamiltonian's matrix as a scipy.sparse.csr_array on the same
    data, indices and indptr.

    A sector of at most SPAN_DIMENSION states is built as a NumpyCSR,
    which offers only the real product the propagator makes; the tests'
    references (toarray, complex products, expm_multiply) go through
    this.  A scipy CSR is wrapped alike.
    """
    import scipy.sparse

    return scipy.sparse.csr_array((matrix.data, matrix.indices, matrix.indptr),
                                  shape=matrix.shape)


def sampled_states(h, req, basis):
    """The states evolve samples, one row per time.

    One propagate_krylov call from prepare_initial_state through the
    sample times with time_scale=total_time, as evolve makes.
    """
    states = np.empty((req.samples, basis.dimension), dtype=complex)

    def keep(j, v):
        states[j] = v

    propagator.propagate_krylov(
        h, propagator.prepare_initial_state(basis, req.excited_ions),
        np.linspace(0.0, req.total_time, req.samples), req.krylov_tol,
        propagator.MAX_KRYLOV_DIM, time_scale=req.total_time, observe=keep,
    )
    return states


def dense_states(h, req, basis):
    """The exact states at req's sample times, one row per time.

    The reference every evolution test is held to: the dense
    eigendecomposition of h.matrix by np.linalg.eigh, which shares no
    code with the Krylov propagator.  Costs O(D^3), so keep D small.
    """
    v = propagator.prepare_initial_state(basis, req.excited_ions)
    times = np.linspace(0.0, req.total_time, req.samples)
    evals, evecs = np.linalg.eigh(scipy_csr(h.matrix).toarray())
    c = evecs.conj().T @ v
    return np.array([evecs @ (np.exp(-1j * evals * t) * c) for t in times])


def dense_sigma_z(h, req, basis):
    """Per-ion <sigma_z> of dense_states, shaped as TimeSeries.sigma_z."""
    return np.abs(dense_states(h, req, basis)) ** 2 @ basis.spin_signs()
