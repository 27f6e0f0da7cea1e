"""The benchmark wraps jchsim functions by module and name; they must exist.

bench/launch.py patches the names listed in its TRACED and SETUP_BOUNDARY
tables, and wraps propagator._lanczos_step and propagate_krylov to count
matvecs; it reads the CSR arrays of each built Hamiltonian's matrix.
bench/checks.py wraps its own scipy CSR matrix in SparseHamiltonian and
calls propagate_krylov positionally.  A refactor that moves or reshapes
one of them would otherwise only fail in a benchmark run.
"""

import importlib
import os
import types

import numpy as np
import pytest
import scipy.linalg

from conftest import scipy_csr

LAUNCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "launch.py"
)


@pytest.fixture(scope="module")
def launch():
    # Executing the source runs only the module body (tables and
    # definitions): main() sits behind the __main__ guard, and no bytecode
    # cache is written next to the benchmark.
    module = types.ModuleType("bench_launch")
    with open(LAUNCH) as fh:
        exec(compile(fh.read(), LAUNCH, "exec"), module.__dict__)
    return module


def test_hook_tables_are_not_empty(launch):
    assert launch.TRACED and launch.SETUP_BOUNDARY


def test_every_hook_resolves(launch):
    hooks = [(m, a) for m, a, _ in launch.TRACED] + list(launch.SETUP_BOUNDARY)
    for module_name, attr in hooks:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_matvec_counter_targets_exist():
    propagator = importlib.import_module("jchsim.propagator")
    assert callable(propagator._lanczos_step)
    assert callable(propagator.propagate_krylov)


def test_checks_krylov_call_runs():
    # The call bench/checks.py makes: a bare CSR matrix, no params or basis.
    from jchsim.constants import khz
    from jchsim.fock_basis import enumerate_sector
    from jchsim.hamiltonian import JchParameters, SparseHamiltonian, build_hamiltonian
    from jchsim.propagator import propagate_krylov

    hop = khz(-4.0) * (np.ones((3, 3)) - np.eye(3))
    params = JchParameters(
        detunings=np.full(3, khz(-20.0)),
        local_frequencies=khz(np.array([-10.0, -25.0, -10.0])),
        couplings=np.full(3, khz(11.5)),
        hoppings=hop,
    )
    basis = enumerate_sector(3, 2)
    matrix = scipy_csr(build_hamiltonian(params, basis).matrix)
    v0 = np.zeros(basis.dimension, dtype=complex)
    v0[0] = 1.0
    v = propagate_krylov(SparseHamiltonian(matrix, None, None), v0, 6e-6, 1e-9, 40,
                         time_scale=30e-6)
    assert v.shape == (basis.dimension,)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)
    exact = scipy.linalg.expm(-6e-6j * matrix.toarray()) @ v0
    assert np.max(np.abs(v - exact)) < 1e-8


@pytest.mark.parametrize("n", [4, 6], ids=["numpy-csr", "scipy-csr"])
def test_built_matrix_exposes_what_launch_reads(n):
    # launch._observe reads nnz and the bytes of the three CSR arrays off
    # every built matrix, and _count_matvecs its row count, on either side
    # of SPAN_DIMENSION: the even N = M = 4 and 6 sectors hold 100 and
    # 2,687 states.
    from jchsim.constants import khz
    from jchsim.fock_basis import enumerate_sector
    from jchsim.hamiltonian import JchParameters, build_hamiltonian
    from jchsim.propagator import SPAN_DIMENSION

    params = JchParameters(
        detunings=np.full(n, khz(-20.0)),
        local_frequencies=np.full(n, khz(-10.0)),
        couplings=np.full(n, khz(11.5)),
        hoppings=khz(-4.0) * (np.ones((n, n)) - np.eye(n)),
    )
    basis = enumerate_sector(n, n, mirror_even=True)
    assert (basis.dimension <= SPAN_DIMENSION) == (n == 4)
    matrix = build_hamiltonian(params, basis).matrix
    reference = scipy_csr(matrix)
    assert matrix.shape == (basis.dimension, basis.dimension)
    assert matrix.nnz == reference.nnz == len(matrix.data) > basis.dimension
    csr = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    assert csr == 12 * matrix.nnz + 4 * (basis.dimension + 1)
