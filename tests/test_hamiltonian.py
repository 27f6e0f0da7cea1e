import os
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

from jchsim import hamiltonian
from jchsim.constants import khz
from jchsim.experiment import parse_config, resolve_model, with_detuning
from jchsim.fock_basis import enumerate_sector, sector_dimension
from jchsim.hamiltonian import (
    JchParameters,
    NumpyCSR,
    build_hamiltonian,
    mirror_asymmetry,
    norm_bound,
)
from jchsim.propagator import SPAN_DIMENSION, EvolutionRequest, evolve

from conftest import CONFIG_DIR, scipy_csr


def uniform_params(n, delta, omega, g, t_nn, decay=True):
    """Chain parameters with 1/|i-j|^3 hopping falloff."""
    t = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                t[i, j] = t_nn / abs(i - j) ** 3 if decay else t_nn
    return JchParameters(
        detunings=np.full(n, delta),
        local_frequencies=np.full(n, omega),
        couplings=np.full(n, g),
        hoppings=t,
    )


def random_params(n, seed):
    """Seeded random chain parameters; ions 1 and N do not hop."""
    rng = np.random.default_rng(seed)
    t = rng.standard_normal((n, n)) * khz(1)
    t = t + t.T
    np.fill_diagonal(t, 0.0)
    t[0, -1] = t[-1, 0] = 0.0
    return JchParameters(
        detunings=rng.standard_normal(n) * khz(10),
        local_frequencies=rng.standard_normal(n) * khz(10),
        couplings=rng.standard_normal(n) * khz(5),
        hoppings=t,
    )


def mirror_symmetric_params(n, seed):
    """random_params averaged with their mirror image, exactly symmetric."""
    p = random_params(n, seed)
    flip = np.arange(n)[::-1]
    return JchParameters(
        detunings=0.5 * (p.detunings + p.detunings[flip]),
        local_frequencies=0.5 * (p.local_frequencies + p.local_frequencies[flip]),
        couplings=0.5 * (p.couplings + p.couplings[flip]),
        hoppings=0.5 * (p.hoppings + p.hoppings[np.ix_(flip, flip)]),
    )


def mirror_matrices(basis):
    """Dense reversal permutation P and even-orbit isometry Q of a sector,
    from the enumerated rows; Q's columns follow the smaller index."""
    index = state_index(basis)
    dim = len(basis)
    perm = np.zeros((dim, dim))
    for (ups, occ), j in index.items():
        perm[index[ups[::-1], occ[::-1]], j] = 1.0
    columns = []
    for j in range(dim):
        k = int(np.argmax(perm[:, j]))
        if j <= k:
            e = np.zeros(dim)
            e[j] = e[k] = 1.0
            columns.append(e / np.linalg.norm(e))
    return perm, np.array(columns).T


def state_index(basis):
    """{(spin flags, occupations): position}, read off the enumerated rows."""
    return {
        (tuple(ups), tuple(occ)): j
        for j, (ups, occ) in enumerate(zip(basis.spins.tolist(),
                                           basis.occupations.tolist()))
    }


def per_state_matrix(params, basis):
    """Dense H on a full sector, assembled state by state from the terms."""
    n, t = params.n_ions, params.hoppings
    index = state_index(basis)
    expected = np.zeros((len(basis), len(basis)))
    for (ups, occ), col in index.items():
        for i in range(n):
            up = ups[i]
            expected[col, col] += params.detunings[i] * (up - 0.5)
            expected[col, col] += params.local_frequencies[i] * occ[i]
            if up:
                down = list(ups)
                down[i] = False
                emitted = list(occ)
                emitted[i] += 1
                row = index[tuple(down), tuple(emitted)]
                value = params.couplings[i] * np.sqrt(occ[i] + 1)
                expected[row, col] = expected[col, row] = value
            for j in range(n):
                if j != i and occ[j] and t[i, j] != 0.0:
                    hopped = list(occ)
                    hopped[i] += 1
                    hopped[j] -= 1
                    row = index[ups, tuple(hopped)]
                    expected[row, col] = t[i, j] * np.sqrt((occ[i] + 1) * occ[j])
    return expected


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestBuildHamiltonian:
    def test_single_site_jaynes_cummings(self):
        basis = enumerate_sector(1, 1)
        delta = khz(20.0)
        g = khz(5.0)
        params = JchParameters([delta], [delta], [g], [[0.0]])
        h = scipy_csr(build_hamiltonian(params, basis).matrix).toarray()
        # ordering: |down;1> then |up;0>
        expected = np.array([[delta - delta / 2, g], [g, delta / 2]])
        assert h == pytest.approx(expected)
        evals = np.linalg.eigvalsh(h)
        assert evals[1] - evals[0] == pytest.approx(2 * g)

    def test_two_site_one_excitation_structure(self):
        basis = enumerate_sector(2, 1)
        g1, g2, t12 = khz(3.0), khz(4.0), khz(1.5)
        params = JchParameters(
            detunings=[khz(10), khz(10)],
            local_frequencies=[khz(-2), khz(-2)],
            couplings=[g1, g2],
            hoppings=[[0, t12], [t12, 0]],
        )
        h = build_hamiltonian(params, basis)
        dense = scipy_csr(h.matrix).toarray()
        index = state_index(basis)
        i_ph1 = index[(False, False), (1, 0)]
        i_ph2 = index[(False, False), (0, 1)]
        i_up1 = index[(True, False), (0, 0)]
        i_up2 = index[(False, True), (0, 0)]
        assert dense[i_up1, i_ph1] == pytest.approx(g1)
        assert dense[i_up2, i_ph2] == pytest.approx(g2)
        assert dense[i_ph1, i_ph2] == pytest.approx(t12)
        # no other off-diagonal couplings
        assert dense[i_up1, i_ph2] == 0
        assert dense[i_up2, i_ph1] == 0
        assert dense[i_up1, i_up2] == 0

    def test_decoupled_is_diagonal(self):
        basis = enumerate_sector(3, 2)
        params = JchParameters(
            detunings=[khz(7), khz(8), khz(9)],
            local_frequencies=[khz(1), khz(2), khz(3)],
            couplings=[0.0, 0.0, 0.0],
            hoppings=np.zeros((3, 3)),
        )
        h = build_hamiltonian(params, basis)
        dense = scipy_csr(h.matrix).toarray()
        assert np.count_nonzero(dense - np.diag(np.diag(dense))) == 0
        for j in range(len(basis)):
            energy = 0.0
            for i in range(3):
                s = 1 if basis.spins[j, i] else -1
                energy += 0.5 * params.detunings[i] * s
                energy += params.local_frequencies[i] * basis.occupations[j, i]
            assert dense[j, j] == pytest.approx(energy, abs=1e-6)

    # (32, 2) ranks batches that span many hopping blocks, so a source row
    # repeats within one indices() call.
    @pytest.mark.parametrize("n,m", [(3, 3), (4, 4), (6, 3), (32, 1), (32, 2)])
    def test_matches_per_state_assembly(self, n, m):
        params = random_params(n, 100 * n + m)
        basis = enumerate_sector(n, m)
        expected = per_state_matrix(params, basis)
        dense = scipy_csr(build_hamiltonian(params, basis).matrix).toarray()
        assert np.array_equal(dense != 0.0, expected != 0.0)
        scale = np.abs(expected).max()
        assert np.abs(dense - expected).max() <= 1e-14 * scale

    @pytest.mark.parametrize("mirror_even", [False, True])
    @pytest.mark.parametrize("n,m", [(3, 3), (4, 4), (5, 3), (6, 6), (7, 2), (32, 2)])
    def test_lowering_moves_rank_below_their_source(self, n, m, mirror_even):
        # The builder generates only raising moves.  That loses no entry of
        # the upper triangle or of the diagonal only if every lowering move
        # (spin flip down with emission, phonon hop j -> i for i < j) out of
        # a representative lands in a strictly lower orbit.
        basis = enumerate_sector(n, m, mirror_even=mirror_even)
        spins, occ = basis.spins, basis.occupations
        moves = 0
        for i in range(n):
            src = np.flatnonzero(spins[:, i])
            down, emitted = spins[src], occ[src]
            down[:, i] = False
            emitted[:, i] += 1
            assert np.all(basis.indices(down, emitted) < src)
            moves += len(src)
            for j in range(i + 1, n):
                src = np.flatnonzero(occ[:, j])
                hopped = occ[src]
                hopped[:, i] += 1
                hopped[:, j] -= 1
                assert np.all(basis.indices(spins[src], hopped) < src)
                moves += len(src)
        assert moves > 0

    def test_build_peak_memory_and_canonical_csr(self):
        # tracemalloc counts this process's allocations, so the ratio does
        # not depend on machine load.  The bound lies between one COO -> CSR
        # conversion (about 2.4x the final CSR) and summing the COO, its
        # transpose and the diagonal as sparse matrices (3.4x).
        params = random_params(6, 66)
        basis = enumerate_sector(6, 6)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            h = build_hamiltonian(params, basis).matrix
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        csr = h.data.nbytes + h.indices.nbytes + h.indptr.nbytes
        assert basis.dimension == 5336
        assert peak <= 2.75 * csr
        assert h.has_canonical_format
        assert h.indices.dtype == h.indptr.dtype == np.int32
        assert np.all(h.data != 0.0)

    def test_dimension_mismatch(self):
        basis = enumerate_sector(3, 1)
        params = uniform_params(2, khz(1), khz(1), khz(1), khz(1))
        with pytest.raises(ValueError):
            build_hamiltonian(params, basis)

    def test_sector_closure_structural(self):
        basis = enumerate_sector(3, 3)
        params = uniform_params(3, khz(5), khz(-3), khz(2), khz(1))
        h = build_hamiltonian(params, basis)
        coo = scipy_csr(h.matrix).tocoo()
        excitations = basis.spins.sum(axis=1) + basis.occupations.sum(axis=1)
        for r, c in zip(coo.row, coo.col):
            assert excitations[r] == excitations[c]

    def test_row_nonzero_bound_matches_combinatorics(self):
        n, m = 4, 3
        basis = enumerate_sector(n, m)
        params = uniform_params(n, khz(5), khz(-3), khz(2), khz(1))
        h = build_hamiltonian(params, basis)
        per_row = np.diff(h.matrix.indptr)
        assert per_row.max() <= 1 + n + n * (n - 1)
        # count exact expected nonzeros per row from the coupling rules
        for j in range(len(basis)):
            ups, phonons = basis.spins[j], basis.occupations[j]
            expected = 1  # diagonal
            for i in range(n):
                if ups[i]:
                    expected += 1  # emit phonon
                elif phonons[i] > 0:
                    expected += 1  # absorb phonon
            for a in range(n):
                for b in range(n):
                    if a != b and phonons[b] > 0:
                        expected += 1
            assert per_row[j] == expected

    def test_u1_gauge_shift(self):
        n, m = 3, 2
        basis = enumerate_sector(n, m)
        params = uniform_params(n, khz(5), khz(-3), khz(2), khz(1))
        h = build_hamiltonian(params, basis)
        c = khz(11.0)
        shifted = JchParameters(
            detunings=params.detunings + c,
            local_frequencies=params.local_frequencies + c,
            couplings=params.couplings,
            hoppings=params.hoppings,
        )
        h2 = build_hamiltonian(shifted, basis)
        diff = (scipy_csr(h2.matrix) - scipy_csr(h.matrix)).toarray()
        # shifting both detunings and mode frequencies by c adds
        # (c/2) sum(sigma_z) + c sum(n) = c (M - N/2) in the sector
        expected = c * (m - n / 2) * np.eye(len(basis))
        assert diff == pytest.approx(expected)


class TestApply:
    def test_zero_vector(self):
        basis = enumerate_sector(2, 2)
        params = uniform_params(2, khz(5), khz(-3), khz(2), khz(1))
        h = build_hamiltonian(params, basis)
        assert np.all(scipy_csr(h.matrix) @ np.zeros(len(basis), dtype=complex) == 0)

    def test_quadratic_form_real(self):
        basis = enumerate_sector(3, 2)
        params = uniform_params(3, khz(5), khz(-3), khz(2), khz(1))
        h = build_hamiltonian(params, basis)
        for seed in range(5):
            v = random_state(len(basis), seed)
            q = np.vdot(v, scipy_csr(h.matrix) @ v)
            scale = np.abs(scipy_csr(h.matrix)).sum(axis=1).max()
            assert abs(q.imag) < 1e-12 * scale

    def test_hermiticity_random_vectors(self):
        basis = enumerate_sector(3, 3)
        params = uniform_params(3, khz(5), khz(-3), khz(2), khz(1))
        h = build_hamiltonian(params, basis)
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            v = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            lhs = np.vdot(u, scipy_csr(h.matrix) @ v)
            rhs = np.vdot(scipy_csr(h.matrix) @ u, v)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_matches_dense_product(self):
        basis = enumerate_sector(4, 2)  # D = 32 <= 200
        params = uniform_params(4, khz(5), khz(-3), khz(2), khz(1))
        h = build_hamiltonian(params, basis)
        dense = scipy_csr(h.matrix).toarray()
        for seed in range(3):
            v = random_state(len(basis), seed)
            assert scipy_csr(h.matrix) @ v == pytest.approx(dense @ v, rel=1e-12)


def bits(x):
    return x.dtype, x.tobytes()


def small_sector_configs():
    """Shipped configs with a sector, full or mirror-even, of at most
    SPAN_DIMENSION states: an even sector holds at least half the full
    one's."""
    names = []
    for name in sorted(os.listdir(CONFIG_DIR)):
        if name.endswith(".cfg"):
            cfg = parse_config(os.path.join(CONFIG_DIR, name))
            if sector_dimension(cfg.n_ions, cfg.excitations) <= 2 * SPAN_DIMENSION:
                names.append(name)
    return names


class TestNumpyCSR:
    """A sector of at most SPAN_DIMENSION states is built as a NumpyCSR,
    which must equal, bit for bit, the scipy CSR built above it."""

    @staticmethod
    def assert_bitwise_equal(got, want, rng):
        assert isinstance(got, NumpyCSR)
        assert isinstance(want, scipy.sparse.csr_matrix)
        assert got.shape == want.shape and got.nnz == want.nnz
        for name in ("data", "indices", "indptr"):
            assert bits(getattr(got, name)) == bits(getattr(want, name)), name
        # a real vector, and the strided halves of a complex one, as
        # propagate_krylov's matvec splits it
        z = rng.standard_normal(got.shape[0]) + 1j * rng.standard_normal(got.shape[0])
        for x in (rng.standard_normal(got.shape[0]), z.real, z.imag):
            assert bits(got @ x) == bits(want @ x)

    def test_from_triplets_sums_repeats_and_drops_zeros(self):
        rng = np.random.default_rng(5)
        dim = 50
        pairs = rng.choice(dim * dim, 300, replace=False).astype(np.int32)
        r, c = pairs // dim, pairs % dim
        v = rng.standard_normal(300)
        # each repeat of a (row, col) pair has two terms, some summing to 0
        r, c = np.r_[r, r[:100]], np.r_[c, c[:100]]
        v = np.r_[v, rng.standard_normal(50), -v[50:100]]
        got = NumpyCSR.from_triplets(dim, r, c, v)
        want = scipy.sparse.csr_matrix((v, (r, c)), shape=(dim, dim))
        want.eliminate_zeros()
        assert want.nnz == 250
        self.assert_bitwise_equal(got, want, rng)

    @pytest.mark.parametrize("name", small_sector_configs())
    def test_shipped_sectors_match_scipy_build(self, name, monkeypatch):
        cfg = parse_config(os.path.join(CONFIG_DIR, name))
        model = resolve_model(cfg)
        rng = np.random.default_rng(0)
        sectors = 0
        for even in (False, True):
            basis = enumerate_sector(cfg.n_ions, cfg.excitations, mirror_even=even)
            if basis.dimension > SPAN_DIMENSION:
                continue
            sectors += 1
            for delta in cfg.delta_scan_khz or [cfg.delta_khz]:
                params = with_detuning(model, delta)
                got = build_hamiltonian(params, basis).matrix
                # the scipy CSR of the same triplets: csr_matrix((v, (r, c)))
                with monkeypatch.context() as m:
                    m.setattr(hamiltonian, "SPAN_DIMENSION", 0)
                    want = build_hamiltonian(params, basis).matrix
                self.assert_bitwise_equal(got, want, rng)
        assert sectors


class TestObservables:
    # evolve's sigma_z and excitation readouts on known states: t = 0, and
    # the resonant single-ion Rabi cycle |up;0> -> |down;1> at g t = pi/2.
    @staticmethod
    def rabi_quarters():
        """sigma_z at g t = 0, pi/4, pi/2, 3 pi/4, pi for one resonant ion."""
        basis = enumerate_sector(1, 1)
        g = khz(5.0)
        h = build_hamiltonian(JchParameters([0.0], [0.0], [g], [[0.0]]), basis)
        req = EvolutionRequest(total_time=np.pi / g, samples=5, excited_ions=[1])
        return evolve(h, req, basis).sigma_z

    def test_all_up_product_state(self):
        basis = enumerate_sector(3, 3)
        h = build_hamiltonian(uniform_params(3, khz(-5), khz(2), khz(3), khz(1)), basis)
        req = EvolutionRequest(total_time=1e-4, samples=2, excited_ions=[1, 2, 3])
        assert evolve(h, req, basis).sigma_z[0] == pytest.approx([1.0, 1.0, 1.0])

    def test_down_with_phonon(self):
        assert self.rabi_quarters()[2] == pytest.approx([-1.0])  # |down;1>

    def test_equal_superposition(self):
        assert self.rabi_quarters()[1] == pytest.approx([0.0], abs=1e-15)

    def test_excitation_is_sector_constant(self):
        basis = enumerate_sector(3, 2)
        req = EvolutionRequest(total_time=1e-3, samples=11, excited_ions=[1, 2])
        for seed in range(5):
            h = build_hamiltonian(random_params(3, seed), basis)
            drift = evolve(h, req, basis).excitation_drift
            assert drift == pytest.approx(np.zeros(11), abs=1e-10)

    def test_excitation_on_basis_state(self):
        basis = enumerate_sector(4, 3)
        h = build_hamiltonian(uniform_params(4, khz(-5), khz(2), khz(3), khz(1)), basis)
        req = EvolutionRequest(total_time=1e-4, samples=2, excited_ions=[1, 2, 3])
        drift = evolve(h, req, basis).excitation_drift[0]
        assert drift == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 2), (4, 4), (5, 3)])
def test_norm_bound_bounds_norm_of_h(n, m):
    params = random_params(n, 13 * n + m)
    norm = np.linalg.norm(per_state_matrix(params, enumerate_sector(n, m)), 2)
    bound = norm_bound(params, m)
    assert norm <= bound * (1 + 1e-12)
    assert bound <= 20 * norm  # a bound, but not a vacuous one


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_norm_bound_overflows_to_inf():
    assert norm_bound(uniform_params(3, 1e308, 0.0, 1.0, 1.0), 3) == np.inf


class TestMirrorEven:
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 4), (5, 3)])
    def test_even_matrix_is_projected_full_matrix(self, n, m):
        params = mirror_symmetric_params(n, 7 * n + m)
        full = enumerate_sector(n, m)
        perm, q = mirror_matrices(full)
        h = per_state_matrix(params, full)
        scale = np.abs(h).max()
        # equal up to the order in which the diagonal sums the ions
        assert np.abs(perm @ h @ perm.T - h).max() <= 1e-15 * scale
        expected = q.T @ h @ q
        even = build_hamiltonian(params, enumerate_sector(n, m, mirror_even=True))
        got = scipy_csr(even.matrix).toarray()
        assert np.abs(got - expected).max() <= 1e-14 * scale
        assert np.array_equal(got, got.T)  # bitwise symmetric
        assert scipy_csr(even.matrix).has_canonical_format
        assert np.all(even.matrix.data != 0.0)

    def test_asymmetric_parameters_are_symmetrized(self):
        params = random_params(4, 3)
        full = enumerate_sector(4, 3)
        perm, q = mirror_matrices(full)
        h = per_state_matrix(params, full)
        expected = q.T @ (0.5 * (h + perm @ h @ perm.T)) @ q
        got = scipy_csr(build_hamiltonian(
            params, enumerate_sector(4, 3, mirror_even=True)).matrix).toarray()
        assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()
        assert np.array_equal(got, got.T)

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 2), (4, 4), (5, 3)])
    def test_asymmetry_bounds_norm_of_h_minus_php(self, n, m):
        params = random_params(n, 11 * n + m)
        full = enumerate_sector(n, m)
        perm, _ = mirror_matrices(full)
        h = per_state_matrix(params, full)
        norm = np.linalg.norm(h - perm @ h @ perm.T, 2)
        bound = mirror_asymmetry(params, m)
        assert norm <= bound * (1 + 1e-12)
        assert bound <= 20 * norm  # a bound, but not a vacuous one
        assert mirror_asymmetry(mirror_symmetric_params(n, 1), m) == 0.0

    def test_even_build_peak_memory(self):
        # The even CSR is built from the representatives alone: the build's
        # peak stays within the full build's bound for the even CSR, about
        # 1.2x the full CSR, which is therefore never held.
        params = random_params(6, 66)
        full = build_hamiltonian(params, enumerate_sector(6, 6)).matrix
        basis = enumerate_sector(6, 6, mirror_even=True)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            h = build_hamiltonian(params, basis).matrix
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        csr = h.data.nbytes + h.indices.nbytes + h.indptr.nbytes
        full_csr = full.data.nbytes + full.indices.nbytes + full.indptr.nbytes
        assert basis.dimension == 2687
        assert peak <= 2.75 * csr < 1.5 * full_csr
        assert h.indices.dtype == h.indptr.dtype == np.int32
