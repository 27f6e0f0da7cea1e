import numpy as np
import pytest

from jchsim.constants import khz
from jchsim.fock_basis import BasisState, enumerate_sector
from jchsim.hamiltonian import (
    JchParameters,
    build_hamiltonian,
    excitation_expectation,
    sigma_z_expectation,
)


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
        h = build_hamiltonian(params, basis).dense()
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
        dense = h.dense()

        def idx(spins, phonons):
            from jchsim.fock_basis import BasisState

            return basis.index_of(BasisState(spins=spins, phonons=phonons))

        i_ph1 = idx(0, (1, 0))
        i_ph2 = idx(0, (0, 1))
        i_up1 = idx(1, (0, 0))
        i_up2 = idx(2, (0, 0))
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
        dense = h.dense()
        assert np.count_nonzero(dense - np.diag(np.diag(dense))) == 0
        for j in range(len(basis)):
            state = basis.state_at(j)
            energy = 0.0
            for i in range(3):
                s = 1 if (state.spins >> i) & 1 else -1
                energy += 0.5 * params.detunings[i] * s
                energy += params.local_frequencies[i] * state.phonons[i]
            assert dense[j, j] == pytest.approx(energy, abs=1e-6)

    @pytest.mark.parametrize("n,m", [(3, 3), (4, 4), (6, 3), (32, 1)])
    def test_matches_per_state_assembly(self, n, m):
        rng = np.random.default_rng(100 * n + m)
        t = rng.standard_normal((n, n)) * khz(1)
        t = t + t.T
        np.fill_diagonal(t, 0.0)
        t[0, -1] = t[-1, 0] = 0.0
        params = JchParameters(
            detunings=rng.standard_normal(n) * khz(10),
            local_frequencies=rng.standard_normal(n) * khz(10),
            couplings=rng.standard_normal(n) * khz(5),
            hoppings=t,
        )
        basis = enumerate_sector(n, m)
        expected = np.zeros((len(basis), len(basis)))
        for col in range(len(basis)):
            state = basis.state_at(col)
            occ = list(state.phonons)
            for i in range(n):
                up = (state.spins >> i) & 1
                expected[col, col] += params.detunings[i] * (up - 0.5)
                expected[col, col] += params.local_frequencies[i] * occ[i]
                if up:
                    emitted = occ.copy()
                    emitted[i] += 1
                    row = basis.index_of(BasisState(state.spins - (1 << i), emitted))
                    value = params.couplings[i] * np.sqrt(occ[i] + 1)
                    expected[row, col] = expected[col, row] = value
                for j in range(n):
                    if j != i and occ[j] and t[i, j] != 0.0:
                        hopped = occ.copy()
                        hopped[i] += 1
                        hopped[j] -= 1
                        row = basis.index_of(BasisState(state.spins, hopped))
                        expected[row, col] = t[i, j] * np.sqrt((occ[i] + 1) * occ[j])
        dense = build_hamiltonian(params, basis).dense()
        assert np.array_equal(dense != 0.0, expected != 0.0)
        scale = np.abs(expected).max()
        assert np.abs(dense - expected).max() <= 1e-14 * scale

    def test_dimension_mismatch(self):
        basis = enumerate_sector(3, 1)
        params = uniform_params(2, khz(1), khz(1), khz(1), khz(1))
        with pytest.raises(ValueError):
            build_hamiltonian(params, basis)

    def test_sector_closure_structural(self):
        basis = enumerate_sector(3, 3)
        params = uniform_params(3, khz(5), khz(-3), khz(2), khz(1))
        h = build_hamiltonian(params, basis)
        coo = h.matrix.tocoo()
        for r, c in zip(coo.row, coo.col):
            assert basis.state_at(r).excitations() == basis.state_at(c).excitations()

    def test_row_nonzero_bound_matches_combinatorics(self):
        n, m = 4, 3
        basis = enumerate_sector(n, m)
        params = uniform_params(n, khz(5), khz(-3), khz(2), khz(1))
        h = build_hamiltonian(params, basis)
        per_row = np.diff(h.matrix.indptr)
        assert per_row.max() <= 1 + n + n * (n - 1)
        # count exact expected nonzeros per row from the coupling rules
        for j in range(len(basis)):
            state = basis.state_at(j)
            expected = 1  # diagonal
            for i in range(n):
                if (state.spins >> i) & 1:
                    expected += 1  # emit phonon
                elif state.phonons[i] > 0:
                    expected += 1  # absorb phonon
            for a in range(n):
                for b in range(n):
                    if a != b and state.phonons[b] > 0:
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
        diff = (h2.matrix - h.matrix).toarray()
        # shifting both detunings and mode frequencies by c adds
        # (c/2) sum(sigma_z) + c sum(n) = c (M - N/2) in the sector
        expected = c * (m - n / 2) * np.eye(len(basis))
        assert diff == pytest.approx(expected)


class TestApply:
    def test_zero_vector(self):
        basis = enumerate_sector(2, 2)
        params = uniform_params(2, khz(5), khz(-3), khz(2), khz(1))
        h = build_hamiltonian(params, basis)
        assert np.all(h.apply(np.zeros(len(basis), dtype=complex)) == 0)

    def test_quadratic_form_real(self):
        basis = enumerate_sector(3, 2)
        params = uniform_params(3, khz(5), khz(-3), khz(2), khz(1))
        h = build_hamiltonian(params, basis)
        for seed in range(5):
            v = random_state(len(basis), seed)
            q = np.vdot(v, h.apply(v))
            scale = np.abs(h.matrix).sum(axis=1).max()
            assert abs(q.imag) < 1e-12 * scale

    def test_hermiticity_random_vectors(self):
        basis = enumerate_sector(3, 3)
        params = uniform_params(3, khz(5), khz(-3), khz(2), khz(1))
        h = build_hamiltonian(params, basis)
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            v = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
            lhs = np.vdot(u, h.apply(v))
            rhs = np.vdot(h.apply(u), v)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_matches_dense_product(self):
        basis = enumerate_sector(4, 2)  # D = 32 <= 200
        params = uniform_params(4, khz(5), khz(-3), khz(2), khz(1))
        h = build_hamiltonian(params, basis)
        dense = h.dense()
        for seed in range(3):
            v = random_state(len(basis), seed)
            assert h.apply(v) == pytest.approx(dense @ v, rel=1e-12)

    def test_length_mismatch(self):
        basis = enumerate_sector(2, 1)
        params = uniform_params(2, khz(5), khz(-3), khz(2), khz(1))
        h = build_hamiltonian(params, basis)
        with pytest.raises(ValueError):
            h.apply(np.zeros(3))


class TestObservables:
    def test_all_up_product_state(self):
        from jchsim.propagator import prepare_initial_state

        basis = enumerate_sector(3, 3)
        v = prepare_initial_state(basis, [1, 2, 3])
        assert sigma_z_expectation(basis, v) == pytest.approx([1.0, 1.0, 1.0])

    def test_down_with_phonon(self):
        basis = enumerate_sector(1, 1)
        v = np.zeros(2, dtype=complex)
        v[0] = 1.0  # |down;1>
        assert sigma_z_expectation(basis, v) == pytest.approx([-1.0])

    def test_equal_superposition(self):
        basis = enumerate_sector(1, 1)
        v = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        assert sigma_z_expectation(basis, v) == pytest.approx([0.0], abs=1e-15)

    def test_rejects_unnormalized(self):
        basis = enumerate_sector(1, 1)
        with pytest.raises(ValueError):
            sigma_z_expectation(basis, np.array([1.0, 1.0]))

    def test_excitation_is_sector_constant(self):
        basis = enumerate_sector(3, 2)
        for seed in range(5):
            v = random_state(len(basis), seed)
            assert excitation_expectation(basis, v) == pytest.approx(2.0, abs=1e-10)

    def test_excitation_on_basis_state(self):
        basis = enumerate_sector(4, 3)
        v = np.zeros(len(basis), dtype=complex)
        v[5] = 1.0
        assert excitation_expectation(basis, v) == pytest.approx(3.0, abs=1e-12)


def test_coordinate_text_export(tmp_path):
    basis = enumerate_sector(2, 1)
    params = uniform_params(2, khz(5), khz(-3), khz(2), khz(1))
    h = build_hamiltonian(params, basis)
    path = tmp_path / "h.txt"
    h.to_coordinate_text(str(path))
    rebuilt = np.zeros((4, 4))
    for line in path.read_text().splitlines():
        r, c, v = line.split()
        rebuilt[int(r), int(c)] = float(v)
    assert rebuilt == pytest.approx(h.dense())
