import types

import numpy as np
import pytest
import scipy.linalg

from jchsim import propagator
from jchsim.constants import khz, mhz
from jchsim.fock_basis import enumerate_sector
from jchsim.hamiltonian import JchParameters, build_hamiltonian
from jchsim.ion_chain import (
    ChainGeometry,
    anchor_transverse_frequency,
    interaction_picture_shift,
    mode_parameters,
)
from jchsim.propagator import (
    MAX_KRYLOV_DIM,
    SPAN_DIMENSION,
    EvolutionRequest,
    _from_basis,
    _lanczos_step,
    _tridiag_expm_col,
    evolve,
    prepare_initial_state,
    propagate_krylov,
)

from conftest import dense_sigma_z, dense_states, sampled_states, scipy_csr


def single_site(g, delta, omega):
    basis = enumerate_sector(1, 1)
    params = JchParameters([delta], [omega], [g], [[0.0]])
    return basis, build_hamiltonian(params, basis)


def fig2a_model():
    """Two-ion chain at the shipped fig2a parameters."""
    geo = ChainGeometry.from_spacings([5.280e-6])
    wx = anchor_transverse_frequency(geo, mhz(2.718))
    modes = interaction_picture_shift(
        mode_parameters(wx, geo), wx
    )
    params = JchParameters(
        detunings=np.full(2, khz(-60.0)),
        local_frequencies=modes.corrected_local,
        couplings=np.full(2, khz(11.6)),
        hoppings=modes.corrected_hopping,
    )
    basis = enumerate_sector(2, 2)
    return basis, build_hamiltonian(params, basis)


def band_edge_model():
    """Four ions, four excitations, detuned to the phonon band edge."""
    geo = ChainGeometry.from_spacings([6.602e-6, 6.104e-6, 6.602e-6])
    wx = anchor_transverse_frequency(geo, mhz(2.744))
    modes = interaction_picture_shift(
        mode_parameters(wx, geo), wx
    )
    params = JchParameters(
        detunings=np.full(4, khz(-15.0)),
        local_frequencies=modes.corrected_local,
        couplings=np.full(4, khz(12.9)),
        hoppings=modes.corrected_hopping,
    )
    basis = enumerate_sector(4, 4)
    return basis, build_hamiltonian(params, basis)


class TestPrepareInitialState:
    def test_single_ion(self):
        basis = enumerate_sector(1, 1)
        v = prepare_initial_state(basis, [1])
        j = int(np.argmax(np.abs(v)))
        assert basis.spins[j].tolist() == [True]
        assert basis.occupations[j].tolist() == [0]

    def test_two_edge_ions_of_twenty(self):
        basis = enumerate_sector(20, 2)
        v = prepare_initial_state(basis, [1, 2])
        assert np.linalg.norm(v) == pytest.approx(1.0)
        j = int(np.argmax(np.abs(v)))
        assert np.flatnonzero(basis.spins[j]).tolist() == [0, 1]
        assert all(n == 0 for n in basis.occupations[j])

    def test_duplicate_index_rejected(self):
        basis = enumerate_sector(2, 2)
        with pytest.raises(ValueError):
            prepare_initial_state(basis, [1, 1])

    def test_count_mismatch_rejected(self):
        basis = enumerate_sector(3, 2)
        with pytest.raises(ValueError):
            prepare_initial_state(basis, [1])


class TestAnalyticRabi:
    @pytest.mark.parametrize(
        "g_khz,delta_khz",
        [(10.0, 0.0), (10.0, 15.0), (4.0, -22.0)],
    )
    def test_detuned_rabi_formula(self, g_khz, delta_khz):
        g = khz(g_khz)
        omega = khz(-3.0)
        delta = omega + khz(delta_khz)  # spin-phonon detuning = delta - omega
        basis, h = single_site(g, delta, omega)
        req = EvolutionRequest(total_time=1e-3, samples=301, excited_ions=[1])
        series = evolve(h, req, basis)
        d = khz(delta_khz)
        rabi_sq = g**2 + d**2 / 4.0
        expected = 1.0 - (2.0 * g**2 / rabi_sq) * np.sin(
            np.sqrt(rabi_sq) * series.times
        ) ** 2
        assert np.max(np.abs(series.sigma_z[:, 0] - expected)) < 1e-10

    def test_resonant_is_cosine(self):
        g = khz(7.0)
        basis, h = single_site(g, khz(2.0), khz(2.0))
        req = EvolutionRequest(total_time=5e-4, samples=101, excited_ions=[1])
        series = evolve(h, req, basis)
        assert series.sigma_z[:, 0] == pytest.approx(
            np.cos(2 * g * series.times), abs=1e-10
        )


class TestEvolve:
    def test_zero_coupling_spins_frozen(self):
        basis = enumerate_sector(3, 3)
        params = JchParameters(
            detunings=[khz(5)] * 3,
            local_frequencies=[khz(-10), khz(-20), khz(-30)],
            couplings=[0.0, 0.0, 0.0],
            hoppings=khz(1.0) * (np.ones((3, 3)) - np.eye(3)),
        )
        h = build_hamiltonian(params, basis)
        req = EvolutionRequest(total_time=1e-3, samples=41, excited_ions=[1, 2, 3])
        series = evolve(h, req, basis)
        assert np.allclose(series.sigma_z, 1.0, atol=1e-12)

    def test_krylov_matches_dense_oracle_fig2a(self):
        basis, h = fig2a_model()
        req = EvolutionRequest(total_time=5e-4, samples=101, excited_ions=[1, 2])
        krylov = sampled_states(h, req, basis)
        assert np.max(np.abs(krylov - dense_states(h, req, basis))) < 1e-8

    def test_conservation_suite(self):
        # four ions, every spin initially excited, band-edge detuning
        basis, h = band_edge_model()
        req = EvolutionRequest(
            total_time=1e-3, samples=51, excited_ions=[1, 2, 3, 4],
        )
        series = evolve(h, req, basis)
        assert series.norm_drift.max() < 1e-9
        assert series.excitation_drift.max() < 1e-9
        energies = [
            np.real(np.vdot(v, scipy_csr(h.matrix) @ v))
            for v in sampled_states(h, req, basis)
        ]
        e0 = energies[0]
        assert np.max(np.abs(np.array(energies) - e0)) < 1e-8 * abs(e0)

    def test_time_reversal(self):
        basis, h = fig2a_model()
        v0 = prepare_initial_state(basis, [1, 2])
        forward = propagate_krylov(h, v0, 1e-3, 1e-9, 40)
        # exp(+iHt) w = conj(exp(-iHt) conj(w))
        back = np.conj(propagate_krylov(h, np.conj(forward), 1e-3, 1e-9, 40))
        assert np.max(np.abs(back - v0)) < 1e-7

    @pytest.mark.parametrize("t", [3e-4, -3e-4])
    def test_krylov_reads_only_the_matrix(self, t):
        basis, h = band_edge_model()
        v0 = prepare_initial_state(basis, [1, 2, 3, 4])
        bare = types.SimpleNamespace(matrix=h.matrix)
        got = propagate_krylov(bare, v0, t, 1e-9, MAX_KRYLOV_DIM)
        exact = scipy.linalg.expm(-1j * t * scipy_csr(h.matrix).toarray()) @ v0
        assert np.max(np.abs(got - exact)) < 1e-8

    def test_step_halving_convergence(self):
        basis, h = fig2a_model()
        kw = dict(excited_ions=[1, 2], krylov_tol=1e-9)
        coarse = evolve(
            h, EvolutionRequest(total_time=4e-4, samples=21, **kw), basis
        )
        fine = evolve(
            h, EvolutionRequest(total_time=4e-4, samples=41, **kw), basis
        )
        assert np.max(np.abs(fine.sigma_z[::2] - coarse.sigma_z)) < 1e-9

    def test_norm_drift_two_ms(self):
        basis, h = band_edge_model()
        req = EvolutionRequest(total_time=2e-3, samples=41,
                               excited_ions=[1, 2, 3, 4])
        series = evolve(h, req, basis)
        assert series.norm_drift.max() < 1e-9

    def test_sigma_z_bounds(self):
        basis, h = fig2a_model()
        req = EvolutionRequest(total_time=1e-3, samples=101, excited_ions=[1, 2])
        series = evolve(h, req, basis)
        assert np.all(np.abs(series.sigma_z) <= 1.0 + 1e-8)


def plain_matvec(h):
    """The operator propagate_krylov exponentiates: H itself."""
    matrix = scipy_csr(h.matrix)
    return lambda x: matrix @ x


def unscreened_estimates(matvec, v, dt, m_max):
    """Error estimates of one full-length Lanczos run, without the screen.

    Entry k is |dt| * beta_{k+1} * |exp(-i dt T_k)[k, 0]| for k >= 1 and
    inf for k = 0, which is never checked.  At breakdown the entry is 0.0
    and the list ends there.
    """
    basis = [v / np.linalg.norm(v)]
    alphas, betas, ests = [], [], []
    for k in range(m_max):
        w = matvec(basis[k])
        if k > 0:
            w = w - betas[-1] * basis[k - 1]
        alphas.append(np.vdot(basis[k], w).real)
        w = w - alphas[-1] * basis[k]
        q = np.array(basis)
        w = w - q.T @ (q.conj() @ w)
        beta = np.linalg.norm(w)
        if beta < 1e-13 * max(1.0, np.max(np.abs(alphas))):
            return ests + [0.0]
        t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
        u_last = scipy.linalg.expm(-1j * dt * t)[-1, 0]
        ests.append(abs(dt) * beta * abs(u_last) if k > 0 else np.inf)
        betas.append(beta)
        basis.append(w / beta)
    return ests


def counting(matvec):
    """The matvec plus a list that grows by one entry per call."""
    calls = []

    def counted(x):
        calls.append(1)
        return matvec(x)

    return counted, calls


def lanczos_step(matvec, v, dt, budget, m_max):
    """_lanczos_step to the one offset dt, with a fresh Krylov basis of
    m_max rows in v's dtype: (state at dt or None, estimate)."""
    V = np.empty((m_max, v.size), dtype=v.dtype)
    coords, err = _lanczos_step(matvec, v, np.array([dt]), np.array([budget]), V)
    return (None if coords is None else _from_basis(V, coords[0])), err


def starts(v):
    """v as the two kinds of start _lanczos_step takes: float64, and
    complex.  The complex start carries a global phase, which changes no
    estimate, so both stop at the same iteration."""
    return [np.ascontiguousarray(v.real), v * np.exp(0.25j * np.pi)]


def unscreened_stop(ests, budget):
    """(k, estimate, converged) at which a step without the screen stops."""
    for k, est in enumerate(ests):
        if est <= budget:
            return k, est, True
    return len(ests) - 1, ests[-1], False


def max_overlap(rows):
    """max |<rows[i], rows[j]>| over i != j."""
    gram = np.abs(rows.conj() @ rows.T)
    np.fill_diagonal(gram, 0.0)
    return gram.max()


class TestLanczosStep:
    M_MAX = 40
    # The largest budget propagate_krylov hands a step: krylov_tol <= 1e-3
    # times a step that is at most the whole evolution.
    MAX_STEP_BUDGET = 1e-3

    @pytest.mark.parametrize("model", [fig2a_model, band_edge_model])
    @pytest.mark.parametrize("dt", [2e-6, 1e-5, 5e-5, 2e-4, -5e-5])
    def test_stops_at_first_passing_iteration(self, model, dt):
        basis, h = model()
        matvec = plain_matvec(h)
        for v in starts(prepare_initial_state(basis, range(1, basis.n_ions + 1))):
            ests = unscreened_estimates(matvec, v, dt, self.M_MAX)
            placed = np.sort([e for e in ests if 1e-12 < e < np.inf])
            # Budgets sit midway between estimates at least 10% apart, so
            # rounding in either Lanczos run cannot move the stopping point.
            wide = placed[1:] / placed[:-1] >= 1.1
            budgets = np.sqrt(placed[1:] * placed[:-1])[wide]
            budgets = np.concatenate([budgets,
                                      [1e-13, 10.0 * placed.max(initial=1.0)]])
            for budget in budgets:
                k, est, converged = unscreened_stop(ests, budget)
                counted, calls = counting(matvec)
                new_v, err = lanczos_step(counted, v, dt, budget, self.M_MAX)
                if new_v is not None:
                    assert err <= budget
                if budget > self.MAX_STEP_BUDGET:
                    # Where the error still falls slowly, the screen may
                    # skip a passing iteration: the step then only runs
                    # longer.
                    assert len(calls) >= k + 1, budget
                    continue
                assert len(calls) == k + 1, budget
                assert (new_v is not None) == converged
                assert err == pytest.approx(est, rel=1e-3, abs=1e-14)

    def test_nearly_invariant_subspace_is_checked(self):
        # |dt| * beta_1 = 100 puts the Taylor term far above |u[-1]| <= 1,
        # while the tiny beta_2 makes the estimate pass at k = 1.
        diag, off = [0.0, 1.0, 2.0, 3.0], [100.0, 1e-6, 1.0]
        h = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        for v in starts(np.eye(4, dtype=complex)[0]):
            ests = unscreened_estimates(lambda x: h @ x, v, 1.0, 4)
            assert unscreened_stop(ests, 2e-6)[0] == 1
            counted, calls = counting(lambda x: h @ x)
            new_v, err = lanczos_step(counted, v, 1.0, 2e-6, 4)
            assert len(calls) == 2 and new_v is not None

    def test_fig2a_breakdown_returns_exact_state(self):
        basis, h = fig2a_model()
        matvec = plain_matvec(h)
        for v in starts(prepare_initial_state(basis, [1, 2])):
            new_v, err = lanczos_step(matvec, v, 1e-3, 1e-300, self.M_MAX)
            exact = scipy.linalg.expm(-1j * 1e-3 * scipy_csr(h.matrix).toarray()) @ v
            assert err == 0.0
            assert np.max(np.abs(new_v - exact)) < 1e-10

    def test_step_hitting_m_max_returns_finite_estimate(self):
        basis, h = band_edge_model()
        for v in starts(prepare_initial_state(basis, [1, 2, 3, 4])):
            new_v, err = lanczos_step(plain_matvec(h), v, 1e-3, 1e-12, 5)
            assert new_v is None
            assert np.isfinite(err) and err > 1e-12

    def test_basis_stays_semi_orthogonal(self):
        # A band-edge step that accepts after more than 30 iterations, by
        # which point plain three-term Lanczos has lost orthogonality far
        # beyond the reorthogonalization threshold min(budget, sqrt(eps)).
        basis, h = band_edge_model()
        matvec = plain_matvec(h)
        dt, budget = 3e-5, 1e-9
        threshold = min(budget, np.sqrt(np.finfo(float).eps))
        for v in starts(prepare_initial_state(basis, [1, 2, 3, 4])):
            counted, calls = counting(matvec)
            V = np.zeros((self.M_MAX, v.size), dtype=v.dtype)
            new_v, err = _lanczos_step(counted, v, np.array([dt]),
                                       np.array([budget]), V)
            k = len(calls)
            assert new_v is not None and err <= budget and k > 30
            assert max_overlap(V[:k]) <= threshold

            plain = [v / np.linalg.norm(v)]
            beta = 0.0
            for j in range(k - 1):
                w = matvec(plain[j]) - (beta * plain[j - 1] if j else 0.0)
                w = w - np.vdot(plain[j], w).real * plain[j]
                beta = np.linalg.norm(w)
                plain.append(w / beta)
            assert max_overlap(np.array(plain)) > threshold

    # every size up to 3 * MAX_KRYLOV_DIM, past the rows of the real basis
    # of evolve on a stepped sector (2 MAX_KRYLOV_DIM + N + 4) up to N = 36
    # ions, and the most rows of a spanning basis, SPAN_DIMENSION + 1
    @pytest.mark.parametrize("size", [*range(1, 3 * MAX_KRYLOV_DIM + 1),
                                      SPAN_DIMENSION + 1])
    def test_tridiag_expm_col_matches_expm(self, size):
        rng = np.random.default_rng(size)
        alphas = rng.uniform(-1.0, 1.0, size)
        offdiag = rng.uniform(0.1, 1.0, size - 1)
        t = np.diag(alphas) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
        expm_col = _tridiag_expm_col(alphas, offdiag)
        for dt in (0.3, -4.0):
            expected = scipy.linalg.expm(-1j * dt * t)[:, 0]
            got = expm_col(dt)
            assert np.max(np.abs(got - expected)) < 1e-13


class TestDenseOutput:
    """One Lanczos basis read at several sample times.

    Ten band-edge samples 5 us apart from the all-excited state, each
    with the budget krylov_tol * t / T that propagate_krylov gives it.
    """

    TOL = 1e-9
    DTS = 5e-6 * np.arange(1, 11)
    BUDGETS = TOL * DTS / DTS[-1]

    def test_samples_match_expm_multiply_within_budgets(self):
        from scipy.sparse.linalg import expm_multiply

        basis, h = band_edge_model()
        v = prepare_initial_state(basis, [1, 2, 3, 4]).real.copy()
        V = np.empty((2 * MAX_KRYLOV_DIM, v.size))
        coords, err = _lanczos_step(plain_matvec(h), v, self.DTS,
                                    self.BUDGETS, V)
        assert len(coords) >= 3
        assert err <= self.BUDGETS[len(coords) - 1]
        for dt, budget, u in zip(self.DTS, self.BUDGETS, coords):
            exact = expm_multiply(-1j * dt * scipy_csr(h.matrix), v)
            assert np.linalg.norm(_from_basis(V, u) - exact) <= budget

    def test_every_sample_of_one_call_within_its_share(self):
        from scipy.sparse.linalg import expm_multiply

        basis, h = band_edge_model()
        v0 = prepare_initial_state(basis, [1, 2, 3, 4])
        times = np.concatenate([[0.0], self.DTS])
        got = []
        last = propagate_krylov(h, v0, times, self.TOL, MAX_KRYLOV_DIM,
                                observe=lambda j, v: got.append((j, v.copy())))
        assert [j for j, _ in got] == list(range(len(times)))
        assert np.array_equal(got[0][1], v0) and np.array_equal(got[-1][1], last)
        for (_, v), t in zip(got[1:], self.DTS):
            exact = expm_multiply(-1j * t * scipy_csr(h.matrix), v0)
            assert np.linalg.norm(v - exact) <= self.TOL * t / times[-1]

    def start_and_k1(self):
        """The real start, its matvec, and the rows k1 at which the first
        sample passes on its own."""
        basis, h = band_edge_model()
        matvec = plain_matvec(h)
        v = starts(prepare_initial_state(basis, [1, 2, 3, 4]))[0]
        counted, first = counting(matvec)
        lanczos_step(counted, v, self.DTS[0], self.BUDGETS[0], 2 * MAX_KRYLOV_DIM)
        return v, matvec, len(first)

    @pytest.mark.parametrize("kind", ["complex"])
    def test_memory_rule(self, kind):
        # A complex step grows only to the bytes of the k1 complex rows at
        # which its first sample passed.
        basis, h = band_edge_model()
        matvec = plain_matvec(h)
        v = starts(prepare_initial_state(basis, [1, 2, 3, 4]))[1]
        counted, first = counting(matvec)
        lanczos_step(counted, v, self.DTS[0], self.BUDGETS[0], 2 * MAX_KRYLOV_DIM)
        k1 = len(first)
        limit = k1 * 16 // v.itemsize
        V = np.full((MAX_KRYLOV_DIM * 16 // v.itemsize, v.size), np.nan,
                    dtype=v.dtype)
        counted, calls = counting(matvec)
        _lanczos_step(counted, v, self.DTS, self.BUDGETS, V)
        assert len(calls) <= limit
        assert np.isnan(V[len(calls):]).all()
        assert len(calls) == k1  # a complex step stops at its first sample

    def test_fitting_window_reads_every_sample(self):
        # The rows per sample after the first predict that all ten samples
        # fit in 2 MAX_KRYLOV_DIM real rows: one basis reads them all,
        # growing past 2 k1 rows, and no row past the last used is written.
        v, matvec, k1 = self.start_and_k1()
        V = np.full((2 * MAX_KRYLOV_DIM, v.size), np.nan)
        counted, calls = counting(matvec)
        coords, err = _lanczos_step(counted, v, self.DTS, self.BUDGETS, V)
        assert len(coords) == len(self.DTS) and err <= self.BUDGETS[-1]
        assert 2 * k1 < len(calls) < len(V)
        assert np.isnan(V[len(calls):]).all()

    def test_window_that_does_not_fit_stops_at_2k1(self):
        # The same window is predicted not to fit in 48 rows, so the step
        # keeps to the bytes of k1 complex rows: 2 k1 real rows.
        v, matvec, k1 = self.start_and_k1()
        V = np.full((48, v.size), np.nan)
        counted, calls = counting(matvec)
        coords, _ = _lanczos_step(counted, v, self.DTS, self.BUDGETS, V)
        assert len(calls) == 2 * k1 < len(V)
        assert 1 < len(coords) < len(self.DTS)
        assert np.isnan(V[len(calls):]).all()

    def test_first_sample_must_pass_within_reach(self):
        v, matvec, k1 = self.start_and_k1()
        V = np.empty((2 * MAX_KRYLOV_DIM, v.size))
        counted, calls = counting(matvec)
        coords, err = _lanczos_step(counted, v, self.DTS, self.BUDGETS, V, k1 - 1)
        assert coords is None and err > self.BUDGETS[0]
        assert len(calls) == k1 - 1


class TestSpanningBuffer:
    """A Krylov buffer with more rows than D.

    The step grows until breakdown, or to its last row, and makes one
    check there: 101 samples over 1 ms from the all-excited state, each
    with the budget krylov_tol * t / T that propagate_krylov gives it.
    """

    TOL = 1e-9
    TIMES = np.linspace(0.0, 1e-3, 101)

    @pytest.mark.parametrize("model", [fig2a_model, band_edge_model])
    def test_one_eigendecomposition_reads_every_sample(self, model, monkeypatch):
        basis, h = model()
        dim = basis.dimension
        eigs = []
        expm_col = propagator._tridiag_expm_col
        monkeypatch.setattr(propagator, "_tridiag_expm_col",
                            lambda *args: eigs.append(1) or expm_col(*args))
        dts = self.TIMES[1:]
        for v in starts(prepare_initial_state(basis, range(1, basis.n_ions + 1))):
            eigs.clear()
            V = np.empty((dim + 1, dim), dtype=v.dtype)
            counted, calls = counting(plain_matvec(h))
            coords, err = _lanczos_step(counted, v, dts,
                                        self.TOL * dts / dts[-1], V)
            assert len(coords) == len(dts) and err == 0.0
            assert len(eigs) == 1 and len(calls) <= dim + 1

    @pytest.mark.parametrize("model", [fig2a_model, band_edge_model])
    def test_matches_dense_states_within_shares(self, model):
        basis, h = model()
        assert basis.dimension <= SPAN_DIMENSION
        req = EvolutionRequest(total_time=self.TIMES[-1], samples=len(self.TIMES),
                               excited_ions=range(1, basis.n_ions + 1),
                               krylov_tol=self.TOL)
        errors = np.linalg.norm(sampled_states(h, req, basis)
                                - dense_states(h, req, basis), axis=1)
        # from the first step on: sample 0 is the initial state itself
        shares = self.TOL * self.TIMES / self.TIMES[-1]
        assert np.all(errors[1:] <= shares[1:])

    @pytest.mark.parametrize("rows,matvecs,samples", [
        (48, 36, 5), (80, 51, 10), (192, 51, 10), (193, 192, 10),
    ])
    def test_only_more_rows_than_d_span(self, rows, matvecs, samples):
        # band_edge_model, D = 192, on TestDenseOutput's window: a buffer of
        # at most D rows keeps the stepping path's rows and matvecs, and
        # one more row spans the whole sector.
        basis, h = band_edge_model()
        v = starts(prepare_initial_state(basis, [1, 2, 3, 4]))[0]
        counted, calls = counting(plain_matvec(h))
        coords, _ = _lanczos_step(counted, v, TestDenseOutput.DTS,
                                  TestDenseOutput.BUDGETS, np.empty((rows, v.size)))
        assert (len(calls), len(coords)) == (matvecs, samples)


def symmetric_chain(spacings_um, top_mode_mhz, delta_khz=-60.0):
    """A mirror-symmetric chain with a Gaussian beam at its center, as fig2b."""
    from jchsim.calibration import LaserProfile, derive_site_parameters

    geo = ChainGeometry.from_spacings([d * 1e-6 for d in spacings_um])
    wx = anchor_transverse_frequency(geo, mhz(top_mode_mhz))
    modes = interaction_picture_shift(mode_parameters(wx, geo), wx)
    couplings, stark = derive_site_parameters(
        LaserProfile(peak_rabi=1.0, waist=162e-6), geo, g_central=khz(11.5)
    )
    return JchParameters(
        detunings=khz(delta_khz) + stark,
        local_frequencies=modes.corrected_local,
        couplings=couplings,
        hoppings=modes.corrected_hopping,
    )


def lift(even, states):
    """Even-sector states as full-sector vectors."""
    return states[..., even.orbit] * even.weights[even.orbit]


class TestMirrorEvenSector:
    """Evolution in the mirror-even sector against the full sector.

    Both evolutions use krylov_tol = 1e-9 and agree to 1e-10 in sigma_z
    and in the lifted states; 1e-10 is the tolerance the scan tests hold
    Krylov to against dense evolution, and the differences seen are
    below 1e-13.
    """

    TOL = 1e-10

    def test_matches_full_sector_krylov_6_6(self):
        params = symmetric_chain([6.0, 5.6, 5.5, 5.6, 6.0], 2.75)
        full = enumerate_sector(6, 6)
        even = enumerate_sector(6, 6, mirror_even=True)
        req = EvolutionRequest(total_time=100e-6, samples=11,
                               excited_ions=list(range(1, 7)))
        h_full = build_hamiltonian(params, full)
        h_even = build_hamiltonian(params, even)
        a = evolve(h_full, req, full)
        b = evolve(h_even, req, even)
        even_states = sampled_states(h_even, req, even)
        assert even_states.shape == (11, 2687)
        assert np.max(np.abs(a.sigma_z - b.sigma_z)) <= self.TOL
        assert (np.max(np.abs(lift(even, even_states)
                              - sampled_states(h_full, req, full)))
                <= self.TOL)
        assert b.norm_drift.max() <= 1e-12
        assert b.excitation_drift.max() <= 1e-12

    @pytest.mark.parametrize("excited", [[1, 2, 3, 4, 5], [1, 3, 5], [3]])
    def test_matches_dense_eigh_5_m(self, excited):
        params = symmetric_chain([6.0, 5.5, 5.5, 6.0], 2.75, delta_khz=-30.0)
        m = len(excited)
        full = enumerate_sector(5, m)
        even = enumerate_sector(5, m, mirror_even=True)
        req = EvolutionRequest(total_time=300e-6, samples=31, excited_ions=excited)
        exact = dense_states(build_hamiltonian(params, full), req, full)
        exact_sz = np.abs(exact) ** 2 @ full.spin_signs()
        h = build_hamiltonian(params, even)
        assert np.max(np.abs(evolve(h, req, even).sigma_z - exact_sz)) <= self.TOL
        assert np.max(np.abs(dense_sigma_z(h, req, even) - exact_sz)) <= self.TOL
        # the even sector's Krylov and dense states, lifted to the full sector
        for states in (sampled_states(h, req, even), dense_states(h, req, even)):
            assert np.max(np.abs(lift(even, states) - exact)) <= self.TOL

    def test_odd_initial_state_rejected(self):
        even = enumerate_sector(4, 2, mirror_even=True)
        with pytest.raises(ValueError, match="mirror-even"):
            prepare_initial_state(even, [1, 2])
        v = prepare_initial_state(even, [1, 4])
        assert np.count_nonzero(v) == 1 and np.abs(v).max() == 1.0


class TestAccuracyLadder:
    """propagate_krylov against expm_multiply at the sizes users run.

    One 6 us window (the sample spacing of the sector8x8 benchmark) at
    the Fig. 2b parameters, all ions excited, krylov_tol = 1e-9: the full
    sectors N = M = 5 and 6, the mirror-even sectors N = M = 7 and 8, and
    a band-edge 4-ion step that accepts after more than 30 iterations.
    """

    TOL = 1e-9
    # Mirror-symmetric chains; N = 8 is the Fig. 2b chain, the others its
    # central spacings.
    SPACINGS = {
        5: [6.496, 6.030, 6.030, 6.496],
        6: [6.496, 6.030, 5.940, 6.030, 6.496],
        7: [6.496, 6.030, 5.940, 5.940, 6.030, 6.496],
        8: [7.655, 6.496, 6.030, 5.940, 6.030, 6.496, 7.655],
    }

    @staticmethod
    def realized_error(basis, h, t):
        from scipy.sparse.linalg import expm_multiply

        v0 = prepare_initial_state(basis, range(1, basis.n_ions + 1))
        got = propagate_krylov(h, v0, t, TestAccuracyLadder.TOL, MAX_KRYLOV_DIM)
        exact = expm_multiply(-1j * t * scipy_csr(h.matrix), v0)
        return np.linalg.norm(got - exact)

    @pytest.mark.parametrize("n,even,dimension", [
        (5, False, 1002), (6, False, 5336), (7, True, 14470), (8, True, 78688),
    ])
    def test_fig2b_window(self, n, even, dimension):
        basis = enumerate_sector(n, n, mirror_even=even)
        assert basis.dimension == dimension
        h = build_hamiltonian(symmetric_chain(self.SPACINGS[n], 2.756), basis)
        err = self.realized_error(basis, h, 6e-6)
        assert err <= self.TOL, f"D = {dimension}: realized error {err:.3e}"

    def test_band_edge_long_step(self):
        basis, h = band_edge_model()
        v0 = prepare_initial_state(basis, [1, 2, 3, 4])
        for v in starts(v0):
            counted, calls = counting(plain_matvec(h))
            lanczos_step(counted, v, 3e-5, self.TOL, MAX_KRYLOV_DIM)
            assert len(calls) > 30
        err = self.realized_error(basis, h, 3e-5)
        assert err <= self.TOL, f"band edge: realized error {err:.3e}"


class TestAverageSigmaZ:
    def test_all_up_first_sample(self):
        basis, h = fig2a_model()
        req = EvolutionRequest(total_time=1e-4, samples=11, excited_ions=[1, 2])
        series = evolve(h, req, basis)
        assert series.sigma_z.mean(axis=1)[0] == pytest.approx(1.0)

    def test_symmetric_chain_average_equals_either_ion(self):
        basis, h = fig2a_model()
        req = EvolutionRequest(total_time=5e-4, samples=51, excited_ions=[1, 2])
        series = evolve(h, req, basis)
        avg = series.sigma_z.mean(axis=1)
        assert avg == pytest.approx(series.sigma_z[:, 0], abs=1e-10)


def test_timeseries_csv_format():
    from jchsim.experiment import _timeseries_csv

    basis, h = fig2a_model()
    req = EvolutionRequest(total_time=1e-4, samples=5, excited_ions=[1, 2])
    series = evolve(h, req, basis)
    rows = _timeseries_csv(series).strip().splitlines()
    assert rows[0] == "time_us,sz_ion1,sz_ion2,norm_drift,excitation_drift"
    assert len(rows) == 6
    first = rows[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0


def test_invalid_requests():
    with pytest.raises(ValueError):
        EvolutionRequest(total_time=0.0, samples=10, excited_ions=[1])
    with pytest.raises(ValueError):
        EvolutionRequest(total_time=1e-3, samples=1, excited_ions=[1])
    with pytest.raises(ValueError):
        EvolutionRequest(total_time=1e-3, samples=10, excited_ions=[1],
                         krylov_tol=1e-2)
    with pytest.raises(TypeError):  # excited_ions is a required field
        EvolutionRequest(total_time=1e-3, samples=10)
