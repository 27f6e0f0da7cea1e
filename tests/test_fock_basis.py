import hashlib
from itertools import product

import numpy as np
import pytest

from jchsim.fock_basis import SectorCapError, enumerate_sector, sector_dimension

GOLDEN_5_3_SHA256 = "12e11c2497a9920b2f794c2f6c54cc8877c387369bb124f9441096541ef0258f"


def states(basis):
    """(spin mask, occupations) per state; mask bit i set = ion i+1 up."""
    return [
        (sum(1 << i for i in np.flatnonzero(ups)), tuple(occ))
        for ups, occ in zip(basis.spins, basis.occupations.tolist())
    ]


def brute_force_count(n, m):
    """Count all spin/phonon assignments with total excitation m."""
    count = 0
    for mask in range(1 << n):
        k = bin(mask).count("1")
        if k > m:
            continue
        rest = m - k
        for occ in product(range(rest + 1), repeat=n):
            if sum(occ) == rest:
                count += 1
    return count


class TestSectorDimension:
    def test_single_site_single_excitation(self):
        assert sector_dimension(1, 1) == 2

    def test_known_values(self):
        assert sector_dimension(4, 2) == 32
        assert sector_dimension(20, 2) == 800
        assert sector_dimension(4, 4) == 192
        assert sector_dimension(8, 8) == 157184

    def test_32_32_exceeds_2_pow_77(self):
        assert sector_dimension(32, 32) > 2**77

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("m", range(0, 7))
    def test_matches_brute_force(self, n, m):
        assert sector_dimension(n, m) == brute_force_count(n, m)

    def test_edge_identities(self):
        for n in range(1, 8):
            assert sector_dimension(n, 0) == 1
        # one ion: |down; m> plus |up; m-1> once m >= 1
        assert sector_dimension(1, 0) == 1
        for m in range(1, 8):
            assert sector_dimension(1, m) == 2


class TestEnumerateSector:
    def test_1_1_ordering(self):
        basis = enumerate_sector(1, 1)
        assert states(basis) == [(0, (1,)), (1, (0,))]

    def test_2_1_states(self):
        basis = enumerate_sector(2, 1)
        rows = states(basis)
        assert len(rows) == 4
        one_phonon = [(mask, occ) for mask, occ in rows if mask == 0]
        one_up = [(mask, occ) for mask, occ in rows if mask != 0]
        assert {occ for _, occ in one_phonon} == {(1, 0), (0, 1)}
        assert {mask for mask, _ in one_up} == {1, 2}

    def test_8_8_size(self):
        # Independent big-integer summation of the dimension formula.
        from math import comb

        expected = sum(
            comb(8, k) * comb(8 + 8 - k - 1, 7) for k in range(9)
        )
        basis = enumerate_sector(8, 8)
        assert len(basis) == expected == 157184

    @pytest.mark.parametrize("n,m", [(2, 3), (3, 2), (4, 3), (5, 2), (6, 4)])
    def test_count_and_constraint(self, n, m):
        basis = enumerate_sector(n, m)
        assert len(basis) == sector_dimension(n, m)
        for mask, occ in states(basis):
            assert bin(mask).count("1") + sum(occ) == m

    def test_ordering_golden_hash(self):
        # One line per state: spin flags of ions 1..N, then occupations.
        basis = enumerate_sector(5, 3)
        rows = np.hstack([basis.spins, basis.occupations]).astype(int).tolist()
        blob = "\n".join(",".join(map(str, row)) for row in rows).encode()
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_5_3_SHA256

    def test_ordering_is_mask_then_colex(self):
        # Ascending by spin mask, then by the occupations of ion N down to 1.
        basis = enumerate_sector(4, 3)
        keys = [(mask, occ[::-1]) for mask, occ in states(basis)]
        assert keys == sorted(set(keys))

    def test_cap_exceeded(self):
        with pytest.raises(SectorCapError) as excinfo:
            enumerate_sector(8, 8, dimension_cap=1000)
        assert excinfo.value.dimension == 157184
        assert excinfo.value.cap == 1000

    def test_full_sector_weights_are_a_read_only_view_of_one(self):
        basis = enumerate_sector(8, 8)
        assert basis.weights.shape == (157184,)
        assert np.all(basis.weights == 1.0)
        assert basis.weights.strides == (0,)  # holds no array of D ones
        with pytest.raises(ValueError):
            basis.weights[0] = 1.0


class TestIndexing:
    @pytest.mark.parametrize("n,m", [
        (1, 0), (2, 3), (4, 3), (6, 4), (20, 3), (32, 2), (1, 300), (2, 300),
    ])
    def test_bijection(self, n, m):
        basis = enumerate_sector(n, m)
        ranks = basis.indices(basis.spins, basis.occupations)
        assert np.array_equal(ranks, np.arange(len(basis)))

    def test_excitations_beyond_occupation_dtype_rejected(self):
        # Occupations are int16; the (1, 32768) sector itself has only 2 states.
        with pytest.raises(ValueError, match="int16"):
            enumerate_sector(1, 32768)


class TestMirrorEvenBasis:
    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (4, 4), (5, 3), (6, 2)])
    def test_orbits_match_reversed_states(self, n, m):
        full = enumerate_sector(n, m)
        even = enumerate_sector(n, m, mirror_even=True)
        rows = states(full)
        position = {row: j for j, row in enumerate(rows)}
        reverse = {
            j: position[sum(1 << (n - 1 - i) for i in range(n) if mask >> i & 1),
                        occ[::-1]]
            for j, (mask, occ) in enumerate(rows)
        }
        reps = [j for j in range(len(rows)) if j <= reverse[j]]
        assert even.representatives.tolist() == reps
        assert even.dimension == len(even) == len(reps)
        assert even.weights.tolist() == [
            1.0 if reverse[j] == j else np.sqrt(0.5) for j in reps
        ]
        assert np.array_equal(even.spins, full.spins[reps])
        assert np.array_equal(even.occupations, full.occupations[reps])
        for j in range(len(rows)):
            a = even.orbit[j]
            assert reps[a] in (j, reverse[j])
        ranks = even.indices(full.spins, full.occupations)
        assert np.array_equal(ranks, even.orbit)

    def test_8_8_orbits(self):
        even = enumerate_sector(8, 8, mirror_even=True)
        assert len(even) == 78688
        assert int((even.weights == 1.0).sum()) == 192
        assert (2 * len(even) - 192) == 157184

    def test_spin_signs_are_orbit_means(self):
        # Against the means over the full sector's orbits, which the even
        # basis reads off its representatives' own signs.
        for n, m in [(4, 3), (6, 6), (8, 3)]:
            full = enumerate_sector(n, m)
            even = enumerate_sector(n, m, mirror_even=True)
            signs = full.spin_signs().astype(float)
            reps = even.representatives
            expected = 0.5 * (signs[reps] + signs[even.partner[reps]])
            assert even.spin_signs().dtype == np.int8
            assert np.array_equal(even.spin_signs(), expected), (n, m)

    def test_arrays_are_read_only(self):
        even = enumerate_sector(3, 2, mirror_even=True)
        for array in (even.spins, even.occupations, even.weights, even.orbit):
            with pytest.raises(ValueError):
                array[0] = array[0]
