import hashlib
from itertools import product

import numpy as np
import pytest

from jchsim.fock_basis import (
    BasisState,
    SectorCapError,
    SectorMismatchError,
    enumerate_sector,
    pack_state,
    sector_dimension,
    unpack_state,
)

GOLDEN_5_3_SHA256 = "d60aa1cad3d5174934b88ecde5a1f3104145296a10a0ce3875d6f90e2f2b72e5"


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
        assert basis.state_at(0) == BasisState(spins=0, phonons=(1,))
        assert basis.state_at(1) == BasisState(spins=1, phonons=(0,))

    def test_2_1_states(self):
        basis = enumerate_sector(2, 1)
        states = [basis.state_at(j) for j in range(len(basis))]
        assert len(states) == 4
        one_phonon = [s for s in states if s.spins == 0]
        one_up = [s for s in states if s.spins != 0]
        assert {s.phonons for s in one_phonon} == {(1, 0), (0, 1)}
        assert {s.spins for s in one_up} == {1, 2}

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
        for j in range(len(basis)):
            assert basis.state_at(j).excitations() == m

    def test_ordering_golden_hash(self):
        basis = enumerate_sector(5, 3)
        blob = ",".join(str(p) for p in basis.packed_states).encode()
        assert hashlib.sha256(blob).hexdigest() == GOLDEN_5_3_SHA256

    def test_ordering_is_packed_numeric_order(self):
        basis = enumerate_sector(4, 3)
        packed = list(basis.packed_states)
        assert packed == sorted(packed)

    def test_cap_exceeded(self):
        with pytest.raises(SectorCapError) as excinfo:
            enumerate_sector(8, 8, dimension_cap=1000)
        assert excinfo.value.dimension == 157184
        assert excinfo.value.cap == 1000


class TestIndexing:
    def test_first_state_roundtrip(self):
        basis = enumerate_sector(3, 2)
        assert basis.index_of(basis.state_at(0)) == 0

    @pytest.mark.parametrize("n,m", [(1, 0), (2, 3), (4, 3), (6, 4), (20, 3), (32, 2)])
    def test_bijection(self, n, m):
        # (32, 2) packs into more than 64 bits.
        basis = enumerate_sector(n, m)
        ranks = basis.indices(basis.spins, basis.occupations)
        assert np.array_equal(ranks, np.arange(len(basis)))
        for j in range(len(basis)):
            state = basis.state_at(j)
            assert basis.index_of(state) == j
            assert basis.index_of(pack_state(state.spins, state.phonons)) == j

    def test_out_of_sector_state_rejected(self):
        basis = enumerate_sector(3, 2)
        with pytest.raises(SectorMismatchError):
            basis.index_of(BasisState(spins=0, phonons=(1, 1, 1)))  # sum = M+1

    def test_wrong_ion_count_rejected(self):
        basis = enumerate_sector(3, 2)
        with pytest.raises(SectorMismatchError):
            basis.index_of(BasisState(spins=0, phonons=(2,)))


def test_pack_unpack_roundtrip():
    state = BasisState(spins=0b1011, phonons=(3, 0, 2, 7))
    packed = pack_state(state.spins, state.phonons)
    assert unpack_state(packed, 4) == state


def test_sector_csv_dump(tmp_path):
    basis = enumerate_sector(2, 1)
    path = tmp_path / "sector.csv"
    basis.to_csv(str(path))
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "index,spins,phonons"
    assert len(rows) == 5
    assert rows[1].startswith("0,dd,")
