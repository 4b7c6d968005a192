"""Bit-arithmetic Pauli strings, momentum blocks and their solve: the basis convention by hand, and bad input."""

from dataclasses import dataclass

import numpy as np
import pytest

from nhmetric import spinops
from nhmetric.cluster_ising import ClusterSector, build_cluster_chain
from nhmetric.linalg import eig_right
from nhmetric.spinops import (
    block_dimension,
    check_dense,
    dense_operator,
    momentum_block,
    site_operator,
)
from spin_reference import assert_same_spectrum, momentum_block_reference


def test_hand_values_on_two_sites():
    # site 0 is the most significant bit and spin up is a 0 bit
    rows, amp = site_operator(2, {0: "y", 1: "z"})
    assert rows.tolist() == [2, 3, 0, 1]
    assert amp.tolist() == [1j, -1j, -1j, 1j]


def test_unknown_label_raises():
    with pytest.raises(ValueError, match="'w'"):
        site_operator(3, {0: "x", 1: "w"})


def test_orbits_of_four_sites_by_hand():
    # 0000, 0001, 0011, 0101, 0111, 1111 with periods 1, 4, 4, 2, 4, 1
    assert [block_dimension(4, m) for m in range(4)] == [6, 3, 4, 3]
    # prod sigma^z = +1 on 0000, 0011, 0101, 1111
    assert [block_dimension(4, m, 1) for m in range(4)] == [4, 1, 2, 1]
    assert [block_dimension(4, m, -1) for m in range(4)] == [2, 2, 2, 2]


@pytest.mark.parametrize("N", range(2, 15))
def test_blocks_partition_the_basis(N):
    assert sum(block_dimension(N, m) for m in range(N)) == 2**N
    assert sum(block_dimension(N, m, p) for m in range(N) for p in (1, -1)) == 2**N


@pytest.mark.parametrize("N", range(2, 15))
def test_phase_table_is_conjugate_exact(N):
    w = spinops._phases(N)
    assert np.array_equal(w[1:][::-1], w[1:].conj())
    np.testing.assert_allclose(w, np.exp(-2j * np.pi * np.arange(N) / N), atol=1e-15)


def test_transverse_field_block_by_hand():
    # sum_l sigma^x_l on two sites at k = 0: |00>, (|01> + |10>)/sqrt2, |11>
    block = momentum_block(2, [(1.0, {0: "x"})], 0)
    s = np.sqrt(2.0)
    np.testing.assert_allclose(block, [[0, s, 0], [s, 0, s], [0, s, 0]], atol=1e-15)
    assert np.isrealobj(block)


@pytest.mark.parametrize(
    "terms,real",
    [
        ([(1.0, {0: "y", 1: "y"})], True),
        ([(1.0, {0: "y"})], False),
        ([(1j, {0: "y"})], True),
        ([(1.0, {0: "x"}), (0.5j, {0: "u"})], False),
        ([(1.0, {0: "x"}), (0j, {0: "u"})], True),
    ],
)
def test_dense_operator_is_real_when_every_term_is(terms, real):
    H = dense_operator(3, terms, periodic=True)
    assert np.isrealobj(H) == real
    assert np.any(np.iscomplex(H)) != real


def test_open_chain_keeps_the_translates_inside_it():
    # sigma^z_0 sigma^z_2 on three open sites: the one translate that fits
    H = dense_operator(3, [(1.0, {-1: "z", 1: "z"})], periodic=False)
    assert np.diag(H).tolist() == [1, -1, 1, -1, -1, 1, -1, 1]


#: the level that fills a diagonal block up to its dimension, above every level the tests set
FILL = 9.0


@dataclass(frozen=True)
class DiagonalSector(spinops.Sector):
    """A sector whose block is diagonal, to test the bookkeeping by hand.

    The block holds ``levels[m]``, then :data:`FILL` up to the block's
    dimension, which embedding state 0 on the 2^N basis needs.
    """

    levels: tuple = ()

    def build(self):
        fill = [FILL] * (spinops.block_dimension(self.N, self.m) - len(self.levels[self.m]))
        return np.diag(np.asarray([*self.levels[self.m], *fill], dtype=complex))


def set_levels(w):
    """The spectrum of a :class:`DiagonalSector` chain without its fill."""
    return w[w != FILL].tolist()


class TestDiagonalize:
    def test_sorted_spectrum_with_mirrored_multiplicities(self):
        # N = 4: block 1 stands for blocks 1 and 3, blocks 0 and 2 for themselves
        levels = ([2.0, -1.0 + 1j], [0.5, -1.0 - 1j], [3.0])
        point = spinops.diagonalize(DiagonalSector(4, 2, levels=levels))
        assert len(point.eigenvalues) == 2**4
        assert set_levels(point.eigenvalues) == [-1.0 - 1j, -1.0 - 1j, -1.0 + 1j, 0.5, 0.5, 2.0, 3.0]
        assert point.model == DiagonalSector(4, 1, levels=levels)
        assert point.system.eigenvalues[0] == point.eigenvalues[0]
        # state 0 is block 1's second state, the orbit of 0011, spread evenly over its four translates
        assert np.allclose(np.abs(point.ground), np.isin(np.arange(16), [3, 6, 9, 12]) / 2)

    def test_odd_n_mirrors_every_block_but_zero(self):
        w = spinops.diagonalize(DiagonalSector(5, 0, levels=([0.0], [1.0], [2.0]))).eigenvalues
        assert set_levels(w) == [0.0, 1.0, 1.0, 2.0, 2.0]

    @pytest.mark.parametrize(
        "levels,owner",
        [(([-3.0, 4.0], [1.0], [-3.0]), 0), (([4.0], [-3.0, 1.0], [-3.0]), 1)],
        # block 1's mirrored copy follows block 2, so only "0-2" tells a later pick apart
        ids=["0-2", "1-2"],
    )
    def test_exact_tie_goes_to_the_earlier_block(self, levels, owner):
        assert spinops.diagonalize(DiagonalSector(4, 0, levels=levels)).model.m == owner

    def test_empty_even_block_at_two_sites_is_skipped(self, monkeypatch):
        # the even block at k = pi holds no state: 00 and 11 both lie at k = 0
        dims = []

        def counting_eig_right(H):
            dims.append(H.shape[0])
            return eig_right(H)

        monkeypatch.setattr(spinops, "eig_right", counting_eig_right)
        point = spinops.diagonalize(ClusterSector(2, 1, 1, lam=0.6, Gamma=0.5))
        assert dims == [2]
        assert point.model.m == 0
        even = np.ix_([0, 3], [0, 3])
        dense = eig_right(build_cluster_chain(2, 1.0, 0.6, 0.5)[even]).eigenvalues
        assert_same_spectrum(point.eigenvalues, dense)


MIXED = [(-1.0, {0: "z", 1: "z"}), (3.0, {0: "x"}), (0.7j, {0: "z"})]
CLUSTER = [(-1.0, {-1: "x", 0: "z", 1: "x"}), (0.7, {0: "y", 1: "y"}), (0.25j, {0: "u"})]


@pytest.mark.parametrize("N", [5, 8])
@pytest.mark.parametrize(
    "terms,parity",
    [
        # the mixed chain at h_z = 0 (real) and h_z > 0; the cluster chain in each parity
        ([(-0.9, {0: "z", 1: "z"}), (1.3, {0: "x"}), (0j, {0: "z"})], None),
        (MIXED, None),
        (CLUSTER, None),
        (CLUSTER, 1),
        (CLUSTER, -1),
    ],
)
def test_cached_block_is_bit_identical_to_the_reference(N, terms, parity):
    for m in range(N):
        block, reference = momentum_block(N, terms, m, parity), momentum_block_reference(N, terms, m, parity)
        assert block.dtype == reference.dtype and np.array_equal(block, reference)


def test_block_is_fresh_on_every_call():
    # each string's entries are cached; the block built from them is not
    first = momentum_block(5, MIXED, 1)
    expected = first.copy()
    first[:] = 7.0
    assert np.array_equal(momentum_block(5, MIXED, 1), expected)


@pytest.mark.parametrize("m,parity", [(-1, None), (4, None), (0, 0), (0, 2)])
def test_bad_sector_raises(m, parity):
    with pytest.raises(ValueError):
        momentum_block(4, [(1.0, {0: "x"})], m, parity)


def test_dense_limit():
    check_dense(spinops.DENSE_MAX_N)
    with pytest.raises(ValueError, match="N <= 12"):
        check_dense(spinops.DENSE_MAX_N + 1)
