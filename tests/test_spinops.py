"""Bit-arithmetic Pauli strings: the basis convention by hand, and bad labels."""

import pytest

from nhmetric.spinops import site_operator


def test_hand_values_on_two_sites():
    # site 0 is the most significant bit and spin up is a 0 bit
    rows, amp = site_operator(2, {0: "y", 1: "z"})
    assert rows.tolist() == [2, 3, 0, 1]
    assert amp.tolist() == [1j, -1j, -1j, 1j]


def test_unknown_label_raises():
    with pytest.raises(ValueError, match="'w'"):
        site_operator(3, {0: "x", 1: "w"})
