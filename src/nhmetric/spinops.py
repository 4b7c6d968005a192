"""Pauli strings on a spin chain, built by bit arithmetic on basis indices.

Basis convention: basis state c of an N-site chain holds site l in bit
N - 1 - l (site 0 is the most significant bit), a 0 bit is spin up, and
sigma_z = diag(1, -1).  This module is the only place that knows it.
"""

from __future__ import annotations

import numpy as np

# label: (flips the bit, amplitude on an up bit, amplitude on a down bit);
# "u" projects onto spin up, the gain/loss operator of the cluster chain
_ACTION = {
    "x": (True, 1.0, 1.0),
    "y": (True, 1j, -1j),
    "z": (False, 1.0, -1.0),
    "u": (False, 1.0, 0.0),
}


def site_operator(N: int, ops: dict[int, str]) -> tuple[np.ndarray, np.ndarray]:
    """Product of single-site factors, identity elsewhere, as ``(rows, amp)``.

    ``ops`` maps site index (0-based, reduced mod N) to "x", "y", "z" or "u";
    factors on one site multiply in dict order, leftmost first.  The product
    has one entry per column: column c holds ``amp[c]`` in row ``rows[c]``.
    ``amp`` is real unless a "y" factor is present.
    """
    rows, amp = np.arange(2**N), np.ones(2**N)
    # the rightmost factor acts on the ket first
    for site, label in reversed(list(ops.items())):
        if label not in _ACTION:
            raise ValueError(f"unknown single-site operator {label!r}")
        flips, up, down = _ACTION[label]
        bit = 1 << (N - 1 - site % N)
        amp = amp * np.where(rows & bit, down, up)
        if flips:
            rows = rows ^ bit
    return rows, amp
