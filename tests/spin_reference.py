"""Dense Kronecker-chain spin operators: the independent reference for spinops.

Site 0 is the leftmost Kronecker factor, spin up is (1, 0) and
sigma_z = diag(1, -1).
"""

import numpy as np
from scipy.optimize import linear_sum_assignment

from nhmetric import spinops

PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "u": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
}


def kron_operator(N: int, ops: dict[int, str]) -> np.ndarray:
    """Dense 2^N x 2^N product of single-site factors, identity elsewhere.

    Sites are reduced mod N; factors on one site multiply in dict order.
    """
    factors = [np.eye(2, dtype=complex)] * N
    for site, label in ops.items():
        factors[site % N] = factors[site % N] @ PAULI[label]
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def assert_same_spectrum(a: np.ndarray, b: np.ndarray, rtol: float = 1e-12) -> None:
    """``a`` and ``b`` hold one multiset of eigenvalues, to ``rtol`` relative to the largest.

    Matched by a minimum-cost assignment, not by sorting: a conjugate pair
    tied in Re E sorts by rounding.
    """
    assert len(a) == len(b)
    distance = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(distance)
    assert np.max(distance[rows, cols]) <= rtol * np.max(np.abs(a))


def assert_mirror_spectra(spectra: list[np.ndarray]) -> None:
    """Blocks m and N - m of an N-site chain (``spectra[m]``) hold one spectrum, to 1e-12 relative.

    Site reflection maps momentum k to -k.
    """
    N = len(spectra)
    for m in range(1, (N + 1) // 2):
        assert_same_spectrum(spectra[m], spectra[N - m])


def momentum_block_reference(N: int, terms, m: int, parity=None) -> np.ndarray:
    """``spinops.momentum_block`` with every string's entries formed anew on each call.

    The same arithmetic, in the same order, as the cached builder, so the
    two must agree bit for bit.
    """
    orbits = spinops._orbits(N)
    member, pos, d = spinops._sector(N, m, parity)
    H = np.zeros((d, d))
    for coeff, ops in terms:
        if coeff == 0:
            continue
        a, b, l, amp, hermitian = spinops._translates(N, tuple(ops.items()))
        keep = member[a] & member[b]
        a, b, l, amp = a[keep], b[keep], l[keep], amp[keep]
        value = amp * spinops._phases(N)[(m * l) % N] * np.sqrt(orbits.period[a] / orbits.period[b])
        flat = pos[b] * d + pos[a]
        P = np.bincount(flat, value.real, d * d) + 1j * np.bincount(flat, value.imag, d * d)
        P = P.reshape(d, d)
        if hermitian:
            P = (P + P.conj().T) / 2
        if not P.imag.any():
            P = P.real
        H = H + (coeff.real if np.imag(coeff) == 0 else coeff) * P
    return H
