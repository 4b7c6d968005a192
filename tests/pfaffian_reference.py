"""Independent references for linalg.pfaffian and the cluster chain's Wick matrices.

The unblocked Parlett-Reid Pfaffian (a tridiagonalization by congruence
with partial pivoting) makes one rank-2 update of the whole trailing block
per pivot step and keeps the pivot product as a scaled mantissa and
exponent.  It shares no code and no factorization with linalg.pfaffian's
LAPACK Bunch-Kaufman path, and it takes complex input too: it is the
tests' one complex Pfaffian.  The ungauged Wick matrix holds the complex
contractions themselves, before the gauge that makes them real.
"""

import math

import numpy as np


def pfaffian_unblocked(A: np.ndarray) -> complex:
    """Pfaffian of a skew-symmetric matrix; odd n and a zero pivot give 0."""
    n = A.shape[0]
    if n % 2 == 1:
        return complex(0.0)
    A = np.array(A, dtype=complex if np.iscomplexobj(A) else float)
    mant = 1.0 + 0.0j
    expo = 0
    for k in range(0, n - 1, 2):
        kp = k + 1 + int(np.argmax(np.abs(A[k + 1 :, k])))
        if kp != k + 1:
            # rows and columns before k are reduced already and never read again
            A[[k + 1, kp], k:] = A[[kp, k + 1], k:]
            A[k:, [k + 1, kp]] = A[k:, [kp, k + 1]]
            mant = -mant
        pivot = A[k, k + 1]
        if pivot == 0.0:
            return complex(0.0)
        mant *= pivot
        scale = abs(mant)
        if scale > 1e8 or scale < 1e-8:
            e = int(np.floor(np.log2(scale)))
            mant /= 2.0**e
            expo += e
        if k + 2 < n:
            tau = A[k + 2 :, k] / A[k + 1, k]
            col = A[k + 2 :, k + 1]
            # tau col.T - col tau.T as one rank-2 product
            A[k + 2 :, k + 2 :] += np.stack([tau, col], axis=1) @ np.stack([col, -tau])
    return complex(math.ldexp(mant.real, expo), math.ldexp(mant.imag, expo))


def ungauged_wick_matrix(table, sites: np.ndarray, is_a: np.ndarray) -> np.ndarray:
    """The complex Wick matrix <o_i o_j> from a correlator table's G and S.

    Entry (i, j) at d = sites[j] - sites[i]: S(d) for one kind, G(d) for
    <B A> and -G(-d) for <A B>.
    """
    r = table.r_max
    g = np.array([table.G(d) for d in range(-r, r + 1)])
    s = np.array([table.S(d) if d else 0.0 for d in range(-r, r + 1)])
    d = sites[None, :] - sites[:, None] + r
    same = is_a[:, None] == is_a[None, :]
    return np.where(same, s[d], np.where(is_a[None, :], g[d], -g[2 * r - d]))
