"""Unblocked Parlett-Reid Pfaffian: the independent reference for linalg.pfaffian.

One rank-2 update of the whole trailing block per pivot step, with the
same partial pivoting and scaled mantissa/exponent product as the blocked
kernel, so the two differ only in the order of rounding.
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
            A[[k + 1, kp], :] = A[[kp, k + 1], :]
            A[:, [k + 1, kp]] = A[:, [kp, k + 1]]
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
            upd = np.outer(tau, col)
            A[k + 2 :, k + 2 :] += upd
            A[k + 2 :, k + 2 :] -= upd.T
    return complex(math.ldexp(mant.real, expo), math.ldexp(mant.imag, expo))
