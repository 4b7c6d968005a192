"""Dense Kronecker-chain spin operators: the independent reference for spinops.

Site 0 is the leftmost Kronecker factor, spin up is (1, 0) and
sigma_z = diag(1, -1).
"""

import numpy as np

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

