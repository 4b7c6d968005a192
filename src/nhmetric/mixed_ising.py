"""Full exact diagonalization of the non-Hermitian mixed-field Ising chain.

H = -J sum sigma^z_l sigma^z_{l+1} + h_x sum sigma^x_l + i h_z sum sigma^z_l

The transverse field h_x is real, the longitudinal field i h_z purely
imaginary, so the chain is non-integrable and PT-symmetric-like: the
ground energy stays real in the paramagnetic region and acquires an
imaginary part in the ferromagnetic one.  N <= 12 keeps the dense 2^N
matrix tractable.  The zz, sigma^z and flip terms come from
:func:`spinops.site_operator`, which alone fixes the spin basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spinops import site_operator

PBC = "pbc"
OBC = "obc"


@dataclass(frozen=True)
class MixedSpec:
    """Mixed-field chain parameters in units of J."""

    N: int = 10
    J: float = 1.0
    h_x: float = 0.0
    h_z: float = 0.0
    bc: str = PBC

    def __post_init__(self):
        if not 2 <= self.N <= 12:
            raise ValueError("N must lie in [2, 12] for dense diagonalization")
        if self.bc not in (PBC, OBC):
            raise ValueError(f"bc must be '{PBC}' or '{OBC}', got {self.bc!r}")

    def build(self) -> np.ndarray:
        return build_mixed(self)


def _sz_total(N: int) -> np.ndarray:
    """sum_l sigma^z_l per basis state, exact integers in float."""
    return sum(site_operator(N, {l: "z"})[1] for l in range(N))


def build_mixed(spec: MixedSpec) -> np.ndarray:
    """Dense 2^N x 2^N Hamiltonian (real-valued when h_z = 0).

    The zz bond sum wraps around under periodic boundaries and stops at
    l = N - 1 under open ones; the field sums always run over all sites.
    -J and i h_z multiply the exact integer zz and sigma^z sums once; a
    per-term sum rounds differently and can swap a tied conjugate pair.
    """
    N = spec.N
    dim = 2**N

    bonds = range(N if spec.bc == PBC else N - 1)
    zz = sum(site_operator(N, {l: "z", l + 1: "z"})[1] for l in bonds)

    if spec.h_z == 0.0:
        H = np.zeros((dim, dim), dtype=float)
        np.fill_diagonal(H, -spec.J * zz)
    else:
        H = np.zeros((dim, dim), dtype=complex)
        np.fill_diagonal(H, -spec.J * zz + 1j * spec.h_z * _sz_total(N))

    if spec.h_x != 0.0:
        for l in range(N):
            H[site_operator(N, {l: "x"})[0], np.arange(dim)] += spec.h_x
    return H


def magnetization(psi: np.ndarray, N: int) -> float:
    """Right-state magnetization M_z = <psi| sum_l sigma^z_l |psi> / N, real as sigma^z is diagonal.

    The antiunitary prod sigma^x K maps the two members of a conjugate pair
    tied in Re E onto each other and flips M_z, and rounding picks which one
    is state 0; so the sweep records the pair-invariant |M_z|.
    """
    psi = np.asarray(psi)
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("psi must be normalized")
    if len(psi) != 2**N:
        raise ValueError(f"psi has length {len(psi)}, expected 2**{N}")
    return float(np.sum(np.abs(psi) ** 2 * _sz_total(N)) / N)
