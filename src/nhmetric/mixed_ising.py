"""Exact diagonalization of the non-Hermitian mixed-field Ising chain.

H = -J sum sigma^z_l sigma^z_{l+1} + h_x sum sigma^x_l + i h_z sum sigma^z_l

The transverse field h_x is real, the longitudinal field i h_z purely
imaginary, so the chain is non-integrable and PT-symmetric-like: the
ground energy stays real in the paramagnetic region and acquires an
imaginary part in the ferromagnetic one.  The periodic chain is
translation invariant, so its H is block-diagonal in momentum: a
:class:`MixedSector` is the block at k = 2 pi m / N, about 2^N / N states
(a :class:`spinops.Sector`), and reaches N = 14.  Every term is invariant
under site reflection, so the blocks m and N - m share one spectrum, and
:func:`spinops.diagonalize` solves only m = 0, ..., N // 2.  The metric
of state 0 is taken inside that state's block, exactly, as dH, like H,
has no entries between momenta.  The open chain, and every dense matrix,
stay at N <= 12, where the 2^N matrix is tractable; the dense H is the
oracle of the blocks.  :meth:`MixedSpec.diagonalize` picks the blocks or
the dense H by the boundary conditions.  One term list, ``_terms``,
writes the chain: :mod:`spinops`, which alone fixes the spin basis,
builds from it the dense H, the blocks and, at a unit field, dH.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg, metric, spinops
from .spinops import DENSE_MAX_N, SECTOR_MAX_N, site_operator

PBC = "pbc"
OBC = "obc"

#: the real-valued fields, in each of which H is linear
FIELDS = ("J", "h_x", "h_z")


@dataclass(frozen=True)
class MixedSpec:
    """Mixed-field chain parameters in units of J.

    N reaches :data:`~nhmetric.spinops.SECTOR_MAX_N` under periodic
    boundaries, whose H is diagonalized by momentum block
    (:meth:`diagonalize`), and :data:`~nhmetric.spinops.DENSE_MAX_N` under
    open ones; :meth:`build` is the dense H and needs N <= DENSE_MAX_N.
    """

    N: int = 10
    J: float = 1.0
    h_x: float = 0.0
    h_z: float = 0.0
    bc: str = PBC

    def __post_init__(self):
        metric.check_finite(self)
        if self.bc not in (PBC, OBC):
            raise ValueError(f"bc must be '{PBC}' or '{OBC}', got {self.bc!r}")
        top = SECTOR_MAX_N if self.bc == PBC else DENSE_MAX_N
        if not 2 <= self.N <= top:
            raise ValueError(f"N must lie in [2, {top}] under {self.bc}, got {self.N}")

    def build(self) -> np.ndarray:
        return build_mixed(self)

    def derivative(self, parameter: str) -> np.ndarray:
        """Exact dH along J, h_x or h_z, in which H is jointly linear; ValueError otherwise."""
        return build_mixed(spinops.unit_field(self, FIELDS, parameter))

    def diagonalize(self) -> linalg.Diagonalized:
        """H solved by momentum block if periodic (:func:`spinops.diagonalize`), else dense."""
        if self.bc == PBC:
            return spinops.diagonalize(MixedSector(self.N, 0, self.J, self.h_x, self.h_z))
        return linalg.diagonalize(self)

    observe = metric.observe
    OBSERVABLES = {
        **metric.READERS,
        # |M_z| is the same on both members of a conjugate pair tied in Re E
        "magnetization": lambda point, parameter: {
            "Mz": abs(magnetization(point.ground, point.model.N))
        },
    }


@dataclass(frozen=True)
class MixedSector(spinops.Sector):
    """The block of the periodic chain at momentum k = 2 pi m / N (:class:`spinops.Sector`)."""

    # the h_x string flips prod sigma^z, so the chain has no parity blocks
    parity: None = field(default=None, init=False, repr=False)
    J: float = 1.0
    h_x: float = 0.0
    h_z: float = 0.0

    FIELDS = FIELDS

    def terms(self):
        return _terms(self)


def _terms(model: MixedSpec | MixedSector):
    """The terms at site 0 whose translates sum to H (:func:`spinops.dense_operator`)."""
    return ((-model.J, {0: "z", 1: "z"}), (model.h_x, {0: "x"}), (1j * model.h_z, {0: "z"}))


@functools.cache
def _sz_total(N: int) -> np.ndarray:
    """sum_l sigma^z_l per basis state, exact integers in float; built once per N."""
    total = sum(site_operator(N, {l: "z"})[1] for l in range(N))
    total.flags.writeable = False
    return total


def build_mixed(spec: MixedSpec) -> np.ndarray:
    """Dense 2^N x 2^N H of ``spec.bc`` (:func:`spinops.dense_operator`), real when h_z = 0."""
    return spinops.dense_operator(spec.N, _terms(spec), periodic=spec.bc == PBC)


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
