"""Two non-Hermitian generalized Aubry-Andre chains and their diagnostics.

Model 1 modulates both the on-site potential and the hopping amplitude and
carries two non-Hermiticity knobs: a nonreciprocal hopping factor
``exp(+-g)`` and a complex potential phase ``h``.  Model 2 has uniform
(nonreciprocal) hopping and the smoothly deformed potential

    eps_j = Delta cos(2 pi beta j) / (1 - alpha cos(2 pi beta j)),

whose Hermitian limit hosts an exact mobility edge E_c = (2t - Delta)/alpha.
The incommensuration beta is the inverse golden ratio; periodic chains
should use Fibonacci lengths so the wrap bond stays consistent with it.

Both builders accept a boundary coupling ``zeta`` scaling the wrap bond:
0 is open, 1 standard periodic, values between interpolate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg, metric
from .errors import AlphaZeroError, PotentialSingularError

#: inverse golden ratio, the standard incommensurate modulation frequency
GOLDEN_BETA = (np.sqrt(5.0) - 1.0) / 2.0

#: chain lengths commensurate with GOLDEN_BETA under periodic boundaries
FIBONACCI_SIZES = (34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584)


#: the observables of both chains: the metric and spectrum plus the localization of state 0
_OBSERVABLES = {
    **metric.READERS,
    "eta": lambda point, parameter: {"eta": fractal_dimension(point.ground)},
    "pr": lambda point, parameter: {"pr": participation_ratio(point.ground)},
}


def _check_common(L: int, zeta: float) -> None:
    if L < 3:
        raise ValueError(f"L must be >= 3, got {L}")
    if not 0.0 <= zeta <= 1.0:
        raise ValueError(f"zeta must lie in [0, 1], got {zeta}")


@dataclass(frozen=True)
class Gaa1Spec:
    """Chain with modulated potential V1 and modulated hopping V2.

    ``g`` is the nonreciprocal hopping strength, ``h`` the complex phase of
    the potential; both vanish in the Hermitian limit.
    """

    L: int
    t: float = 1.0
    V1: float = 0.0
    V2: float = 0.0
    g: float = 0.0
    h: float = 0.0
    beta: float = GOLDEN_BETA
    zeta: float = 1.0

    def __post_init__(self):
        metric.check_finite(self)
        _check_common(self.L, self.zeta)

    def build(self) -> np.ndarray:
        return build_gaa1(self)

    def derivative(self, parameter: str) -> np.ndarray:
        """Exact dH along the float field ``parameter``; ValueError for any other name."""
        return _chain(self, _gaa1_arrays, parameter)

    diagonalize = linalg.diagonalize
    observe = metric.observe
    OBSERVABLES = _OBSERVABLES


@dataclass(frozen=True)
class Gaa2Spec:
    """Chain with the deformed quasiperiodic potential of amplitude Delta.

    ``alpha`` in (-1, 1) controls the deformation; alpha = 0 recovers the
    standard Aubry-Andre potential.
    """

    L: int
    t: float = 1.0
    Delta: float = 0.0
    alpha: float = 0.0
    g: float = 0.0
    beta: float = GOLDEN_BETA
    zeta: float = 1.0

    def __post_init__(self):
        metric.check_finite(self)
        _check_common(self.L, self.zeta)
        if not abs(self.alpha) < 1.0:
            raise ValueError(f"|alpha| must be < 1, got {self.alpha}")

    def build(self) -> np.ndarray:
        return build_gaa2(self)

    def derivative(self, parameter: str) -> np.ndarray:
        """Exact dH along the float field ``parameter``; ValueError for any other name."""
        return _chain(self, _gaa2_arrays, parameter)

    diagonalize = linalg.diagonalize
    observe = metric.observe
    OBSERVABLES = _OBSERVABLES


def _chain(spec, arrays, along: str | None = None) -> np.ndarray:
    """Dense L x L nonreciprocal ring of either chain, or its exact derivative ``along`` a field.

    ``arrays(spec, along)`` gives the on-site and bond arrays, whose dtype H
    takes.  Bond j (site j to site j + 1) carries bonds[j] exp(-g) on
    c^dag_{j+1} c_j and bonds[j] exp(+g) on c^dag_j c_{j+1}; the wrap bond
    (site L to site 1) carries the last one, scaled by zeta.  H is linear in
    the arrays, so along a field other than g and zeta (which act on the
    ring) ``arrays`` gives their derivatives, and the ring they fill is dH.
    """
    terms, L = arrays(spec, along), spec.L
    if terms is None:
        raise ValueError(f"{type(spec).__name__} has no real-valued field {along!r}")
    onsite, bonds = (np.broadcast_to(a, L) for a in terms)
    fwd, bwd, zeta = np.exp(-spec.g), np.exp(spec.g), spec.zeta
    if along == "g":
        onsite, fwd = 0.0, -fwd
    elif along == "zeta":
        onsite, bonds, zeta = 0.0, np.where(np.arange(L) == L - 1, bonds, 0.0), 1.0
    H = np.zeros((L, L), dtype=np.result_type(onsite, bonds))
    idx = np.arange(L - 1)
    H[idx + 1, idx] = bonds[:-1] * fwd
    H[idx, idx + 1] = bonds[:-1] * bwd
    H[np.arange(L), np.arange(L)] = onsite
    H[0, L - 1] = zeta * bonds[-1] * fwd
    H[L - 1, 0] = zeta * bonds[-1] * bwd
    return H


def _gaa1_arrays(spec: Gaa1Spec, along: str | None) -> tuple | None:
    """On-site and bond arrays of model 1 for :func:`_chain`; None along a field it lacks."""
    j = np.arange(1, spec.L + 1)
    w = 2.0 * np.pi * spec.beta
    # a real phase at h = 0 keeps H real
    site, bond = w * j + (1j * spec.h if spec.h != 0.0 else 0.0), w * (j + 0.5)
    if along in (None, "g", "zeta"):
        return spec.V1 * np.cos(site), spec.t + spec.V2 * np.cos(bond)
    return {
        "t": (0.0, 1.0),
        "V1": (np.cos(site), 0.0),
        "V2": (0.0, np.cos(bond)),
        "h": (-1j * spec.V1 * np.sin(site), 0.0),
        "beta": (-2.0 * np.pi * j * spec.V1 * np.sin(site),
                 -2.0 * np.pi * (j + 0.5) * spec.V2 * np.sin(bond)),
    }.get(along)


def _gaa2_arrays(spec: Gaa2Spec, along: str | None) -> tuple | None:
    """On-site and bond arrays of model 2 for :func:`_chain`; None along a field it lacks."""
    j = np.arange(1, spec.L + 1)
    phase = 2.0 * np.pi * spec.beta * j
    c = np.cos(phase)
    denom = 1.0 - spec.alpha * c
    if np.any(np.abs(denom) < 1e-12):
        # cannot happen for |alpha| < 1; guards corrupted specs
        raise PotentialSingularError("on-site potential denominator vanished")
    if along in (None, "g", "zeta"):
        return spec.Delta * c / denom, np.full(spec.L, spec.t)
    return {
        "t": (0.0, 1.0),
        "Delta": (c / denom, 0.0),
        "alpha": (spec.Delta * c**2 / denom**2, 0.0),
        "beta": (-2.0 * np.pi * j * spec.Delta * np.sin(phase) / denom**2, 0.0),
    }.get(along)


def build_gaa1(spec: Gaa1Spec) -> np.ndarray:
    """Dense L x L Hamiltonian of model 1.

    Site indices are 1-based in the modulation formulas.  Bond j carries
    hopping t_j = t + V2 cos[2 pi beta (j + 1/2)]; the wrap bond (site L to
    site 1) uses t_L and is scaled by zeta.  The on-site term is the
    complex cosine V1 cos(2 pi beta j + i h).  The returned dtype is real
    when h = 0.
    """
    return _chain(spec, _gaa1_arrays)


def build_gaa2(spec: Gaa2Spec) -> np.ndarray:
    """Dense L x L Hamiltonian of model 2 (always real-valued)."""
    return _chain(spec, _gaa2_arrays)


def _fourth_moment(psi: np.ndarray) -> float:
    p = np.abs(psi) ** 2
    nrm = np.sqrt(p.sum())
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"state must be normalized, got norm {nrm!r}")
    return float(p @ p)


def fractal_dimension(psi: np.ndarray) -> float:
    """Fractal dimension eta = -ln(sum_j |psi_j|^4) / ln(L), with L = len(psi).

    1 for a perfectly extended state, 0 for a single-site state,
    intermediate values in the critical regime.  Needs L >= 2.
    """
    L = len(psi)
    if L < 2:
        raise ValueError("L must be >= 2")
    return float(-np.log(_fourth_moment(psi)) / np.log(L))


def participation_ratio(psi: np.ndarray) -> float:
    """Participation ratio PR = 1 / (L sum_j |psi_j|^4), in (0, 1], with L = len(psi)."""
    return float(1.0 / (len(psi) * _fourth_moment(psi)))


def gaa1_critical_v1(t: float, V2: float, g: float, h: float) -> float:
    """Analytic localization-transition potential amplitude of model 1.

    V1c = exp(-|h|) (2 K cosh|g| + 2 sqrt(K^2 - V2^2) sinh|g|) with
    K = max(t, V2); the square root vanishes identically once V2 > t.
    Reduces to the self-duality value 2t for g = h = 0 and V2 <= t.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    K = max(t, V2)
    root = np.sqrt(max(K**2 - V2**2, 0.0))
    return float(
        np.exp(-abs(h)) * (2.0 * K * np.cosh(abs(g)) + 2.0 * root * np.sinh(abs(g)))
    )


def gaa2_mobility_edge(t: float, Delta: float, alpha: float) -> float:
    """Exact Hermitian mobility edge E_c = (2t - Delta) / alpha of model 2."""
    if alpha == 0.0:
        raise AlphaZeroError("no mobility edge in the standard AA limit alpha = 0")
    return float((2.0 * t - Delta) / alpha)
