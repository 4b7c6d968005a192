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

from .errors import AlphaZeroError, PotentialSingularError

#: inverse golden ratio, the standard incommensurate modulation frequency
GOLDEN_BETA = (np.sqrt(5.0) - 1.0) / 2.0

#: chain lengths commensurate with GOLDEN_BETA under periodic boundaries
FIBONACCI_SIZES = (34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584)


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
        _check_common(self.L, self.zeta)

    def build(self) -> np.ndarray:
        return build_gaa1(self)


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
        _check_common(self.L, self.zeta)
        if not abs(self.alpha) < 1.0:
            raise ValueError(f"|alpha| must be < 1, got {self.alpha}")

    def build(self) -> np.ndarray:
        return build_gaa2(self)


def _chain(onsite: np.ndarray, hopping: np.ndarray, g: float, zeta: float) -> np.ndarray:
    """Dense L x L nonreciprocal chain, of the dtype of ``onsite``.

    ``onsite`` fills the diagonal.  Bond j (site j to site j + 1) carries
    hopping[j] exp(-g) on c^dag_{j+1} c_j and hopping[j] exp(+g) on
    c^dag_j c_{j+1}; the wrap bond (site L to site 1) carries the last
    hopping, scaled by ``zeta``.
    """
    L = len(onsite)
    fwd = np.exp(-g)
    bwd = np.exp(g)
    H = np.zeros((L, L), dtype=onsite.dtype)
    idx = np.arange(L - 1)
    H[idx + 1, idx] = hopping[:-1] * fwd
    H[idx, idx + 1] = hopping[:-1] * bwd
    H[np.arange(L), np.arange(L)] = onsite
    H[0, L - 1] = zeta * hopping[-1] * fwd
    H[L - 1, 0] = zeta * hopping[-1] * bwd
    return H


def build_gaa1(spec: Gaa1Spec) -> np.ndarray:
    """Dense L x L Hamiltonian of model 1.

    Site indices are 1-based in the modulation formulas.  Bond j carries
    hopping t_j = t + V2 cos[2 pi beta (j + 1/2)]; the wrap bond (site L to
    site 1) uses t_L and is scaled by zeta.  The on-site term is the
    complex cosine V1 cos(2 pi beta j + i h).  The returned dtype is real
    when h = 0.
    """
    j = np.arange(1, spec.L + 1)
    t_j = spec.t + spec.V2 * np.cos(2.0 * np.pi * spec.beta * (j + 0.5))
    phase = 2.0 * np.pi * spec.beta * j
    if spec.h == 0.0:
        onsite = spec.V1 * np.cos(phase)
    else:
        onsite = spec.V1 * np.cos(phase + 1j * spec.h)
    return _chain(onsite, t_j, spec.g, spec.zeta)


def build_gaa2(spec: Gaa2Spec) -> np.ndarray:
    """Dense L x L Hamiltonian of model 2 (always real-valued)."""
    j = np.arange(1, spec.L + 1)
    c = np.cos(2.0 * np.pi * spec.beta * j)
    denom = 1.0 - spec.alpha * c
    if np.any(np.abs(denom) < 1e-12):
        # cannot happen for |alpha| < 1; guards corrupted specs
        raise PotentialSingularError("on-site potential denominator vanished")
    return _chain(spec.Delta * c / denom, np.full(spec.L, spec.t), spec.g, spec.zeta)


def _fourth_moment(psi: np.ndarray) -> float:
    psi = np.asarray(psi)
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"state must be normalized, got norm {nrm!r}")
    return float(np.sum(np.abs(psi) ** 4))


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
