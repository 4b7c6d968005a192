"""Dense complex linear algebra shared by every model.

Right eigendecompositions of non-Hermitian matrices, overlap-based
eigenstate matching across parameter steps, Pfaffians of skew-symmetric
matrices by Parlett-Reid tridiagonalization, and least-squares line fits.
All functions are pure; nothing here holds state.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    AmbiguousMatchWarning,
    DefectiveMatrixWarning,
    DegenerateAbscissaError,
    NonConvergenceError,
    NotSkewSymmetricError,
)

# Eigenvalues closer than this are treated as coincident when probing for
# a defective (exceptional-point) decomposition.
DEFECTIVE_EIGENVALUE_TOL = 1e-10
DEFECTIVE_OVERLAP_TOL = 1e-8


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues and self-normalized right eigenvectors of a dense matrix.

    Column ``n`` of ``vectors`` is the right eigenvector belonging to
    ``eigenvalues[n]``.  Every column has unit Euclidean norm.  The
    eigenvalues are sorted by real part, ties broken by ascending
    imaginary part.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class FitResult:
    """Ordinary least-squares line fit y = slope * x + intercept."""

    slope: float
    intercept: float
    rms_residual: float


def _validate_square(H: np.ndarray) -> np.ndarray:
    H = np.asarray(H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {H.shape}")
    if H.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not np.all(np.isfinite(H)):
        raise ValueError("matrix contains non-finite entries")
    return H


def _is_hermitian(H: np.ndarray) -> bool:
    return np.array_equal(H, H.conj().T)


def eig_right(H: np.ndarray) -> EigenSystem:
    """Right eigendecomposition sorted by ascending real part.

    Hermitian input is detected and routed through the (much faster)
    symmetric solver; the result contract is identical.  Near-coincident
    eigenvalues whose eigenvectors have collapsed onto each other raise a
    :class:`DefectiveMatrixWarning` instead of failing, because exceptional
    points are legitimate physics in the models treated here.

    Parameters
    ----------
    H : (d, d) array_like
        Square matrix with finite entries.  A real dtype is allowed and
        exploits the real LAPACK driver.

    Returns
    -------
    EigenSystem
    """
    H = _validate_square(H)
    try:
        if _is_hermitian(H):
            w, v = sla.eigh(H, check_finite=False)
            w = w.astype(complex)
            v = v.astype(complex)
        else:
            w, v = sla.eig(H, check_finite=False)
    except sla.LinAlgError as exc:
        raise NonConvergenceError(f"eigensolver did not converge: {exc}") from exc

    order = np.lexsort((w.imag, w.real))
    w = w[order]
    v = v[:, order]
    v = v / np.linalg.norm(v, axis=0, keepdims=True)

    gaps = np.abs(np.diff(w))
    for i in np.nonzero(gaps < DEFECTIVE_EIGENVALUE_TOL)[0]:
        overlap = abs(np.vdot(v[:, i], v[:, i + 1]))
        if overlap > 1.0 - DEFECTIVE_OVERLAP_TOL:
            warnings.warn(
                f"eigenvalues {w[i]:g} and {w[i + 1]:g} coincide within "
                f"{DEFECTIVE_EIGENVALUE_TOL:g} and their eigenvectors overlap "
                f"({overlap:.12f}); decomposition is ill-conditioned near an "
                "exceptional point",
                DefectiveMatrixWarning,
                stacklevel=2,
            )

    return EigenSystem(eigenvalues=w, vectors=v)


def match_states(prev: EigenSystem, next: EigenSystem) -> np.ndarray:
    """Greedy overlap matching of eigenstates across a parameter step.

    Assigns to every state of ``prev`` exactly one state of ``next``,
    consuming (state, candidate) pairs in order of descending overlap
    magnitude, so the permutation greedily maximizes the summed overlaps.

    Returns
    -------
    perm : (d,) int ndarray
        ``perm[n]`` is the index in ``next`` matched to state ``n`` of
        ``prev``.  Warns :class:`AmbiguousMatchWarning` if any assigned
        overlap magnitude is below 0.5.
    """
    if prev.dim != next.dim:
        raise ValueError(f"dimension mismatch: {prev.dim} vs {next.dim}")
    d = prev.dim
    overlaps = np.abs(prev.vectors.conj().T @ next.vectors)

    perm = np.full(d, -1, dtype=np.intp)
    row_free = np.ones(d, dtype=bool)
    col_free = np.ones(d, dtype=bool)
    flat_order = np.argsort(overlaps, axis=None)[::-1]
    assigned = 0
    worst = 1.0
    for flat in flat_order:
        i, j = divmod(int(flat), d)
        if row_free[i] and col_free[j]:
            perm[i] = j
            row_free[i] = False
            col_free[j] = False
            worst = min(worst, overlaps[i, j])
            assigned += 1
            if assigned == d:
                break

    if worst < 0.5:
        warnings.warn(
            f"weakest matched overlap is {worst:.3f} (< 0.5); states changed "
            "too fast for the parameter step",
            AmbiguousMatchWarning,
            stacklevel=2,
        )
    return perm


def pfaffian(A: np.ndarray, skew_tol: float = 1e-10) -> complex:
    """Pfaffian of a skew-symmetric matrix via Parlett-Reid reduction.

    Tridiagonalizes by congruence with partial pivoting and accumulates the
    signed Pfaffian exactly (the intermediate product is kept in scaled
    mantissa/exponent form so large matrices do not overflow).  Odd
    dimension returns 0.  Satisfies ``pfaffian(A)**2 == det(A)``.

    Raises
    ------
    NotSkewSymmetricError
        If ``max|A + A.T|`` exceeds ``skew_tol``.
    """
    A = _validate_square(A)
    dev = np.max(np.abs(A + A.T)) if A.size else 0.0
    if dev > skew_tol:
        raise NotSkewSymmetricError(
            f"matrix is not skew-symmetric: max|A + A.T| = {dev:g} > {skew_tol:g}"
        )
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
        # renormalize to keep |mant| in a safe range
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
    return complex(mant * 2.0**expo)


def fit_linear(x: np.ndarray, y: np.ndarray) -> FitResult:
    """Ordinary least-squares straight-line fit.

    Raises :class:`DegenerateAbscissaError` when all x coincide.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if x.size < 2:
        raise ValueError("need at least two points")
    if np.ptp(x) == 0.0:
        raise DegenerateAbscissaError("all abscissa values are equal")

    xm = x.mean()
    ym = y.mean()
    slope = float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))
    intercept = float(ym - slope * xm)
    resid = y - (slope * x + intercept)
    rms = float(np.sqrt(np.mean(resid**2)))
    return FitResult(slope=slope, intercept=intercept, rms_residual=rms)
