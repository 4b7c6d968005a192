"""Dense complex linear algebra shared by every model.

Right eigendecompositions of non-Hermitian matrices (a model's dense H:
:func:`diagonalize`), overlap-based eigenstate matching across parameter
steps, Pfaffians of skew-symmetric matrices (real ones by one LAPACK
Bunch-Kaufman factorization of -iA, complex ones by blocked Parlett-Reid
tridiagonalization, Wimmer, ACM Trans. Math. Softw. 38, 30 (2012)), and
least-squares line fits.  All of these are pure.  :func:`blas_threads`
sets the thread count of the OpenBLAS pools that numpy and scipy call,
the one process-wide setting here.

BLAS threads: numpy and scipy each call their own OpenBLAS pool, and on
few cores the two pools slow each other down.  Every :func:`eig_right`
call runs its LAPACK work on one thread in both pools, at every size, and
every point of a sweep (:func:`nhmetric.sweep.run_sweep`) runs the whole
of its work on one thread, serially or in a pool worker alike; the
caller's counts come back on return, also when the work raises.  A
result therefore does not depend on the caller's thread counts, nor a
sweep's CSV on its worker count.  The counts are process-wide, so Python
threads that call :func:`eig_right` at once can leave them at one thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import math
import os
import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np
import scipy
import scipy.linalg as sla

from .errors import (
    AmbiguousMatchWarning,
    DefectiveMatrixWarning,
    DegenerateAbscissaError,
    DegenerateGroundStateWarning,
    NonConvergenceError,
    NotSkewSymmetricError,
    PfaffianOverflowError,
)

# Eigenvalues closer than this are treated as coincident when probing for
# a defective (exceptional-point) decomposition.
DEFECTIVE_EIGENVALUE_TOL = 1e-10
DEFECTIVE_OVERLAP_TOL = 1e-8

#: reciprocal 1-norm condition number of the right eigenvectors below which
#: eig_right warns; eigenvectors and the metric's solve(V, dH V) then carry
#: errors of order eps / rcond.  On open nonreciprocal gaa1 chains (zeta = 0,
#: g in [0.2, 0.6], L = 55, 89, 144) the metric's relative error stayed
#: below 1e-5 above this rcond and reached 6e-4 at 1.5e-16, 0.07 at 7e-19;
#: g = 0.5 gives rcond 7.2e-13 at L = 55 and 1e-21 at L = 89.
RCOND_TOL = 1e-14

#: largest max|A + A.T| that :func:`pfaffian` accepts as skew-symmetric; the
#: Wick matrices it receives are antisymmetric by construction, up to roundoff
SKEW_TOL = 1e-10

#: pivot steps per panel of the blocked Parlett-Reid reduction that
#: :func:`pfaffian` runs on complex input only (real input goes to LAPACK).
#: Chosen when that kernel also served real input: there 48 and 64 tied at
#: n = 2000 and 32 and 128 were 5-20% slower, while at n = 400 the per-step
#: matrix-vector products dominate and the panel size hardly matters
PFAFFIAN_BLOCK = 64

#: OpenBLAS libraries bundled in numpy's and scipy's wheels:
#: ``libscipy_openblas64_-*.so`` / ``libscipy_openblas-*.so`` from numpy 2
#: and scipy 1.13 on, ``libopenblas64_p-r0-*.so`` / ``libopenblasp-r0-*.so``
#: before them
OPENBLAS_GLOB = "*openblas*.so"

#: thread-count symbols of those builds, ``{}`` standing for get or set:
#: the ``scipy_openblas`` prefix of the newer wheels, the ``64_`` suffix of
#: numpy's 64-bit-integer build
OPENBLAS_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)

#: build-string symbols of the same builds (version, build options, core)
OPENBLAS_CONFIG_SYMBOLS = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _thread_functions(lib) -> tuple | None:
    """(get, set) thread-count functions of an OpenBLAS library; None if it has neither."""
    for symbol in OPENBLAS_SYMBOLS:
        get = getattr(lib, symbol.format("get"), None)
        set_ = getattr(lib, symbol.format("set"), None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _config_string(lib) -> str | None:
    """Build string of an OpenBLAS library; None if it exports none."""
    for symbol in OPENBLAS_CONFIG_SYMBOLS:
        get = getattr(lib, symbol, None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            return get().decode()
    return None


@functools.cache
def _openblas_libraries() -> dict[str, ctypes.CDLL]:
    """The OpenBLAS library of each pool found, by package.

    numpy and scipy each bundle their own OpenBLAS in ``<package>.libs``
    next to the package; ``ctypes`` opens the copy already loaded into the
    process.  Another BLAS build has no such library and is left out, so
    :func:`blas_threads` leaves it alone.
    """
    libraries = {}
    for package in (np, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)), f"{package.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libdir, OPENBLAS_GLOB))):
            lib = ctypes.CDLL(path)
            if _thread_functions(lib) is not None:
                libraries[package.__name__] = lib
                break
    return libraries


@functools.cache
def _openblas_pools() -> dict[str, tuple]:
    """(get, set) thread-count functions of each OpenBLAS pool found, by package."""
    return {name: _thread_functions(lib) for name, lib in _openblas_libraries().items()}


def blas_configs() -> dict[str, str | None]:
    """Build string of numpy's and scipy's OpenBLAS; None for a pool not found."""
    libraries = _openblas_libraries()
    return {
        name: _config_string(libraries[name]) if name in libraries else None
        for name in ("numpy", "scipy")
    }


def blas_thread_counts() -> dict[str, int | None]:
    """Thread count of numpy's and scipy's OpenBLAS pool; None for a pool not found."""
    pools = _openblas_pools()
    return {name: pools[name][0]() if name in pools else None for name in ("numpy", "scipy")}


@contextlib.contextmanager
def blas_threads(n: int):
    """Run the block with ``n`` threads in both OpenBLAS pools.

    Each pool gets its previous count back on exit, also when the block
    raises.  A process where no OpenBLAS pool is found is left as it is.
    """
    pools = _openblas_pools()
    previous = {name: get() for name, (get, _) in pools.items()}
    try:
        for _, set_ in pools.values():
            set_(n)
        yield
    finally:
        for name, (_, set_) in pools.items():
            set_(previous[name])


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues and self-normalized right eigenvectors of a dense matrix.

    Column ``n`` of ``vectors`` is the right eigenvector belonging to
    ``eigenvalues[n]``.  Every column has unit Euclidean norm.  The
    eigenvalues are sorted by real part, ties broken by ascending
    imaginary part, and are complex.  ``hermitian`` records that
    :func:`eig_right` found the matrix Hermitian and took the symmetric
    solver, so ``vectors`` is unitary: real orthogonal (float64) for a real
    symmetric matrix, complex otherwise; a system built by hand leaves it
    False.  ``rcond`` is the reciprocal 1-norm condition number of
    ``vectors`` that LAPACK ``?gecon`` estimates on the general branch; it
    is not estimated for a unitary ``vectors`` and reads 1 there.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    hermitian: bool = False
    rcond: float = 1.0

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class Diagonalized:
    """The solved H of a model, as each model's ``diagonalize()`` returns it.

    ``system`` is ``eig_right(model.build())``, and its state 0 is the
    whole H's state 0: ``model`` is the solved model itself, or for a
    periodic spin chain the momentum block that holds state 0.
    ``eigenvalues`` is the whole spectrum, sorted as :func:`eig_right`
    sorts, and ``ground`` state 0 on the model's own basis.
    """

    model: Any
    system: EigenSystem
    eigenvalues: np.ndarray
    ground: np.ndarray


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


def _rcond(v: np.ndarray) -> float:
    """Reciprocal 1-norm condition number of ``v``: one LU, then LAPACK ``?gecon``."""
    getrf, gecon = sla.lapack.get_lapack_funcs(("getrf", "gecon"), (v,))
    lu, _, info = getrf(v)
    if info > 0:  # an exactly zero pivot: V is singular
        return 0.0
    rcond, _ = gecon(lu, np.max(np.sum(np.abs(v), axis=0)), norm="1")
    return float(rcond)


def eig_right(H: np.ndarray) -> EigenSystem:
    """Right eigendecomposition sorted by ascending real part.

    Hermitian input is detected and routed through the (much faster)
    symmetric solver, whose eigenvalues already ascend; the result
    contract is identical, except that the vectors of a real symmetric H
    stay real (float64; the eigenvalues are complex on every branch).
    Real symmetric input takes LAPACK's divide-and-conquer driver
    ``?syevd`` (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16, 172
    (1995)), 1.2-1.7x faster than the default ``?syevr`` here; complex
    Hermitian input keeps ``?heevr``, which ``?heevd`` does not beat.
    Near-coincident
    eigenvalues whose eigenvectors have collapsed onto each other raise a
    :class:`DefectiveMatrixWarning` instead of failing, because exceptional
    points are legitimate physics in the models treated here.  So does a
    non-normal H whose eigenvector matrix is ill-conditioned as a whole
    (``rcond`` below :data:`RCOND_TOL`, e.g. the skin effect of an open
    nonreciprocal chain), where the vectors carry errors of order
    eps / rcond.

    The LAPACK work runs on one BLAS thread, by the rule of the module
    docstring.

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
    hermitian = _is_hermitian(H)
    with blas_threads(1):
        try:
            if hermitian:
                # eigh's eigenvalues ascend already; its vectors keep H's dtype
                driver = None if np.iscomplexobj(H) else "evd"
                w, v = sla.eigh(H, check_finite=False, driver=driver)
                w = w.astype(complex)
            else:
                w, v = sla.eig(H, check_finite=False)
                order = np.lexsort((w.imag, w.real))
                w, v = w[order], v[:, order]
        except sla.LinAlgError as exc:
            raise NonConvergenceError(f"eigensolver did not converge: {exc}") from exc

        v /= np.linalg.norm(v, axis=0, keepdims=True)
        rcond = 1.0 if hermitian else _rcond(v)

    gaps = np.abs(np.diff(w))
    collapsed = False
    for i in np.nonzero(gaps < DEFECTIVE_EIGENVALUE_TOL)[0]:
        overlap = abs(np.vdot(v[:, i], v[:, i + 1]))
        if overlap > 1.0 - DEFECTIVE_OVERLAP_TOL:
            collapsed = True
            warnings.warn(
                f"eigenvalues {w[i]:g} and {w[i + 1]:g} coincide within "
                f"{DEFECTIVE_EIGENVALUE_TOL:g} and their eigenvectors overlap "
                f"({overlap:.12f}); decomposition is ill-conditioned near an "
                "exceptional point",
                DefectiveMatrixWarning,
                stacklevel=2,
            )

    # collapsed vectors make V singular too; one warning names the cause
    if rcond < RCOND_TOL and not collapsed:
        warnings.warn(
            f"right eigenvectors have reciprocal condition number {rcond:.3g} "
            f"(< {RCOND_TOL:g}); decomposition is ill-conditioned and its vectors "
            "carry errors of order eps / rcond",
            DefectiveMatrixWarning,
            stacklevel=2,
        )

    return EigenSystem(eigenvalues=w, vectors=v, hermitian=hermitian, rcond=rcond)


def diagonalize(model) -> Diagonalized:
    """The dense solve of ``model.build()``, for a model that has no blocks."""
    system = eig_right(model.build())
    return Diagonalized(model, system, system.eigenvalues, system.vectors[:, 0])


def warn_ground_tie(eigenvalues: np.ndarray) -> None:
    """Warn :class:`DegenerateGroundStateWarning` if states 0 and 1 tie in Re E.

    ``eigenvalues`` is sorted as :func:`eig_right` sorts.  Within 1e-10
    'minimum real eigenvalue' names no single state (the h_x = 0 axis of
    the mixed chain, a conjugate pair), so every reader of state 0 runs
    this test.
    """
    w = eigenvalues
    if len(w) > 1 and abs(w[1].real - w[0].real) < 1e-10:
        warnings.warn(
            "ground state is degenerate in its real eigenvalue; state "
            "selection is ambiguous",
            DegenerateGroundStateWarning,
            stacklevel=3,
        )


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


def _parlett_reid(A: np.ndarray) -> tuple[complex, int]:
    """Pfaffian of an even complex skew matrix as (mantissa, exponent).

    Blocked Parlett-Reid tridiagonalization by congruence with partial
    pivoting.  The rank-2 update ``tau col.T - col tau.T`` of each pivot
    step is deferred over a panel of :data:`PFAFFIAN_BLOCK` steps, collected
    as the columns of U (the taus) and W (the cols).  A step reads its two
    current columns as ``A0[:, k] + U W[k].T - W U[k].T`` by matrix-vector
    products, A0 being A at the start of the panel, and the panel reaches
    the trailing block as one product ``A += [U W] [W -U].T`` (Wimmer, ACM
    Trans. Math. Softw. 38, 30 (2012), arXiv:1102.3440).  The pivot is
    ``-A[k + 1, k]``, but the interchanges move upper-triangle entries into
    the lower triangle, so both triangles count, to the order of
    :data:`SKEW_TOL`.  The signed pivot product is renormalized as it grows,
    and a zero pivot gives 0.
    """
    n = A.shape[0]
    # column-major: every read below is a contiguous column segment
    A = np.array(A, dtype=complex, order="F")
    b = PFAFFIAN_BLOCK
    # rows k+1 and on of a panel's columns are written before they are read
    U = np.empty((n, b), dtype=complex)
    W = np.empty((n, b), dtype=complex)
    mant = 1.0 + 0.0j
    expo = 0
    for start in range(0, n, 2 * b):
        steps = min(b, (n - start) // 2)
        for j in range(steps):
            k = start + 2 * j
            col = A[k + 1 :, k] + U[k + 1 :, :j] @ W[k, :j] - W[k + 1 :, :j] @ U[k, :j]
            p = int(np.argmax(np.abs(col)))
            if p:
                kp = k + 1 + p
                A[[k + 1, kp], k:] = A[[kp, k + 1], k:]
                A[k:, [k + 1, kp]] = A[k:, [kp, k + 1]]
                U[[k + 1, kp], :j] = U[[kp, k + 1], :j]
                W[[k + 1, kp], :j] = W[[kp, k + 1], :j]
                col[[0, p]] = col[[p, 0]]
                mant = -mant
            if col[0] == 0.0:
                return 0j, 0
            mant *= -col[0]
            # renormalize to keep |mant| in a safe range
            scale = abs(mant)
            if scale > 1e8 or scale < 1e-8:
                e = int(np.floor(np.log2(scale)))
                mant /= 2.0**e
                expo += e
            if k + 2 < n:
                U[k + 2 :, j] = col[1:] / col[0]
                W[k + 2 :, j] = (
                    A[k + 2 :, k + 1] + U[k + 2 :, :j] @ W[k + 1, :j] - W[k + 2 :, :j] @ U[k + 1, :j]
                )
        t = start + 2 * steps
        if t < n:
            # (W U.T - U W.T).T = U W.T - W U.T: one product, transposed so
            # that it is column-major like A and the sum streams through both
            X = np.hstack([U[t:], W[t:]])
            Y = np.hstack([W[t:], -U[t:]])
            A[t:, t:] += (Y @ X.T).T
    return mant, expo


def _bunch_kaufman(A: np.ndarray) -> tuple[float, int]:
    """Pfaffian of an even real skew matrix as (mantissa, exponent).

    One LAPACK ``zhetrf`` of -iA, upper triangle, with the workspace
    ``zhetrf_lwork`` asks for; see :func:`pfaffian` for why this gives the
    Pfaffian.  An exactly singular -iA (``info > 0``) gives 0.
    """
    n = A.shape[0]
    # iA in C order, whose transpose -iA is the F-order array LAPACK works on
    # in place; its upper triangle holds A's lower one
    ia = np.zeros((n, n), dtype=complex)
    ia.imag = A
    work, _ = sla.lapack.zhetrf_lwork(n, lower=0)
    ldu, ipiv, info = sla.lapack.zhetrf(ia.T, lower=0, lwork=int(work.real), overwrite_a=1)
    if info > 0:
        return 0.0, 0
    if np.any(ipiv > 0):
        raise np.linalg.LinAlgError(
            "zhetrf of -iA took a 1x1 pivot without info > 0: the imaginary structure broke"
        )
    # the block at rows k, k + 1 holds e = ldu[k, k + 1], and ipiv[k] = -p
    # says that row k was swapped with row p - 1 (LAPACK counts from 1)
    k = np.arange(0, n, 2)
    swaps = int(np.count_nonzero(-ipiv[k] != k + 1))
    m, e = np.frexp(-ldu[k, k + 1].imag)
    mant = -1.0 if swaps % 2 else 1.0
    expo = int(np.sum(e))
    # 0.5**512 still lies well inside the float range
    for i in range(0, len(m), 512):
        mant, e = np.frexp(mant * np.prod(m[i : i + 512]))
        expo += int(e)
    return float(mant), expo


def _skew_deviation(A: np.ndarray) -> float:
    """``max|A + A.T|``, bit for bit, without an n x n temporary.

    The maximum is taken over strips of 64 rows, each the sum of a row
    strip and the transpose of the matching column strip: the strided
    reads of the transpose stay in cache, where ``A + A.T`` of the whole
    matrix reads A with a stride of n.
    """
    return max(
        np.max(np.abs(A[j : j + 64] + A[:, j : j + 64].T)) for j in range(0, A.shape[0], 64)
    )


def pfaffian(A: np.ndarray) -> complex:
    """Pfaffian of a skew-symmetric matrix, real or complex.

    Odd dimension returns 0, and so does an exactly singular factorization.
    Satisfies ``pfaffian(A)**2 == det(A)``.  The input is not modified.
    The product of the pivots is kept in mantissa/exponent form, so a
    Pfaffian below the float range comes back as 0 and one above it raises.

    Real A takes one LAPACK Bunch-Kaufman factorization (``zhetrf``) of
    H = -iA, the transpose of iA, which is built in C order so that LAPACK
    reads it in place; only the strictly lower triangle of A is read.  H is
    Hermitian and purely imaginary, so its diagonal
    is zero, and so is that of every Schur complement, which stays purely
    imaginary: a 1x1 pivot is never taken unless a whole column vanishes
    (then ``info > 0`` and A is singular).  Every pivot is therefore a 2x2
    block [[0, e], [conj(e), 0]] with e purely imaginary, and each
    multiplier, an imaginary entry times the inverse of an imaginary block,
    is real.  So H = M D M^T with M real, the product of the interchanges
    and unit upper-triangular factors, and A = M (iD) M^T gives Pf(A) =
    det(M) Pf(iD) = (-1)^s prod_k (-Im e_k), where s counts the 2x2 steps
    whose ``ipiv`` swaps their first row with another row.

    Complex A has no LAPACK route: it takes the blocked Parlett-Reid
    reduction of :func:`_parlett_reid`, which also serves the tests as the
    independent oracle of the real path.

    Raises
    ------
    NotSkewSymmetricError
        If ``max|A + A.T|`` exceeds :data:`SKEW_TOL`.
    PfaffianOverflowError
        If the Pfaffian itself lies beyond the largest float.
    numpy.linalg.LinAlgError
        If the factorization of a real A took a 1x1 pivot without reporting
        singularity, which only broken arithmetic can cause.
    """
    A = _validate_square(A)
    dev = _skew_deviation(A)
    if dev > SKEW_TOL:
        raise NotSkewSymmetricError(
            f"matrix is not skew-symmetric: max|A + A.T| = {dev:g} > {SKEW_TOL:g}"
        )
    if A.shape[0] % 2 == 1:
        return complex(0.0)
    mant, expo = _parlett_reid(A) if np.iscomplexobj(A) else _bunch_kaufman(A)
    try:
        return complex(math.ldexp(mant.real, expo), math.ldexp(mant.imag, expo))
    except OverflowError:
        raise PfaffianOverflowError(
            f"|Pfaffian| = 2**{expo + math.log2(abs(mant)):.1f} exceeds the float range"
        ) from None


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
