"""Core linear algebra: eigendecomposition, matching, Pfaffian, line fits."""

import fnmatch
import re
import types

import numpy as np
import pytest
import scipy.linalg as sla

from nhmetric import linalg
from nhmetric.errors import (
    AmbiguousMatchWarning,
    DefectiveMatrixWarning,
    DegenerateAbscissaError,
    NonConvergenceError,
    NotSkewSymmetricError,
    PfaffianOverflowError,
)
from nhmetric.linalg import (
    PFAFFIAN_BLOCK,
    RCOND_TOL,
    EigenSystem,
    blas_thread_counts,
    blas_threads,
    eig_right,
    fit_linear,
    match_states,
    pfaffian,
)
from nhmetric.quasiperiodic import Gaa1Spec, Gaa2Spec
from pfaffian_reference import pfaffian_unblocked


def random_complex(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def random_skew(rng, n, real=False):
    m = rng.normal(size=(n, n))
    if not real:
        m = m + 1j * rng.normal(size=(n, n))
    return m - m.T


def pfaffian_combinatorial(a):
    """Reference Pfaffian by recursive expansion along the first row."""
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0j
    if n % 2:
        return 0.0 + 0j
    if n == 2:
        return complex(a[0, 1])
    total = 0.0 + 0j
    rest = list(range(1, n))
    for pos, j in enumerate(rest):
        keep = [i for i in rest if i != j]
        minor = a[np.ix_(keep, keep)]
        total += (-1) ** pos * a[0, j] * pfaffian_combinatorial(minor)
    return total


class TestEigRight:
    def test_diagonal_ordering(self):
        es = eig_right(np.diag([3.0, 1.0 + 2.0j, 1.0]))
        assert np.allclose(es.eigenvalues, [1.0, 1.0 + 2.0j, 3.0])
        # vectors are permuted identity columns
        assert np.allclose(np.abs(es.vectors), np.eye(3)[:, [2, 1, 0]])

    def test_nonreciprocal_two_site_cell(self):
        # hand solve of [[0, e^h], [e^-h, 0]]: eigenvalues +-1,
        # eigenvector for +1 proportional to (e^{h/2}, e^{-h/2})
        h = 0.5
        H = np.array([[0.0, np.exp(h)], [np.exp(-h), 0.0]])
        es = eig_right(H)
        assert np.allclose(es.eigenvalues, [-1.0, 1.0], atol=1e-12)
        expect = np.array([np.exp(h / 2), np.exp(-h / 2)])
        expect = expect / np.linalg.norm(expect)
        v = es.vectors[:, 1]
        phase = v[0] / expect[0]
        assert np.allclose(v, phase * expect, atol=1e-12)

    def test_jordan_block_warns(self):
        with pytest.warns(DefectiveMatrixWarning) as caught:
            es = eig_right(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # the collapsed pair also makes rcond ~ 1e-292; the rcond guard
        # stays silent because the collapse warning already names the cause
        assert es.rcond < RCOND_TOL
        assert len(caught) == 1

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            eig_right(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            eig_right(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_trace_and_residual_random(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 17, 64):
            H = random_complex(rng, n)
            es = eig_right(H)
            assert abs(np.sum(es.eigenvalues) - np.trace(H)) < 1e-8 * abs(np.trace(H)) + 1e-8
            resid = H @ es.vectors - es.vectors * es.eigenvalues[None, :]
            assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(H)
            assert np.allclose(np.linalg.norm(es.vectors, axis=0), 1.0, atol=1e-10)

    def test_hermitian_dispatch_matches_general(self):
        rng = np.random.default_rng(3)
        H = random_complex(rng, 12)
        H = H + H.conj().T
        es = eig_right(H)
        assert es.hermitian and es.rcond == 1.0
        assert np.max(np.abs(es.eigenvalues.imag)) < 1e-12
        resid = H @ es.vectors - es.vectors * es.eigenvalues[None, :]
        assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(H)

    def test_real_ascending_tie_break(self):
        es = eig_right(np.diag([1.0 + 1.0j, 1.0 - 1.0j]))
        assert np.allclose(es.eigenvalues, [1.0 - 1.0j, 1.0 + 1.0j])

    @pytest.mark.parametrize("L", [21, 34, 55, 89, 144])
    def test_skin_effect_conditioning_guard(self, L):
        # open nonreciprocal chain: cond(V) grows like exp(2 g L), and past
        # L = 55 the eigenvectors (and the metric, 9.3e25 at L = 144 against
        # 0.0679) lose every digit
        H = Gaa1Spec(L=L, V1=1.0, V2=0.5, g=0.5, h=0.3, zeta=0.0).build()
        if L <= 55:
            es = eig_right(H)  # silent: the package's warnings are errors here
            assert es.rcond >= RCOND_TOL
        else:
            with pytest.warns(DefectiveMatrixWarning, match="reciprocal condition number"):
                es = eig_right(H)
            assert es.rcond < RCOND_TOL


class TestEigRightDriver:
    """Real symmetric H takes divide and conquer (?syevd); complex Hermitian H the default."""

    def test_driver_follows_dtype(self, monkeypatch):
        drivers = []
        eigh = sla.eigh

        def spying(*args, **kwargs):
            drivers.append(kwargs.get("driver"))
            return eigh(*args, **kwargs)

        monkeypatch.setattr(sla, "eigh", spying)
        rng = np.random.default_rng(21)
        real = rng.normal(size=(20, 20))
        cplx = random_complex(rng, 20)
        eig_right(real + real.T)
        eig_right(cplx + cplx.conj().T)
        assert drivers == ["evd", None]

    @pytest.mark.parametrize("case", ["random", "gaa2"])
    def test_evd_agrees_with_evr(self, case):
        if case == "random":
            m = np.random.default_rng(22).normal(size=(200, 200))
            H = m + m.T
        else:
            H = Gaa2Spec(L=89, Delta=1.5, alpha=-0.5).build()
        assert np.isrealobj(H)
        es = eig_right(H)
        # a real symmetric H keeps real orthogonal vectors; its eigenvalues stay complex
        assert es.hermitian and es.vectors.dtype == np.float64
        assert np.iscomplexobj(es.eigenvalues) and np.all(np.diff(es.eigenvalues.real) >= 0)
        evr = sla.eigh(H, driver="evr", eigvals_only=True)
        assert np.max(np.abs(es.eigenvalues - evr)) <= 1e-12 * np.linalg.norm(H, 2)
        V = es.vectors
        assert np.linalg.norm(V.T @ V - np.eye(len(V)), 2) <= 1e-12


ONE = {"numpy": 1, "scipy": 1}
TWO = {"numpy": 2, "scipy": 2}


class TestEigRightThreads:
    """eig_right's own BLAS-thread rule, read inside its LAPACK calls."""

    @staticmethod
    def chain(hermitian: bool) -> np.ndarray:
        # g = 0 is real symmetric
        return Gaa1Spec(L=34, V1=1.5, g=0.0 if hermitian else 0.5).build()

    @pytest.fixture
    def inside(self, monkeypatch):
        """(call, thread counts) of each eigh, eig and _rcond call, in order."""
        if None in blas_thread_counts().values():
            pytest.skip("numpy's or scipy's OpenBLAS pool not found")
        seen = []

        def spy(owner, name):
            real = getattr(owner, name)

            def spying(*args, **kwargs):
                seen.append((name, blas_thread_counts()))
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, spying)

        for owner, name in ((sla, "eigh"), (sla, "eig"), (linalg, "_rcond")):
            spy(owner, name)
        return seen

    @pytest.mark.parametrize("hermitian,calls", [(True, ["eigh"]), (False, ["eig", "_rcond"])])
    def test_one_thread_below_crossover(self, inside, hermitian, calls):
        with blas_threads(2):
            eig_right(self.chain(hermitian))
            assert blas_thread_counts() == TWO
        assert inside == [(name, ONE) for name in calls]

    def test_caller_counts_back_after_nonconvergence(self, inside, monkeypatch):
        def failing(*args, **kwargs):
            inside.append(("eig", blas_thread_counts()))
            raise sla.LinAlgError("did not converge")

        monkeypatch.setattr(sla, "eig", failing)
        with blas_threads(2):
            with pytest.raises(NonConvergenceError):
                eig_right(self.chain(hermitian=False))
            assert blas_thread_counts() == TWO
        assert inside == [("eig", ONE)]

    def test_one_thread_at_d_900(self, inside):
        # at d = 900 two threads run eigh faster, and eig_right still takes one
        with blas_threads(2):
            eig_right(np.diag(np.arange(900.0)))
            assert blas_thread_counts() == TWO
        assert inside == [("eigh", ONE)]

    def test_pool_worker_sees_no_change(self, inside):
        # a sweep's pool worker already runs on one thread
        with blas_threads(1):
            eig_right(self.chain(hermitian=False))
            assert blas_thread_counts() == ONE
        assert inside == [("eig", ONE), ("_rcond", ONE)]


class TestMatchStates:
    def _system(self, vectors):
        vectors = np.asarray(vectors, dtype=complex)
        return EigenSystem(
            eigenvalues=np.arange(vectors.shape[1], dtype=complex), vectors=vectors
        )

    def test_identity(self):
        rng = np.random.default_rng(0)
        v, _ = np.linalg.qr(random_complex(rng, 6))
        es = self._system(v)
        assert np.array_equal(match_states(es, es), np.arange(6))

    def test_swap_recovery(self):
        rng = np.random.default_rng(1)
        v, _ = np.linalg.qr(random_complex(rng, 4))
        swapped = v[:, [1, 0, 2, 3]]
        perm = match_states(self._system(v), self._system(swapped))
        assert np.array_equal(perm, [1, 0, 2, 3])

    def test_rotated_pair_prefers_larger_overlap(self):
        # overlaps: |<e1|n1>| = 0.6, |<e1|n2>| = 0.8 and vice versa; the
        # greedy maximizer takes the 0.8 pairings
        prev = self._system(np.eye(2))
        nxt = self._system(np.array([[0.6, -0.8], [0.8, 0.6]]))
        perm = match_states(prev, nxt)
        assert np.array_equal(perm, [1, 0])

    def test_ambiguous_match_warns(self):
        # DFT columns overlap every basis vector with 1/sqrt(5) < 0.5
        n = 5
        prev = self._system(np.eye(n))
        j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        dft = np.exp(2j * np.pi * j * k / n) / np.sqrt(n)
        with pytest.warns(AmbiguousMatchWarning):
            perm = match_states(prev, self._system(dft))
        assert sorted(perm) == list(range(n))

    def test_bijection_random(self):
        import warnings

        rng = np.random.default_rng(11)
        for n in (2, 7, 23):
            a, _ = np.linalg.qr(random_complex(rng, n))
            b, _ = np.linalg.qr(random_complex(rng, n))
            with warnings.catch_warnings():
                # unrelated random bases legitimately overlap poorly
                warnings.simplefilter("ignore", AmbiguousMatchWarning)
                perm = match_states(self._system(a), self._system(b))
            assert sorted(perm) == list(range(n))


class TestPfaffian:
    def test_two_by_two(self):
        a = 2.0 - 3.0j
        assert pfaffian(np.array([[0, a], [-a, 0]])) == pytest.approx(a)

    def test_odd_dimension_is_zero(self):
        rng = np.random.default_rng(2)
        assert pfaffian(random_skew(rng, 5)) == 0.0

    def test_four_by_four_expansion(self):
        # pf = a12 a34 - a13 a24 + a14 a23 = 6 - 10 + 12 = 8
        a = np.zeros((4, 4))
        a[0, 1], a[0, 2], a[0, 3] = 1.0, 2.0, 3.0
        a[1, 2], a[1, 3] = 4.0, 5.0
        a[2, 3] = 6.0
        a = a - a.T
        assert pfaffian(a) == pytest.approx(8.0)

    def test_rejects_non_skew(self):
        message = "matrix is not skew-symmetric: max|A + A.T| = 2 > 1e-10"
        with pytest.raises(NotSkewSymmetricError, match=re.escape(message)):
            pfaffian(np.eye(4))

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 400])
    def test_skew_deviation_is_the_whole_matrix_maximum(self, n, dtype):
        # strips of 64 rows: n = 63, 64 and 65 end inside, at and one row past a strip
        rng = np.random.default_rng(n)
        general = rng.standard_normal((n, n)).astype(dtype)
        if dtype is complex:
            general += 1j * rng.standard_normal((n, n))
        skew = general - general.T + 1e-13 * general
        skew[-1, -1] = 1e-9  # the largest deviation, which the last strip alone reads
        for a in (general, skew):
            assert linalg._skew_deviation(a) == np.max(np.abs(a + a.T))

    def test_matches_combinatorial_reference(self):
        rng = np.random.default_rng(5)
        for n in (4, 6, 8):
            a = random_skew(rng, n)
            expect = pfaffian_combinatorial(a)
            assert pfaffian(a) == pytest.approx(expect, rel=1e-10)

    def test_square_equals_determinant(self):
        rng = np.random.default_rng(8)
        for n, scale in ((2, 1.0), (6, 1.0), (10, 1.0), (14, 1.0), (20, 1.0), (40, 1e6)):
            a = scale * random_skew(rng, n)
            pf = pfaffian(a)
            det = np.linalg.det(a)
            assert pf**2 == pytest.approx(det, rel=1e-8)

    def test_permutation_congruence_sign(self):
        rng = np.random.default_rng(9)
        for n in (4, 8, 12):
            a = random_skew(rng, n)
            perm = rng.permutation(n)
            p = np.eye(n)[:, perm]
            transformed = p.T @ a @ p
            assert pfaffian(transformed) == pytest.approx(
                np.linalg.det(p) * pfaffian(a), rel=1e-9
            )

    def test_real_input_supported(self):
        rng = np.random.default_rng(10)
        a = random_skew(rng, 8, real=True)
        assert pfaffian(a) ** 2 == pytest.approx(np.linalg.det(a), rel=1e-9)

    def test_overflow_raises_package_error(self):
        # |pf| ~ (1e10)**(n/2) lies far beyond the largest float, and the
        # complex product crosses a panel edge of the blocked reduction on the way
        n = max(100, 2 * PFAFFIAN_BLOCK + 2)
        a = 1e10 * random_skew(np.random.default_rng(11), n, real=True)
        for m in (a, a.astype(complex)):
            with pytest.raises(PfaffianOverflowError, match="exceeds the float range"):
                pfaffian(m)
        assert issubclass(PfaffianOverflowError, OverflowError)


B = PFAFFIAN_BLOCK


class TestBlockedPfaffian:
    """Both paths against the unblocked Parlett-Reid loop, across the complex panel edges."""

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("n", [2, 2 * B - 2, 2 * B, 2 * B + 2, 4 * B + 2, 200])
    def test_matches_unblocked_reference(self, n, real):
        # scaled so that the singular values, and so det, stay of order one
        a = random_skew(np.random.default_rng(n), n, real=real) / np.sqrt(n)
        pf = pfaffian(a)
        assert pf == pytest.approx(pfaffian_unblocked(a), rel=1e-12)
        assert pf**2 == pytest.approx(np.linalg.det(a), rel=1e-8)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_odd_dimension_across_panels_is_zero(self, real):
        a = random_skew(np.random.default_rng(3), 2 * B + 1, real=real)
        assert pfaffian(a) == pfaffian_unblocked(a) == 0.0

    def test_zero_pivot_in_second_panel(self):
        # the first 2b rows reduce without touching the zero block after them
        n = 2 * B + 6
        a = np.zeros((n, n), dtype=complex)
        a[: 2 * B, : 2 * B] = random_skew(np.random.default_rng(12), 2 * B)
        assert pfaffian_unblocked(a) == 0.0
        assert pfaffian(a) == 0.0

    def test_swap_partner_in_later_panel(self):
        # the largest entry of column 0 sits in the last row, so the first
        # pivot step swaps row 1 with a row of the last panel
        rng = np.random.default_rng(13)
        n = 2 * B + 6
        a = random_skew(rng, n) / np.sqrt(n)
        a[n - 1, 0], a[0, n - 1] = 10.0, -10.0
        assert pfaffian(a) == pytest.approx(pfaffian_unblocked(a), rel=1e-12)
        perm = rng.permutation(n)
        p = np.eye(n)[:, perm]
        assert pfaffian(p.T @ a @ p) == pytest.approx(np.linalg.det(p) * pfaffian(a), rel=1e-12)

    @pytest.mark.parametrize("layout", ["real", "real-fortran", "complex", "fortran"])
    def test_input_unmodified(self, layout):
        a = random_skew(np.random.default_rng(14), 2 * B + 2, real=layout.startswith("real"))
        if layout.endswith("fortran"):
            a = a.T
            assert a.flags.f_contiguous
        before = a.copy()
        pfaffian(a)
        assert np.array_equal(a, before)


class TestRealPfaffian:
    """The real Bunch-Kaufman path against the complex Parlett-Reid kernel as oracle."""

    # n = 1030 takes 515 pivots, more than one 512-pivot chunk of the product
    @pytest.mark.parametrize("n", [2, 6, 126, 128, 130, 400, 1030])
    def test_matches_complex_kernel(self, n):
        a = random_skew(np.random.default_rng(20 + n), n, real=True) / np.sqrt(n)
        expect = pfaffian(a.astype(complex))
        assert pfaffian(a) == pytest.approx(expect, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("half", [1, 3, 5, 7])
    def test_sign_at_odd_half_dimension(self, half):
        # a direct sum of 2x2 blocks has pf = prod a_k, negative here for
        # odd n/2; a permutation congruence scales it by det P
        rng = np.random.default_rng(half)
        blocks = -rng.uniform(0.5, 2.0, size=half)
        n = 2 * half
        a = np.zeros((n, n))
        a[np.arange(0, n, 2), np.arange(1, n, 2)] = blocks
        a = a - a.T
        assert pfaffian(a) == pytest.approx(np.prod(blocks), rel=1e-14)
        assert pfaffian(a).real < 0.0
        p = np.eye(n)[:, rng.permutation(n)]
        transformed = p.T @ a @ p
        pf = pfaffian(transformed)
        assert pf == pytest.approx(np.linalg.det(p) * np.prod(blocks), rel=1e-14)
        assert pf == pytest.approx(pfaffian(transformed.astype(complex)), rel=1e-12)

    @pytest.mark.parametrize("row", [1, 5, 9])
    def test_zero_row_is_exactly_singular(self, row):
        # rank n - 2: a zero column meets the factorization as info > 0
        a = random_skew(np.random.default_rng(21), 10, real=True)
        a[row, :] = a[:, row] = 0.0
        assert np.linalg.matrix_rank(a) == 8
        assert pfaffian(a) == 0.0
        assert pfaffian(a.astype(complex)) == 0.0

    def test_product_below_float_range_is_zero(self):
        # |pf| ~ (1e-10)**65 lies below the smallest subnormal
        a = 1e-10 * random_skew(np.random.default_rng(22), 130, real=True)
        assert pfaffian(a) == 0.0
        assert pfaffian(a.astype(complex)) == 0.0

    def test_one_by_one_pivot_raises(self, monkeypatch):
        # a 1x1 pivot without info > 0 means the imaginary structure broke
        def broken(a, **kwargs):
            ldu, ipiv, info = zhetrf(a, **kwargs)
            return ldu, np.abs(ipiv), info

        zhetrf = sla.lapack.zhetrf
        monkeypatch.setattr(sla.lapack, "zhetrf", broken)
        with pytest.raises(np.linalg.LinAlgError, match="1x1 pivot"):
            pfaffian(random_skew(np.random.default_rng(23), 6, real=True))


class TestBlasThreads:
    @pytest.fixture
    def counts(self):
        counts = blas_thread_counts()
        if None in counts.values():
            pytest.skip("numpy's or scipy's OpenBLAS pool not found")
        return counts

    def test_sets_both_pools_and_restores_them(self, counts):
        n = 1 if max(counts.values()) > 1 else 2
        with blas_threads(n):
            assert blas_thread_counts() == {"numpy": n, "scipy": n}
        assert blas_thread_counts() == counts

    def test_restores_on_exception(self, counts):
        n = 1 if max(counts.values()) > 1 else 2
        with pytest.raises(RuntimeError):
            with blas_threads(n):
                raise RuntimeError("inside the block")
        assert blas_thread_counts() == counts

    @pytest.mark.parametrize(
        "filename",
        [
            "libscipy_openblas64_-32a4b2a6.so",  # numpy 2
            "libscipy_openblas-6cdc3b4a.so",  # scipy 1.13 on
            "libopenblas64_p-r0-0cf96a72.3.23.dev.so",  # numpy 1.x
            "libopenblasp-r0-01191904.3.21.dev.so",  # scipy before 1.13
        ],
    )
    def test_glob_matches_wheel_libraries(self, filename):
        assert fnmatch.fnmatch(filename, linalg.OPENBLAS_GLOB)
        assert not fnmatch.fnmatch("libgfortran-040039e1-0352e75f.so.5.0.0", linalg.OPENBLAS_GLOB)

    @pytest.mark.parametrize(
        "get,set_",
        [
            ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
            ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"),
        ],
    )
    def test_thread_functions_of_each_build(self, get, set_):
        def getter():
            return 4

        def setter(n):
            return None

        lib = types.SimpleNamespace(**{get: getter, set_: setter, "openblas_get_config": getter})
        assert linalg._thread_functions(lib) == (getter, setter)

    def test_thread_functions_need_get_and_set(self):
        lib = types.SimpleNamespace(openblas_get_num_threads=lambda: 4)
        assert linalg._thread_functions(lib) is None

    @pytest.mark.parametrize("symbol", linalg.OPENBLAS_CONFIG_SYMBOLS)
    def test_config_string_of_each_build(self, symbol):
        lib = types.SimpleNamespace(**{symbol: lambda: b"OpenBLAS 0.3.30 DYNAMIC_ARCH"})
        assert linalg._config_string(lib) == "OpenBLAS 0.3.30 DYNAMIC_ARCH"

    def test_config_string_absent(self):
        lib = types.SimpleNamespace(openblas_get_num_threads=lambda: 4)
        assert linalg._config_string(lib) is None

    def test_no_op_without_openblas(self, monkeypatch):
        real = {name: get for name, (get, _) in linalg._openblas_pools().items()}
        before = {name: get() for name, get in real.items()}
        monkeypatch.setattr(linalg, "_openblas_pools", lambda: {})
        assert blas_thread_counts() == {"numpy": None, "scipy": None}
        with blas_threads(1):
            assert {name: get() for name, get in real.items()} == before
        assert {name: get() for name, get in real.items()} == before


class TestFitLinear:
    def test_exact_line(self):
        fit = fit_linear([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)
        assert fit.rms_residual == pytest.approx(0.0, abs=1e-14)

    def test_constant_data(self):
        fit = fit_linear([0.0, 1.0], [4.5, 4.5])
        assert fit.slope == pytest.approx(0.0)
        assert fit.intercept == pytest.approx(4.5)

    def test_normal_equations_by_hand(self):
        # x = (0,1,2), y = (0,1,1): slope 1/2, intercept 1/6,
        # residuals (-1/6, 1/3, -1/6) -> rms sqrt(1/18)
        fit = fit_linear([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
        assert fit.slope == pytest.approx(0.5)
        assert fit.intercept == pytest.approx(1.0 / 6.0)
        assert fit.rms_residual == pytest.approx(np.sqrt(1.0 / 18.0))

    def test_degenerate_abscissa(self):
        with pytest.raises(DegenerateAbscissaError):
            fit_linear([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
