"""Cluster Ising chain: modes, gaps, Pfaffian correlators, oracle checks."""

import contextlib
import dataclasses
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from nhmetric import cluster_ising, metric, spinops
from nhmetric.cluster_ising import (
    ClusterSector,
    ClusterSpec,
    CorrelatorTable,
    _midpoint_momenta,
    _mode_arrays,
    _wick_matrix,
    _wick_pfaffian,
    _string_ops,
    _two_spin_ops,
    build_cluster_chain,
    correlator_elements,
    ed_oracle,
    gaps,
    ground_state_metric,
    order_parameters,
    string_correlation,
    two_spin_correlation,
)
from nhmetric.errors import ModeSingularWarning
from nhmetric.linalg import blas_thread_counts, blas_threads, eig_right, pfaffian
from nhmetric.spinops import site_operator
from nhmetric.metric import MetricRequest, metric_diagonal
from pfaffian_reference import pfaffian_unblocked, ungauged_wick_matrix
from spin_reference import assert_mirror_spectra, kron_operator

CLUSTER_LIMIT = ClusterSpec(lam=0.0, Gamma=0.0, n_modes=512)


@dataclass(frozen=True)
class ModeBlock:
    """The 2x2 Bogoliubov-de Gennes block [[z, y], [y, -z]] at momentum k."""

    k: float
    lam: float
    Gamma: float
    J: float = 1.0

    def build(self):
        y = self.J * np.sin(2 * self.k) + self.lam * np.sin(self.k)
        z = self.J * np.cos(2 * self.k) - self.lam * np.cos(self.k) - 0.25j * self.Gamma
        return np.array([[z, y], [y, -z]])

    def derivative(self, parameter):
        dy, dz = {
            "J": (np.sin(2 * self.k), np.cos(2 * self.k)),
            "lam": (np.sin(self.k), -np.cos(self.k)),
            "Gamma": (0.0, -0.25j),
        }[parameter]
        return np.array([[dz, dy], [dy, -dz]])


def random_table(rng, r_max, hermitian=False):
    """A table of real G and real S / i, as the chain's contractions are."""
    g = rng.normal(size=2 * r_max + 1) * 0.4
    s = np.zeros(r_max + 1)
    if not hermitian:
        s[1:] = rng.normal(size=r_max) * 0.3
    return CorrelatorTable(r_max=r_max, g_values=g, s_values=s)


def direct_table(spec, r_max, nodes=None):
    """(G, S / i) of correlator_elements as direct trigonometric sums over the midpoint nodes."""
    M = max(spec.n_modes, 32 * r_max) if nodes is None else nodes
    k = _midpoint_momenta(M)
    _, _, _, _, u, v, singular = cluster_ising._mode_arrays(k, spec)
    norm = np.abs(u) ** 2 + np.abs(v) ** 2
    uvc = u * v.conj()
    w_k = np.where(singular, 0.0, (np.abs(u) ** 2 - np.abs(v) ** 2) / norm)
    x_k = np.where(singular, 0.0, (uvc + uvc.conj()) / norm)
    s_k = np.where(singular, 0.0, (uvc - uvc.conj()) / norm)
    r = np.arange(r_max + 1)
    cos_w = np.cos(np.outer(r, k)) @ w_k
    sin_x = np.sin(np.outer(r, k)) @ x_k
    sin_s = np.sin(np.outer(r, k)) @ s_k
    g = np.concatenate([(-cos_w - sin_x)[:0:-1], sin_x - cos_w]) / M
    s = sin_s / (1j * M)
    s[0] = 0.0
    return g, s


class TestBdgMode:
    def test_hand_values_at_half_pi(self):
        y, z, E_minus, _, _, _, _ = _mode_arrays(np.array([np.pi / 2]), ClusterSpec(lam=0.5, Gamma=3.0))
        assert y[0] == pytest.approx(0.5)
        assert z[0] == pytest.approx(-1.0 - 0.75j)
        assert -E_minus[0] == pytest.approx(np.sqrt(0.6875 + 1.5j))

    def test_singular_at_hermitian_gap_closing(self):
        singular = _mode_arrays(np.array([2.0 * np.pi / 3.0]), ClusterSpec(lam=1.0, Gamma=0.0))[-1]
        assert singular.all()

    def test_hermitian_factors_real(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = np.array([rng.uniform(0.05, np.pi - 0.05)])
            lam = rng.uniform(0.0, 2.0)
            _, z, E_minus, _, u, v, _ = _mode_arrays(k, ClusterSpec(lam=lam, Gamma=0.0))
            if abs(2.0 * E_minus[0] * (E_minus[0] + z[0])) < 1e-5:
                continue  # too close to a gap closing for full precision
            assert abs(u[0].imag) < 1e-10
            assert abs(v[0].imag) < 1e-10
            assert abs(u[0]) ** 2 + abs(v[0]) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_normalization_identity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = np.array([rng.uniform(0.05, np.pi - 0.05)])
            spec = ClusterSpec(lam=rng.uniform(0, 2), Gamma=rng.uniform(0, 4))
            y, z, E_minus, _, u, v, singular = _mode_arrays(k, spec)
            if singular[0]:
                continue
            assert u[0] ** 2 + v[0] ** 2 == pytest.approx(1.0, abs=1e-10)
            assert E_minus[0] ** 2 == pytest.approx(z[0] ** 2 + y[0] ** 2, abs=1e-12)

    def test_open_gap_never_singular_near_pi_at_lam_two(self):
        # at r_eval = 1000 (32032 nodes) the midpoint next to k = pi has
        # |y| ~ 1e-13 and |C| ~ |y|, but its gap |E_minus| is 3
        k = _midpoint_momenta(32032)
        assert not _mode_arrays(k, ClusterSpec(lam=2.0))[-1].any()
        correlator_elements(ClusterSpec(lam=2.0), r_max=1001)  # must not warn

    def test_underflowing_normalization_takes_the_y_to_zero_limit(self):
        # y = sin 2k: C ~ |y| underflows at k = 1e-200, while the gap stays 1
        k = np.array([1e-200, 1e-100])
        _, _, E_minus, _, u, v, singular = _mode_arrays(k, ClusterSpec())
        assert not singular.any()
        assert np.abs(E_minus) == pytest.approx([1.0, 1.0])
        assert (u[0], v[0]) == (0.0, -1.0)
        assert u == pytest.approx([0.0, 0.0], abs=1e-99)
        assert v == pytest.approx([-1.0, -1.0])

    def test_branch_flip_leaves_physics_unchanged(self):
        # flipping the sign of C flips (u, v) together; every downstream
        # quantity is a ratio quadratic in (u, v) and cannot change
        k = np.linspace(0.1, np.pi - 0.1, 7)
        spec = ClusterSpec(lam=0.7, Gamma=1.3)
        _, _, _, _, u, v, _ = _mode_arrays(k, spec)
        uf, vf = -u, -v
        n = np.abs(u) ** 2 + np.abs(v) ** 2
        nf = np.abs(uf) ** 2 + np.abs(vf) ** 2
        assert np.allclose((np.abs(u) ** 2 - np.abs(v) ** 2) / n,
                           (np.abs(uf) ** 2 - np.abs(vf) ** 2) / nf)
        assert np.allclose(u * v.conj() / n, uf * vf.conj() / nf)


class TestGaps:
    def test_cluster_limit(self):
        gp = gaps(CLUSTER_LIMIT)
        assert gp.delta_R == pytest.approx(2.0, abs=1e-9)
        assert gp.delta_I == pytest.approx(0.0, abs=1e-12)

    def test_gapless_phase(self):
        gp = gaps(ClusterSpec(lam=0.5, Gamma=3.0, n_modes=2048))
        assert gp.delta_R < 1e-3
        assert gp.delta_I < 1e-3

    def test_imaginary_gapped_phase(self):
        gp = gaps(ClusterSpec(lam=0.96, Gamma=3.0, n_modes=2048))
        assert gp.delta_R < 1e-3
        assert gp.delta_I > 1e-2


class TestCorrelatorTable:
    def test_cluster_limit_is_kronecker_delta(self):
        table = correlator_elements(CLUSTER_LIMIT, r_max=6)
        for r in range(-6, 7):
            expect = 1.0 if r == 2 else 0.0
            assert table.G(r) == pytest.approx(expect, abs=1e-10)
        for r in range(1, 7):
            assert abs(table.S(r)) < 1e-12

    def test_hermitian_s_vanishes(self):
        table = correlator_elements(ClusterSpec(lam=0.8, Gamma=0.0), r_max=10)
        assert np.max(np.abs(table.s_values)) < 1e-12
        assert np.max(np.abs(table.g_values.imag)) < 1e-12

    @pytest.mark.parametrize(
        "spec,nodes",
        [
            (ClusterSpec(lam=0.8, Gamma=0.0), None),
            (ClusterSpec(lam=0.5, Gamma=3.0), None),
            (ClusterSpec(lam=1.9, Gamma=3.0), None),
            (ClusterSpec(lam=0.7, Gamma=0.0), 2),
            (ClusterSpec(lam=0.7, Gamma=0.5), 2),
        ],
    )
    def test_g_real_and_s_imaginary(self, spec, nodes):
        # the table stores G and S / i, both real
        table = correlator_elements(spec, r_max=10, nodes=nodes)
        assert table.g_values.dtype == float
        assert table.s_values.dtype == float
        if spec.Gamma == 0.0:
            assert np.all(table.s_values == 0.0)

    @pytest.mark.parametrize("field", ["g_values", "s_values"])
    def test_complex_values_are_refused(self, field):
        values = {"g_values": np.zeros(5), "s_values": np.zeros(3)}
        values[field] = values[field] + 1e-20j
        with pytest.raises(ValueError, match=field):
            CorrelatorTable(r_max=2, **values)

    def test_accessors_return_the_contractions(self):
        g, s = np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.array([0.0, 0.5, -0.25])
        table = CorrelatorTable(r_max=2, g_values=g, s_values=s)
        assert table.G(-2) == 1.0 and table.G(2) == 5.0
        assert table.S(1) == 0.5j and table.S(-2) == 0.25j

    @pytest.mark.parametrize(
        "lam,Gamma,r_max,nodes",
        [(lam, Gamma, 40, None) for lam, Gamma in np.random.default_rng(15).uniform(0.0, 3.0, (6, 2))]
        # a pinned M below r_max wraps: G_{r+2M} = -G_r
        + [(0.7, 0.5, 5, 2), (1.3, 0.0, 9, 2)]
        # M = N/2 of the many-spin oracle sizes N = 2, 4, 8, 12
        + [(0.6, 0.5, 2, 1), (1.3, 0.8, 2, 2), (0.5, 1.0, 2, 4), (0.7, 0.5, 2, 6)],
    )
    def test_transform_matches_direct_sum(self, lam, Gamma, r_max, nodes):
        spec = ClusterSpec(lam=lam, Gamma=Gamma, n_modes=512)
        table = correlator_elements(spec, r_max=r_max, nodes=nodes)
        g, s = direct_table(spec, r_max, nodes)
        assert np.max(np.abs(table.g_values - g)) < 1e-14
        assert np.max(np.abs(table.s_values - s)) < 1e-14

    def test_singular_momenta_are_excluded(self, monkeypatch):
        # no midpoint grid lands on a gap closing, so one regular mode is
        # flagged singular by hand; the transform must drop exactly it
        def flag_one(k, spec):
            *arrays, singular = _mode_arrays(k, spec)
            singular = singular.copy()
            singular[3] = True
            return (*arrays, singular)

        monkeypatch.setattr(cluster_ising, "_mode_arrays", flag_one)
        spec = ClusterSpec(lam=0.9, Gamma=1.5, n_modes=64)
        with pytest.warns(ModeSingularWarning, match="1 singular"):
            table = correlator_elements(spec, r_max=20, nodes=16)
        g, s = direct_table(spec, 20, 16)
        assert np.max(np.abs(table.g_values - g)) < 1e-14
        assert np.max(np.abs(table.s_values - s)) < 1e-14

    @pytest.mark.parametrize("lam,Gamma", [(0.7, 1.0), (1.9, 3.0)])
    def test_quadrature_convergence_in_gapped_phases(self, lam, Gamma):
        # line-gapped points: the mode functions are smooth in k and the
        # midpoint rule converges spectrally (in the gapless phase the
        # integrands carry branch-cut jumps and only O(1/M) holds)
        a = correlator_elements(ClusterSpec(lam=lam, Gamma=Gamma, n_modes=4096), r_max=100)
        b = correlator_elements(ClusterSpec(lam=lam, Gamma=Gamma, n_modes=8192), r_max=100)
        assert np.max(np.abs(a.g_values - b.g_values)) < 1e-6
        assert np.max(np.abs(a.s_values - b.s_values)) < 1e-6

    def test_antisymmetric_extension(self):
        table = correlator_elements(ClusterSpec(lam=0.6, Gamma=1.5), r_max=4)
        assert table.S(-3) == -table.S(3)
        with pytest.raises(ValueError):
            table.G(5)


class TestWickPfaffian:
    def test_two_spin_r1_identity(self):
        table = correlator_elements(ClusterSpec(lam=0.7, Gamma=1.0), r_max=2)
        assert two_spin_correlation(table, 1) == pytest.approx(table.G(-1))

    def test_assembled_matrices_are_skew_and_consistent(self):
        table = correlator_elements(ClusterSpec(lam=0.9, Gamma=2.0), r_max=8)
        for ops in (_two_spin_ops(6), _string_ops(6)):
            m = _wick_matrix(table, *ops)
            assert np.max(np.abs(m + m.T)) < 1e-14
            pf = pfaffian(m)
            assert pf**2 == pytest.approx(np.linalg.det(m), rel=1e-8)

    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "non-hermitian"])
    @pytest.mark.parametrize("builder", [_two_spin_ops, _string_ops])
    def test_wick_matrix_matches_explicit_loop(self, builder, hermitian):
        # entry (i, j) at d = sites[j] - sites[i]: S(d) for one kind,
        # G(d) for <B A> and -G(-d) for <A B>, in the gauge
        # B -> e^{-i pi/4} B, A -> e^{i pi/4} A, which multiplies <B B> by
        # -i and <A A> by i and leaves the mixed pairs alone
        r = 5
        table = random_table(np.random.default_rng(6), r + 2, hermitian=hermitian)
        sites, is_a = builder(r)
        n = len(sites)
        expect = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                d = int(sites[j] - sites[i])
                if is_a[i] == is_a[j]:
                    expect[i, j] = (1j if is_a[i] else -1j) * table.S(d)
                elif is_a[j]:
                    expect[i, j] = table.G(d)
                else:
                    expect[i, j] = -table.G(-d)
        m = _wick_matrix(table, sites, is_a)
        assert m.dtype == float and np.all(expect.imag == 0.0)
        assert np.array_equal(m, expect.real)

    def test_hermitian_fast_path_matches_general(self):
        rng = np.random.default_rng(4)
        for r in (3, 4, 6):
            table = random_table(rng, r + 2, hermitian=True)
            for builder, fn in (
                (_two_spin_ops, two_spin_correlation),
                (_string_ops, string_correlation),
            ):
                sites, is_a = builder(r)
                m = _wick_matrix(table, sites, is_a)
                general = pfaffian_unblocked(m.astype(complex))
                fast = _wick_pfaffian(m, is_a, hermitian_limit=True)
                assert fast == pytest.approx(general, rel=1e-10, abs=1e-12)

    def test_hermitian_fast_path_real_det_on_a_chain_table(self):
        # the Wick matrix is real, so the fast path takes its determinant
        # in real arithmetic
        table = correlator_elements(ClusterSpec(lam=0.8, Gamma=0.0, n_modes=512), r_max=101)
        for builder in (_two_spin_ops, _string_ops):
            sites, is_a = builder(100)
            m = _wick_matrix(table, sites, is_a)
            assert m.dtype == float
            fast = _wick_pfaffian(m, is_a, hermitian_limit=True)
            assert fast == pytest.approx(pfaffian(m), rel=1e-9)

    @pytest.mark.parametrize("raises", [False, True], ids=["return", "raise"])
    def test_hermitian_fast_path_runs_on_one_thread(self, inside, monkeypatch, raises):
        if raises:
            det = np.linalg.det

            def failing(block):
                det(block)
                raise np.linalg.LinAlgError("det failed")

            monkeypatch.setattr(np.linalg, "det", failing)
        table = correlator_elements(ClusterSpec(lam=0.8, Gamma=0.0, n_modes=512), r_max=41)
        sites, is_a = _string_ops(40)
        m = _wick_matrix(table, sites, is_a)
        with blas_threads(2):
            with pytest.raises(np.linalg.LinAlgError) if raises else contextlib.nullcontext():
                _wick_pfaffian(m, is_a, hermitian_limit=True)
            assert blas_thread_counts() == {"numpy": 2, "scipy": 2}
        assert inside == [("det", {"numpy": 1, "scipy": 1})]

    @pytest.mark.parametrize("Gamma", [0.2, 0.5, 1.0])
    @pytest.mark.parametrize("lam", [0.1, 0.5, 1.0, 1.5, 2.0])
    def test_gauge_keeps_the_pfaffian_on_chain_tables(self, lam, Gamma):
        # the real gauged matrix is D M D with det D = 1, so its Pfaffian is
        # that of the complex ungauged contractions M
        table = correlator_elements(ClusterSpec(lam=lam, Gamma=Gamma), r_max=201)
        for r in (1, 2, 3, 10, 50, 200):
            for builder, fn, sign in (
                (_two_spin_ops, two_spin_correlation, (-1) ** r),
                (_string_ops, string_correlation, 1),
            ):
                expect = sign * pfaffian_unblocked(ungauged_wick_matrix(table, *builder(r)))
                if abs(expect) > 1e-12:
                    assert fn(table, r) == pytest.approx(expect, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "lam, Gamma", [(0.3, 0.2), (0.5, 0.5), (0.99, 0.5), (1.5, 0.5), (1.2, 1.0)]
    )
    def test_real_path_matches_complex_kernel(self, lam, Gamma):
        # the real Bunch-Kaufman path against the unblocked Parlett-Reid loop
        # in complex arithmetic
        table = correlator_elements(ClusterSpec(lam=lam, Gamma=Gamma), r_max=201)
        for r in (10, 200):
            for builder in (_two_spin_ops, _string_ops):
                m = _wick_matrix(table, *builder(r))
                expect = pfaffian_unblocked(m.astype(complex))
                assert pfaffian(m) == pytest.approx(expect, rel=1e-12, abs=0.0)

    def test_operator_lists_hold_as_many_a_as_b(self):
        # det D = e^{i pi (n_A - n_B) / 4} of the gauge is 1 only then
        for r in range(1, 61):
            for builder in (_two_spin_ops, _string_ops):
                _, is_a = builder(r)
                assert 2 * int(np.sum(is_a)) == len(is_a)

    def test_cluster_limit_order_parameters(self):
        table = correlator_elements(CLUSTER_LIMIT, r_max=9)
        for r in range(2, 9):
            assert abs(string_correlation(table, r)) == pytest.approx(1.0, abs=1e-9)
            assert abs(two_spin_correlation(table, r)) < 1e-9
        # r = 1 is degenerate: the string collapses to <x x> which vanishes
        assert abs(string_correlation(table, 1)) < 1e-9

    def test_region_v_long_range_two_spin(self):
        # real gapped antiferromagnet: |R_r| approaches a nonzero constant
        spec = ClusterSpec(lam=1.9, Gamma=3.0)
        table = correlator_elements(spec, r_max=500)
        vals = [abs(two_spin_correlation(table, r)) for r in (120, 240, 480)]
        assert vals[-1] > 0.05
        assert vals[-1] == pytest.approx(vals[-2], rel=0.05)

    def test_region_ii_power_law_string(self):
        # gapless phase: ln|O_r| linear in ln r, clearly not linear in r
        spec = ClusterSpec(lam=0.5, Gamma=3.0)
        table = correlator_elements(spec, r_max=513)
        rs = np.array([64, 128, 256, 512])
        vals = np.array([abs(string_correlation(table, int(r))) for r in rs])
        logs = np.log(vals)
        coeff_loglog = np.polyfit(np.log(rs), logs, 1)
        resid_loglog = np.max(np.abs(np.polyval(coeff_loglog, np.log(rs)) - logs))
        coeff_exp = np.polyfit(rs, logs, 1)
        resid_exp = np.max(np.abs(np.polyval(coeff_exp, rs) - logs))
        assert coeff_loglog[0] < 0.0
        assert resid_loglog < 0.05
        assert resid_loglog < 0.2 * resid_exp

    def test_region_i_string_order_persists(self):
        spec = ClusterSpec(lam=0.1, Gamma=3.0)
        table = correlator_elements(spec, r_max=481)
        v240 = abs(string_correlation(table, 240))
        v480 = abs(string_correlation(table, 480))
        assert v480 > 0.1
        assert v480 == pytest.approx(v240, rel=0.05)


class TestOrderParameters:
    def test_cluster_limit(self):
        spec = ClusterSpec(lam=0.0, Gamma=0.0, r_eval=200)
        op = order_parameters(spec)
        assert abs(op.Ox) == pytest.approx(1.0, abs=1e-8)
        assert op.my == pytest.approx(0.0, abs=1e-8)

    def test_matches_unblocked_pfaffian_reference(self, monkeypatch):
        # six real Pfaffians of n = 400 Wick matrices against the unblocked loop
        spec = ClusterSpec(lam=0.7, Gamma=0.5, r_eval=200)
        op = order_parameters(spec)
        monkeypatch.setattr(cluster_ising, "pfaffian", pfaffian_unblocked)
        ref = order_parameters(spec)
        assert op.my == pytest.approx(ref.my, rel=1e-12)
        assert op.Ox == pytest.approx(ref.Ox, rel=1e-12)
        # central differences of step 1e-3 magnify the values' rounding
        assert op.dmy_dlam == pytest.approx(ref.dmy_dlam, rel=1e-9)
        assert op.dOx_dlam == pytest.approx(ref.dOx_dlam, rel=1e-9)

    @pytest.mark.parametrize("lam", [0.3, 0.8, 1.2, 1.8])
    def test_matches_complex_kernel(self, monkeypatch, lam):
        # the whole pipeline with every Pfaffian taken by the unblocked loop in
        # complex arithmetic instead
        spec = ClusterSpec(lam=lam, Gamma=0.5, r_eval=50)
        op = order_parameters(spec)
        monkeypatch.setattr(
            cluster_ising, "pfaffian", lambda m: pfaffian_unblocked(m.astype(complex))
        )
        ref = order_parameters(spec)
        assert op.my == pytest.approx(ref.my, rel=1e-12)
        assert op.Ox == pytest.approx(ref.Ox, rel=1e-12)
        # central differences of step 1e-3 magnify the values' rounding
        assert op.dmy_dlam == pytest.approx(ref.dmy_dlam, rel=1e-9)
        assert op.dOx_dlam == pytest.approx(ref.dOx_dlam, rel=1e-9)

    def test_antiferromagnetic_region(self):
        op = order_parameters(ClusterSpec(lam=1.9, Gamma=3.0, r_eval=240))
        assert op.my > 0.3
        assert abs(op.Ox) < 1e-3

    def test_no_singular_modes_near_pi_at_lam_two(self):
        # at lam = 2J, |y| << z near k = pi, where z + E_minus used to round
        # to 0 and drop regular modes (my read 0.876 at lam = 2.0)
        for lam in (2.0 - 1e-9, 2.0, 2.0 + 1e-9):
            assert not _mode_arrays(_midpoint_momenta(4096), ClusterSpec(lam=lam))[-1].any()
        my = [order_parameters(ClusterSpec(lam=lam, r_eval=50)).my for lam in (1.999, 2.0, 2.001)]
        assert my[0] < my[1] < my[2]
        assert my[1] == pytest.approx(0.897735, abs=1e-6)

    def test_deep_ising_limit_matches_exact_magnetization(self):
        # lam >> 1: perfect y-antiferromagnet, (-1)^r R_r -> 1
        op = order_parameters(ClusterSpec(lam=60.0, Gamma=0.0, r_eval=120))
        assert op.my == pytest.approx(1.0, abs=1e-2)


class TestGroundStateMetric:
    def test_hermitian_peak_at_unity(self):
        grid = np.arange(0.85, 1.15, 0.01)
        xi = [
            ground_state_metric(ClusterSpec(lam=float(l)), "lam").xi for l in grid
        ]
        assert grid[int(np.argmax(xi))] == pytest.approx(1.0, abs=0.015)

    def test_metric_positive_and_finite(self):
        mv = ground_state_metric(ClusterSpec(lam=0.3, Gamma=0.7), "Gamma")
        assert 0.0 <= mv.g < np.inf
        assert 0.0 < mv.fidelity <= 1.0

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError, match="real-valued"):
            ground_state_metric(ClusterSpec(lam=0.3), "n_modes")

    @pytest.mark.parametrize("parameter", ["J", "lam", "Gamma"])
    @pytest.mark.parametrize("n_modes", [8, 64])
    def test_sum_of_mode_block_metrics(self, n_modes, parameter):
        # the general metric engine on each 2x2 block is the oracle
        for lam in (0.3, 0.8, 1.3, 2.0):
            for Gamma in (0.0, 0.4, 1.0):
                spec = ClusterSpec(lam=lam, Gamma=Gamma, n_modes=n_modes)
                g = ground_state_metric(spec, parameter).g
                oracle = sum(
                    metric_diagonal(MetricRequest(ModeBlock(float(k), lam, Gamma), parameter)).g
                    for k in _midpoint_momenta(n_modes)
                )
                assert g == pytest.approx(oracle, rel=1e-10)

    def test_metric_along_j_against_the_block_stencil(self):
        # the stencil reads only each block's H, so it checks dH along J independently
        spec = ClusterSpec(lam=0.6, Gamma=0.5, n_modes=64)
        stencil = sum(
            metric._fd_diagonal(MetricRequest(ModeBlock(float(k), 0.6, 0.5), "J")).g
            for k in _midpoint_momenta(64)
        )
        assert ground_state_metric(spec, "J").g == pytest.approx(stencil, rel=1e-6)

    def test_no_spike_where_a_mode_crosses_the_branch_cut(self):
        # at lam = 0.87 -+ 5e-5 one mode's E_minus jumps across the branch cut
        # of the square root; a stencil over that step read g ~ 1e8 here
        g = [
            ground_state_metric(ClusterSpec(lam=lam, Gamma=1.0), "lam").g
            for lam in (0.86, 0.87, 0.88)
        ]
        assert g[1] == pytest.approx(g[0], rel=0.01)
        assert g[1] == pytest.approx(g[2], rel=0.01)


class TestEdOracle:
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_build_matches_kron_reference(self, N):
        # at N = 2 and 3 the three-site term lands on repeated sites
        J, lam, Gamma = 0.7, 0.5, 0.3
        H = np.zeros((2**N, 2**N), dtype=complex)
        for l in range(N):
            H -= J * kron_operator(N, {l - 1: "x", l: "z", l + 1: "x"})
            H += lam * kron_operator(N, {l: "y", l + 1: "y"})
            H += 0.5j * Gamma * kron_operator(N, {l: "u"})
        assert np.array_equal(build_cluster_chain(N, J, lam, Gamma), H)

    def test_odd_sector_lies_lower(self):
        # the even-parity state is the product ground state's sector, not
        # the global minimum of Re E
        oracle = ed_oracle(3, 0.4, 0.2)
        assert oracle.energy == pytest.approx(-1.4 + 0.1j, abs=1e-12)
        assert oracle.global_energy == pytest.approx(-1.7969 + 0.1501j, abs=1e-4)

    def test_cluster_stabilizer_energy(self):
        oracle = ed_oracle(8, 0.0, 0.0)
        assert oracle.energy == pytest.approx(-8.0, abs=1e-10)
        assert oracle.global_energy == pytest.approx(-8.0, abs=1e-10)

    @pytest.mark.parametrize("lam,Gamma", [(0.5, 0.0), (0.5, 1.0)])
    def test_pipeline_equivalence_r1(self, lam, Gamma):
        N = 8
        oracle = ed_oracle(N, lam, Gamma)
        spec = ClusterSpec(lam=lam, Gamma=Gamma, n_modes=N // 2)
        table = correlator_elements(spec, r_max=2, nodes=N // 2)
        r1 = two_spin_correlation(table, 1)
        o1 = string_correlation(table, 1)
        assert r1 == pytest.approx(oracle.ryy_r1, abs=1e-10)
        # the printed string-Pfaffian form carries an overall sign relative
        # to the literal operator product; magnitudes are convention-free
        assert o1 == pytest.approx(-oracle.string_r1, abs=1e-10)


def dense_ed_oracle(N, lam, Gamma, J=1.0):
    """ed_oracle on the dense 2^N matrix: the first state of prod sigma^z > 0 in eig_right's order.

    The correlators are averaged over all N translates, so a pair of states
    degenerate at k and -k gives one value whatever mixture eig returns.
    """
    system = eig_right(build_cluster_chain(N, J, lam, Gamma))

    def expectation(psi, ops):
        rows, amp = site_operator(N, ops)
        return complex(np.vdot(psi[rows], amp * psi))

    def average(psi, ops):
        return sum(expectation(psi, {s + l: op for s, op in ops.items()}) for l in range(N)) / N

    parity = [expectation(system.vectors[:, i], {l: "z" for l in range(N)}).real for i in range(system.dim)]
    index = next(i for i, p in enumerate(parity) if p > 0.0)
    psi = system.vectors[:, index]
    return cluster_ising.EdOracleResult(
        energy=complex(system.eigenvalues[index]),
        ryy_r1=average(psi, {0: "y", 1: "y"}),
        string_r1=average(psi, {0: "x", 2: "x"}),
        global_energy=complex(system.eigenvalues[0]),
    )


class TestEdOracleSectors:
    """The (momentum, parity) block oracle against the dense 2^N one."""

    @pytest.mark.parametrize(
        "N,lam,Gamma", [(3, 0.4, 0.2), (4, 0.7, 0.0), (4, 1.3, 0.8), (8, 0.5, 1.0), (8, 1.6, 0.3)]
    )
    def test_matches_dense(self, N, lam, Gamma):
        sector, dense = ed_oracle(N, lam, Gamma, J=0.9), dense_ed_oracle(N, lam, Gamma, J=0.9)
        for field in ("energy", "ryy_r1", "string_r1", "global_energy"):
            assert getattr(sector, field) == pytest.approx(getattr(dense, field), abs=1e-10)

    def test_two_sites(self):
        # the even block at k = pi holds no state
        sector, dense = ed_oracle(2, 0.6, 0.5), dense_ed_oracle(2, 0.6, 0.5)
        assert sector.energy == pytest.approx(dense.energy, abs=1e-12)
        assert sector.global_energy == pytest.approx(dense.global_energy, abs=1e-12)

    def test_matches_wick_at_twelve_sites(self):
        oracle = ed_oracle(12, 0.7, 0.5)
        table = correlator_elements(ClusterSpec(lam=0.7, Gamma=0.5, n_modes=6), r_max=2, nodes=6)
        assert oracle.ryy_r1 == pytest.approx(two_spin_correlation(table, 1), abs=1e-10)
        assert oracle.string_r1 == pytest.approx(-string_correlation(table, 1), abs=1e-10)

    @pytest.mark.parametrize("N", range(4, 11))
    @pytest.mark.parametrize("parity", [1, -1])
    @pytest.mark.parametrize("Gamma", [0.0, 0.5])
    def test_reflection_maps_block_m_to_n_minus_m(self, N, parity, Gamma):
        sectors = [ClusterSector(N, m, parity, 0.9, 0.7, Gamma) for m in range(N)]
        assert_mirror_spectra([eig_right(sector.build()).eigenvalues for sector in sectors])

    def test_one_diagonalization_per_unmirrored_block(self, monkeypatch):
        calls = []

        def counting_eig_right(H):
            calls.append(H.shape[0])
            return eig_right(H)

        monkeypatch.setattr(spinops, "eig_right", counting_eig_right)
        ed_oracle(8, 0.7, 0.5)
        # blocks m = 0..4 of each parity; block 8 - m reuses block m's
        blocks = [spinops.block_dimension(8, m, parity) for parity in (1, -1) for m in range(5)]
        assert calls == blocks
        assert sum(blocks[5 * p + min(m, 8 - m)] for p in (0, 1) for m in range(8)) == 2**8

    def test_blocks_exactly_hermitian_at_gamma_zero(self):
        for parity in (1, -1):
            for m in range(8):
                block = ClusterSector(8, m, parity, J=1.0, lam=0.7).build()
                assert np.array_equal(block, block.conj().T)
                assert eig_right(block).hermitian

    @pytest.mark.parametrize("name", ["J", "lam", "Gamma"])
    def test_derivative_is_the_block_of_dh(self, name):
        sector = ClusterSector(6, 1, -1, J=0.8, lam=0.6, Gamma=0.4)
        mu, d = getattr(sector, name), 1e-3

        def at(x):
            return dataclasses.replace(sector, **{name: x}).build()

        central = (at(mu + d / 2) - at(mu - d / 2)) / d
        np.testing.assert_allclose(sector.derivative(name), central, atol=1e-10)
        with pytest.raises(ValueError, match="real-valued field"):
            sector.derivative("parity")

    @pytest.mark.parametrize("N", [1, 15])
    def test_size_limits(self, N):
        with pytest.raises(ValueError, match=r"\[2, 14\]"):
            ed_oracle(N, 0.5, 0.5)

    def test_dense_matrix_refused_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="N <= 12"):
                build_cluster_chain(14, 1.0, 0.5, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
