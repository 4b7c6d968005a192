"""Cluster Ising chain: modes, gaps, Pfaffian correlators, oracle checks."""

import numpy as np
import pytest

from nhmetric.cluster_ising import (
    ClusterSpec,
    CorrelatorTable,
    _mode_arrays,
    _wick_matrix,
    _wick_pfaffian,
    _string_ops,
    _two_spin_ops,
    bdg_mode,
    correlator_elements,
    ed_oracle,
    gaps,
    ground_state_metric,
    order_parameters,
    string_correlation,
    two_spin_correlation,
)
from nhmetric.errors import ModeSingularError, StepTooLargeWarning
from nhmetric.linalg import pfaffian

CLUSTER_LIMIT = ClusterSpec(lam=0.0, Gamma=0.0, n_modes=512)


def random_table(rng, r_max, hermitian=False):
    g = rng.normal(size=2 * r_max + 1) * 0.4
    s = np.zeros(r_max + 1, dtype=complex)
    if not hermitian:
        s[1:] = 1j * rng.normal(size=r_max) * 0.3
    return CorrelatorTable(r_max=r_max, g_values=g.astype(complex), s_values=s)


class TestBdgMode:
    def test_hand_values_at_half_pi(self):
        m = bdg_mode(np.pi / 2, ClusterSpec(lam=0.5, Gamma=3.0))
        assert m.y == pytest.approx(0.5)
        assert m.z == pytest.approx(-1.0 - 0.75j)
        assert m.E_plus == pytest.approx(np.sqrt(0.6875 + 1.5j))
        assert m.E_minus == pytest.approx(-m.E_plus)

    def test_singular_at_hermitian_gap_closing(self):
        with pytest.raises(ModeSingularError):
            bdg_mode(2.0 * np.pi / 3.0, ClusterSpec(lam=1.0, Gamma=0.0))

    def test_hermitian_factors_real(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = rng.uniform(0.05, np.pi - 0.05)
            lam = rng.uniform(0.0, 2.0)
            m = bdg_mode(k, ClusterSpec(lam=lam, Gamma=0.0))
            if abs(2.0 * m.E_minus * (m.E_minus + m.z)) < 1e-5:
                continue  # too close to a gap closing for full precision
            assert abs(m.u.imag) < 1e-10
            assert abs(m.v.imag) < 1e-10
            assert abs(m.u) ** 2 + abs(m.v) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_normalization_identity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            k = rng.uniform(0.05, np.pi - 0.05)
            spec = ClusterSpec(lam=rng.uniform(0, 2), Gamma=rng.uniform(0, 4))
            try:
                m = bdg_mode(k, spec)
            except ModeSingularError:
                continue
            assert m.u**2 + m.v**2 == pytest.approx(1.0, abs=1e-10)
            assert m.E_minus**2 == pytest.approx(m.z**2 + m.y**2, abs=1e-12)

    def test_branch_flip_leaves_physics_unchanged(self):
        # flipping the sign of C flips (u, v) together; every downstream
        # quantity is a ratio quadratic in (u, v) and cannot change
        k = np.linspace(0.1, np.pi - 0.1, 7)
        spec = ClusterSpec(lam=0.7, Gamma=1.3)
        _, _, _, u, v, _ = _mode_arrays(k, spec)
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
            assert table.Q(r) == table.S(r)

    def test_hermitian_s_vanishes(self):
        table = correlator_elements(ClusterSpec(lam=0.8, Gamma=0.0), r_max=10)
        assert np.max(np.abs(table.s_values)) < 1e-12
        assert np.max(np.abs(table.g_values.imag)) < 1e-12

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
                general = pfaffian(m.astype(complex))
                fast = _wick_pfaffian(m, is_a, hermitian_limit=True)
                assert fast == pytest.approx(general, rel=1e-10, abs=1e-12)

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

    def test_antiferromagnetic_region(self):
        op = order_parameters(ClusterSpec(lam=1.9, Gamma=3.0, r_eval=240))
        assert op.my > 0.3
        assert abs(op.Ox) < 1e-3

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
        with pytest.raises(ValueError):
            ground_state_metric(ClusterSpec(lam=0.3), "J")
        with pytest.raises(ValueError, match="real-valued"):
            ground_state_metric(ClusterSpec(lam=0.3), "n_modes")
        with pytest.raises(ValueError, match="step"):
            ground_state_metric(ClusterSpec(lam=0.3), "lam", step=0.0)

    def test_step_exhaustion_warns(self):
        # at the Hermitian critical point the 4096-mode ground state changes
        # too fast even for the finest step, 0.5 / 2**8
        with pytest.warns(StepTooLargeWarning):
            mv = ground_state_metric(ClusterSpec(lam=1.0), "lam", step=0.5)
        assert mv.fidelity < 0.5


class TestEdOracle:
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
