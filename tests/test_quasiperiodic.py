"""Builders and localization diagnostics of the two quasiperiodic chains."""

import numpy as np
import pytest

from nhmetric.errors import AlphaZeroError
from nhmetric.linalg import eig_right
from nhmetric.quasiperiodic import (
    GOLDEN_BETA,
    Gaa1Spec,
    Gaa2Spec,
    build_gaa1,
    build_gaa2,
    fractal_dimension,
    gaa1_critical_v1,
    gaa2_mobility_edge,
    participation_ratio,
)


class TestBuildGaa1:
    def test_uniform_ring_spectrum(self):
        L = 8
        H = build_gaa1(Gaa1Spec(L=L, t=1.0))
        expect = np.sort(2.0 * np.cos(2.0 * np.pi * np.arange(L) / L))
        got = np.sort(eig_right(H).eigenvalues.real)
        assert np.allclose(got, expect, atol=1e-10)

    def test_nonreciprocal_ratio(self):
        H = build_gaa1(Gaa1Spec(L=6, V2=0.3, g=0.5))
        for j in range(5):
            assert H[j + 1, j] / H[j, j + 1] == pytest.approx(np.exp(-1.0))

    def test_real_diagonal_when_h_zero(self):
        H = build_gaa1(Gaa1Spec(L=6, V1=2.0, g=0.5))
        assert not np.iscomplexobj(H)

    def test_modulated_bond_value(self):
        # t_2 = 1 + 0.5 cos(2 pi beta 2.5) evaluated from the formula
        expect = 1.0 + 0.5 * np.cos(2.0 * np.pi * GOLDEN_BETA * 2.5)
        H = build_gaa1(Gaa1Spec(L=5, V2=0.5))
        assert H[2, 1] == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(0.51992, abs=1e-4)

    def test_complex_onsite_phase(self):
        h = 0.7
        spec = Gaa1Spec(L=5, V1=1.5, h=h)
        H = build_gaa1(spec)
        x = 2.0 * np.pi * GOLDEN_BETA * 1.0
        expect = 1.5 * (np.cos(x) * np.cosh(h) - 1j * np.sin(x) * np.sinh(h))
        assert H[0, 0] == pytest.approx(expect)

    def test_boundary_coupling_scales_wrap_bond(self):
        spec = lambda z: Gaa1Spec(L=7, V2=0.4, g=0.2, zeta=z)
        full = build_gaa1(spec(1.0))
        half = build_gaa1(spec(0.5))
        open_ = build_gaa1(spec(0.0))
        assert half[0, 6] == pytest.approx(0.5 * full[0, 6])
        assert open_[0, 6] == 0.0 and open_[6, 0] == 0.0
        # bulk untouched
        assert np.allclose(full[1:, :6][:, 1:], half[1:, :6][:, 1:])

    def test_hermitian_limit_exactly_symmetric(self):
        H = build_gaa1(Gaa1Spec(L=21, V1=1.7, V2=0.6))
        assert np.array_equal(H, H.conj().T)


class TestBuildGaa2:
    def test_alpha_zero_reduces_to_plain_cosine(self):
        L, delta = 9, 1.3
        H = build_gaa2(Gaa2Spec(L=L, Delta=delta, alpha=0.0))
        j = np.arange(1, L + 1)
        assert np.allclose(np.diag(H), delta * np.cos(2.0 * np.pi * GOLDEN_BETA * j))

    def test_delta_zero_flat_potential(self):
        H = build_gaa2(Gaa2Spec(L=9, Delta=0.0, alpha=0.5))
        assert np.allclose(np.diag(H), 0.0)

    def test_onsite_value_by_hand(self):
        # j = 1, Delta = 1.8, alpha = -0.5, from the deformed-cosine formula
        c = np.cos(2.0 * np.pi * GOLDEN_BETA)
        expect = 1.8 * c / (1.0 + 0.5 * c)
        H = build_gaa2(Gaa2Spec(L=5, Delta=1.8, alpha=-0.5))
        assert H[0, 0] == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(-2.1025, abs=1e-3)

    def test_nonreciprocal_ratio(self):
        H = build_gaa2(Gaa2Spec(L=6, t=0.8, Delta=1.2, alpha=0.3, g=0.5))
        for j in range(5):
            assert H[j + 1, j] / H[j, j + 1] == pytest.approx(np.exp(-1.0))
        assert H[0, 5] / H[5, 0] == pytest.approx(np.exp(-1.0))

    def test_boundary_coupling_scales_wrap_bond(self):
        spec = lambda z: Gaa2Spec(L=7, t=0.8, Delta=1.2, alpha=0.3, g=0.2, zeta=z)
        full = build_gaa2(spec(1.0))
        half = build_gaa2(spec(0.5))
        open_ = build_gaa2(spec(0.0))
        assert full[0, 6] == pytest.approx(0.8 * np.exp(-0.2))
        assert half[0, 6] == pytest.approx(0.5 * full[0, 6])
        assert half[6, 0] == pytest.approx(0.5 * full[6, 0])
        assert open_[0, 6] == 0.0 and open_[6, 0] == 0.0
        # bulk untouched
        assert np.array_equal(full[1:, :6][:, 1:], half[1:, :6][:, 1:])

    def test_hermitian_limit_exactly_symmetric(self):
        H = build_gaa2(Gaa2Spec(L=13, Delta=1.1, alpha=0.3))
        assert np.array_equal(H, H.T)

    def test_alpha_bound_enforced(self):
        with pytest.raises(ValueError):
            Gaa2Spec(L=5, Delta=1.0, alpha=1.0)


class TestDiagnostics:
    def test_uniform_state(self):
        L = 144
        psi = np.full(L, 1.0 / np.sqrt(L))
        assert fractal_dimension(psi) == pytest.approx(1.0)
        assert participation_ratio(psi) == pytest.approx(1.0)

    def test_single_site(self):
        L = 144
        psi = np.zeros(L)
        psi[17] = 1.0
        assert fractal_dimension(psi) == pytest.approx(0.0)
        assert participation_ratio(psi) == pytest.approx(1.0 / L)

    def test_two_site_superposition(self):
        L = 610
        psi = np.zeros(L)
        psi[0] = psi[1] = 1.0 / np.sqrt(2.0)
        assert fractal_dimension(psi) == pytest.approx(np.log(2.0) / np.log(L))
        assert fractal_dimension(psi) == pytest.approx(0.108077, abs=1e-6)
        assert participation_ratio(psi) == pytest.approx(2.0 / L)
        assert participation_ratio(psi) == pytest.approx(0.0032787, abs=1e-7)

    def test_bounds_on_real_spectra(self):
        spec = Gaa1Spec(L=89, V1=2.2, V2=0.4, g=0.3)
        es = eig_right(spec.build())
        for n in range(0, 89, 8):
            psi = es.vectors[:, n]
            eta = fractal_dimension(psi)
            pr = participation_ratio(psi)
            assert -1e-9 <= eta <= 1.0 + 1e-9
            assert 1.0 / 89 - 1e-12 <= pr <= 1.0 + 1e-9


class TestCriticalLine:
    def test_self_duality_point(self):
        assert gaa1_critical_v1(1.0, 0.5, 0.0, 0.0) == pytest.approx(2.0)
        assert gaa1_critical_v1(1.0, 1.0, 0.0, 0.0) == pytest.approx(2.0)

    def test_nonreciprocal_value(self):
        # 2 cosh(0.5) + 2 sqrt(0.75) sinh(0.5) = 3.1578... (reported as 3.16)
        v = gaa1_critical_v1(1.0, 0.5, 0.5, 0.0)
        expect = 2.0 * np.cosh(0.5) + 2.0 * np.sqrt(0.75) * np.sinh(0.5)
        assert v == pytest.approx(expect)
        assert v == pytest.approx(3.16, abs=5e-3)

    def test_complex_phase_value(self):
        assert gaa1_critical_v1(1.0, 0.5, 0.0, 0.5) == pytest.approx(
            2.0 * np.exp(-0.5)
        )
        assert gaa1_critical_v1(1.0, 0.5, 0.0, 0.5) == pytest.approx(1.2131, abs=1e-4)

    def test_hopping_dominated_branch(self):
        # V2 > t: K = V2 and the square-root term vanishes
        assert gaa1_critical_v1(1.0, 1.5, 0.7, 0.0) == pytest.approx(
            2.0 * 1.5 * np.cosh(0.7)
        )


class TestMobilityEdge:
    def test_zero_numerator(self):
        assert gaa2_mobility_edge(1.0, 2.0, 0.37) == 0.0

    def test_substitutions(self):
        assert gaa2_mobility_edge(1.0, 1.8, -0.5) == pytest.approx(-0.4)
        assert gaa2_mobility_edge(1.0, 1.0, 0.5) == pytest.approx(2.0)

    def test_alpha_zero_raises(self):
        with pytest.raises(AlphaZeroError):
            gaa2_mobility_edge(1.0, 1.0, 0.0)


class TestConcordance:
    def test_eta_pr_agree_on_phases(self):
        # deep extended vs deep localized states of the modulated chain
        extended = eig_right(Gaa1Spec(L=610, V1=0.5, V2=0.0).build()).vectors[:, 0]
        localized = eig_right(Gaa1Spec(L=610, V1=6.0, V2=0.0).build()).vectors[:, 0]
        assert fractal_dimension(extended) > 0.9
        assert participation_ratio(extended) > 0.5
        assert fractal_dimension(localized) < 0.1
        assert participation_ratio(localized) < 0.05
