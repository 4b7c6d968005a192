"""Mixed-field Ising chain: construction, ground-state selection, M_z."""

import numpy as np
import pytest

from nhmetric.errors import DegenerateGroundStateWarning
from nhmetric.linalg import eig_right
from nhmetric.mixed_ising import MixedSpec, build_mixed, ground_state, magnetization
from nhmetric.spinops import site_operator


def kron_reference(spec: MixedSpec) -> np.ndarray:
    """Independent construction from explicit Kronecker products."""
    N = spec.N
    H = np.zeros((2**N, 2**N), dtype=complex)
    bonds = range(N) if spec.bc == "pbc" else range(N - 1)
    for l in bonds:
        H -= spec.J * site_operator(N, {l: "z", l + 1: "z"})
    for l in range(N):
        H += spec.h_x * site_operator(N, {l: "x"})
        H += 1j * spec.h_z * site_operator(N, {l: "z"})
    return H


class TestBuildMixed:
    @pytest.mark.parametrize("bc", ["pbc", "obc"])
    def test_matches_kron_reference(self, bc):
        spec = MixedSpec(N=4, h_x=1.3, h_z=0.7, bc=bc)
        assert np.allclose(build_mixed(spec), kron_reference(spec))

    def test_classical_ring_ground_energy(self):
        spec = MixedSpec(N=6, h_x=0.0, h_z=0.0)
        es = eig_right(build_mixed(spec))
        assert np.max(np.abs(es.eigenvalues.imag)) < 1e-12
        assert es.eigenvalues[0].real == pytest.approx(-6.0)

    def test_decoupled_transverse_spins(self):
        spec = MixedSpec(N=5, J=0.0, h_x=2.0, h_z=0.0)
        E, psi = ground_state(build_mixed(spec))
        assert E == pytest.approx(-10.0)
        assert magnetization(psi, 5) == pytest.approx(0.0, abs=1e-10)

    def test_anti_hermitian_part(self):
        spec = MixedSpec(N=4, h_x=1.0, h_z=0.6)
        H = build_mixed(spec)
        sz_total = sum(
            site_operator(4, {l: "z"}) for l in range(4)
        )
        assert np.allclose(H - H.conj().T, 2j * 0.6 * sz_total)

    def test_real_dtype_when_hermitian(self):
        assert not np.iscomplexobj(build_mixed(MixedSpec(N=4, h_x=1.0, h_z=0.0)))

    def test_real_spectrum_at_hz_zero(self):
        es = eig_right(build_mixed(MixedSpec(N=8, h_x=1.7, h_z=0.0)))
        assert np.max(np.abs(es.eigenvalues.imag)) < 1e-8


class TestGroundState:
    def test_ordering_rule_on_toy_matrix(self):
        E, psi = ground_state(np.diag([2.0 - 1.0j, 1.0 + 5.0j]))
        assert E == pytest.approx(1.0 + 5.0j)
        assert abs(psi[1]) == pytest.approx(1.0)

    def test_degenerate_axis_warns(self):
        spec = MixedSpec(N=4, h_x=0.0, h_z=0.8)
        with pytest.warns(DegenerateGroundStateWarning):
            ground_state(build_mixed(spec))

    def test_pm_energy_real_fm_energy_complex(self):
        E_pm, _ = ground_state(build_mixed(MixedSpec(N=8, h_x=3.0, h_z=0.4)))
        assert abs(E_pm.imag) < 1e-8
        # the ferromagnetic ground state is one of a complex-conjugate pair
        # (-17.774 +- 5.606i) sharing the minimum real part
        with pytest.warns(DegenerateGroundStateWarning):
            E_fm, _ = ground_state(build_mixed(MixedSpec(N=8, h_x=3.0, h_z=1.6)))
        assert abs(E_fm.imag) > 1e-3


class TestMagnetization:
    def test_polarized_product_states(self):
        N = 5
        up = np.zeros(2**N)
        up[0] = 1.0
        down = np.zeros(2**N)
        down[-1] = 1.0
        assert magnetization(up, N) == pytest.approx(1.0)
        assert magnetization(down, N) == pytest.approx(-1.0)

    def test_translation_invariance_under_pbc(self):
        spec = MixedSpec(N=8, h_x=3.0, h_z=0.5)
        _, psi = ground_state(build_mixed(spec))
        per_site = [
            complex(np.vdot(psi, site_operator(8, {l: "z"}) @ psi)) for l in range(8)
        ]
        assert np.allclose(per_site, per_site[0], atol=1e-10)
        assert magnetization(psi, 8) == pytest.approx(per_site[0], abs=1e-10)

    def test_requires_normalized_state(self):
        with pytest.raises(ValueError):
            magnetization(np.ones(16), 4)
