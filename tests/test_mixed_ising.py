"""Mixed-field Ising chain: construction, ground-state selection, M_z."""

import numpy as np
import pytest

from nhmetric.errors import DegenerateGroundStateWarning
from nhmetric.linalg import EigenSystem, eig_right, warn_ground_tie
from nhmetric.metric import MetricRequest, metric_diagonal
from nhmetric.mixed_ising import MixedSpec, build_mixed, magnetization
from nhmetric.sweep import AxisSpec, SweepConfig, run_sweep
from spin_reference import kron_operator


def kron_reference(spec: MixedSpec) -> np.ndarray:
    """Independent construction from explicit Kronecker products."""
    N = spec.N
    H = np.zeros((2**N, 2**N), dtype=complex)
    bonds = range(N) if spec.bc == "pbc" else range(N - 1)
    for l in bonds:
        H -= spec.J * kron_operator(N, {l: "z", l + 1: "z"})
    for l in range(N):
        H += spec.h_x * kron_operator(N, {l: "x"})
        H += 1j * spec.h_z * kron_operator(N, {l: "z"})
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
        system = eig_right(build_mixed(spec))
        warn_ground_tie(system)
        assert system.eigenvalues[0] == pytest.approx(-10.0)
        assert magnetization(system.vectors[:, 0], 5) == pytest.approx(0.0, abs=1e-10)

    def test_anti_hermitian_part(self):
        spec = MixedSpec(N=4, h_x=1.0, h_z=0.6)
        H = build_mixed(spec)
        sz_total = sum(kron_operator(4, {l: "z"}) for l in range(4))
        assert np.allclose(H - H.conj().T, 2j * 0.6 * sz_total)

    def test_real_dtype_when_hermitian(self):
        assert not np.iscomplexobj(build_mixed(MixedSpec(N=4, h_x=1.0, h_z=0.0)))

    def test_real_spectrum_at_hz_zero(self):
        es = eig_right(build_mixed(MixedSpec(N=8, h_x=1.7, h_z=0.0)))
        assert np.max(np.abs(es.eigenvalues.imag)) < 1e-8


class TestGroundState:
    def test_ordering_rule_on_toy_matrix(self):
        system = eig_right(np.diag([2.0 - 1.0j, 1.0 + 5.0j]))
        warn_ground_tie(system)
        assert system.eigenvalues[0] == pytest.approx(1.0 + 5.0j)
        assert abs(system.vectors[1, 0]) == pytest.approx(1.0)

    def test_degenerate_axis_warns(self):
        spec = MixedSpec(N=4, h_x=0.0, h_z=0.8)
        with pytest.warns(DegenerateGroundStateWarning):
            warn_ground_tie(eig_right(build_mixed(spec)))

    def test_pm_energy_real_fm_energy_complex(self):
        pm = eig_right(build_mixed(MixedSpec(N=8, h_x=3.0, h_z=0.4)))
        warn_ground_tie(pm)
        assert abs(pm.eigenvalues[0].imag) < 1e-8
        # the ferromagnetic ground state is one of a complex-conjugate pair
        # (-17.774 +- 5.606i) sharing the minimum real part
        fm = eig_right(build_mixed(MixedSpec(N=8, h_x=3.0, h_z=1.6)))
        with pytest.warns(DegenerateGroundStateWarning):
            warn_ground_tie(fm)
        assert abs(fm.eigenvalues[0].imag) > 1e-3


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
        system = eig_right(build_mixed(spec))
        warn_ground_tie(system)
        psi = system.vectors[:, 0]
        per_site = [
            complex(np.vdot(psi, kron_operator(8, {l: "z"}) @ psi)) for l in range(8)
        ]
        assert np.allclose(per_site, per_site[0], atol=1e-10)
        assert magnetization(psi, 8) == pytest.approx(per_site[0], abs=1e-10)

    def test_requires_normalized_state(self):
        with pytest.raises(ValueError):
            magnetization(np.ones(16), 4)


class TestConjugatePair:
    """In the complex phase state 0 is one member of a conjugate pair tied in Re E.

    prod sigma^x K maps one member onto the other and flips M_z, so rounding
    alone decides the sign of state 0's M_z (N = 8, h_x = 3 gives -0.364,
    +0.403, -0.438 at h_z = 1.4, 1.5, 1.6 on one BLAS thread).
    """

    def test_sweep_records_pair_invariant_magnetization(self):
        config = SweepConfig(
            kind="mixed",
            model={"N": 8, "h_x": 3.0},
            axis1=AxisSpec("h_z", 1.4, 1.6, 3),
            axis2=None,
            observables=("magnetization",),
        )
        records = run_sweep(config)
        assert [r.warnings for r in records] == [{"DegenerateGroundState": 1}] * 3
        assert all(r.values["Mz"] >= 0.0 for r in records)

    @pytest.mark.parametrize("h_z", [1.2, 1.4, 1.5, 1.6])
    def test_metric_equal_on_both_members(self, h_z):
        spec = MixedSpec(N=8, h_x=3.0, h_z=h_z)
        system = eig_right(build_mixed(spec))
        swap = [1, 0, *range(2, system.dim)]
        swapped = EigenSystem(system.eigenvalues[swap], system.vectors[:, swap])
        assert system.eigenvalues[1] == pytest.approx(system.eigenvalues[0].conjugate())
        req = MetricRequest(spec, "h_z")
        g0 = metric_diagonal(req, system=system).g
        assert metric_diagonal(req, system=swapped).g == pytest.approx(g0, rel=1e-10)
