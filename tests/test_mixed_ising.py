"""Mixed-field Ising chain: construction, momentum blocks, ground-state selection, M_z."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from nhmetric import spinops, sweep
from nhmetric.errors import DegenerateGroundStateWarning
from nhmetric.linalg import EigenSystem, eig_right, warn_ground_tie
from nhmetric.metric import MetricRequest, metric_diagonal
from nhmetric.mixed_ising import MixedSector, MixedSpec, build_mixed, magnetization
from nhmetric.sweep import AxisSpec, SweepConfig, run_sweep
from spin_reference import assert_mirror_spectra, assert_same_spectrum, kron_operator


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
        warn_ground_tie(system.eigenvalues)
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
        warn_ground_tie(system.eigenvalues)
        assert system.eigenvalues[0] == pytest.approx(1.0 + 5.0j)
        assert abs(system.vectors[1, 0]) == pytest.approx(1.0)

    def test_degenerate_axis_warns(self):
        spec = MixedSpec(N=4, h_x=0.0, h_z=0.8)
        with pytest.warns(DegenerateGroundStateWarning):
            warn_ground_tie(eig_right(build_mixed(spec)).eigenvalues)

    def test_pm_energy_real_fm_energy_complex(self):
        pm = eig_right(build_mixed(MixedSpec(N=8, h_x=3.0, h_z=0.4)))
        warn_ground_tie(pm.eigenvalues)
        assert abs(pm.eigenvalues[0].imag) < 1e-8
        # the ferromagnetic ground state is one of a complex-conjugate pair
        # (-17.774 +- 5.606i) sharing the minimum real part
        fm = eig_right(build_mixed(MixedSpec(N=8, h_x=3.0, h_z=1.6)))
        with pytest.warns(DegenerateGroundStateWarning):
            warn_ground_tie(fm.eigenvalues)
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
        warn_ground_tie(system.eigenvalues)
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


class TestSizeLimits:
    @pytest.mark.parametrize("N,bc", [(14, "pbc"), (12, "obc")])
    def test_largest_chains_accepted(self, N, bc):
        MixedSpec(N=N, bc=bc)

    @pytest.mark.parametrize("N,bc", [(15, "pbc"), (13, "obc"), (1, "pbc")])
    def test_beyond_the_limits_rejected(self, N, bc):
        with pytest.raises(ValueError, match="N must lie in"):
            MixedSpec(N=N, bc=bc)

    @pytest.mark.parametrize("h_z,itemsize", [(0.0, 8), (0.5, 16)])
    def test_dense_matrix_allocated_once_at_its_dtype(self, h_z, itemsize):
        # 8 MiB real, 16 MiB complex: no complex or second 2^N x 2^N copy on the way
        tracemalloc.start()
        try:
            H = build_mixed(MixedSpec(N=10, h_x=1.3, h_z=h_z, bc="obc"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert H.itemsize == itemsize
        assert peak <= 1.1 * H.nbytes

    def test_dense_matrix_refused_before_allocation(self):
        spec = MixedSpec(N=14, h_x=1.0, h_z=0.5)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="N <= 12"):
                spec.build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestMomentumSectors:
    """The periodic chain's momentum blocks against its dense H, the oracle."""

    def test_blocks_exactly_hermitian_at_hz_zero(self):
        for m in range(8):
            block = MixedSector(N=8, m=m, J=0.9, h_x=1.3).build()
            assert np.array_equal(block, block.conj().T)
            assert eig_right(block).hermitian

    def test_sectors_are_the_unmirrored_blocks(self, monkeypatch):
        # spinops.diagonalize solves blocks m = 0..N//2 from any one block, for odd and even N
        calls = []

        def counting_eig_right(H):
            calls.append(H.shape[0])
            return eig_right(H)

        monkeypatch.setattr(spinops, "eig_right", counting_eig_right)
        for N in (7, 8):
            calls.clear()
            w = spinops.diagonalize(MixedSector(N, N - 1, h_x=2.0, h_z=0.5)).eigenvalues
            assert calls == [spinops.block_dimension(N, m) for m in range(N // 2 + 1)]
            assert len(w) == 2**N

    @pytest.mark.parametrize("N", range(4, 11))
    @pytest.mark.parametrize("h_z", [0.0, 1.5])
    def test_reflection_maps_block_m_to_n_minus_m(self, N, h_z):
        spectra = [eig_right(MixedSector(N, m, 1.0, 3.0, h_z).build()).eigenvalues for m in range(N)]
        # at h_x = 3, h_z = 1.5 lies past the exceptional point for every N here
        ground = min(np.concatenate(spectra), key=lambda w: w.real)
        assert (abs(ground.imag) > 1.0) == (h_z > 0)
        assert_mirror_spectra(spectra)

    @pytest.mark.parametrize("bc", ["pbc", "obc"])
    def test_diagonalize_takes_blocks_only_when_periodic(self, bc):
        spec = MixedSpec(N=6, h_x=2.0, h_z=0.5, bc=bc)
        point = spec.diagonalize()
        dense = eig_right(spec.build())
        # the open chain is the dense solve itself; the periodic one a block, against the dense H
        assert isinstance(point.model, MixedSector) == (bc == "pbc")
        assert_same_spectrum(point.eigenvalues, dense.eigenvalues, rtol=1e-10)
        assert np.linalg.norm(spec.build() @ point.ground - point.eigenvalues[0] * point.ground) <= 1e-10

    @pytest.mark.parametrize("name", ["J", "h_x", "h_z"])
    def test_derivative_is_the_block_of_dh(self, name):
        sector = MixedSector(N=6, m=2, J=0.8, h_x=0.7, h_z=0.4)
        mu, d = getattr(sector, name), 1e-3

        def at(x):
            return dataclasses.replace(sector, **{name: x}).build()

        # H is linear in every field, so the central difference is exact up to rounding
        central = (at(mu + d / 2) - at(mu - d / 2)) / d
        np.testing.assert_allclose(sector.derivative(name), central, atol=1e-10)

    def test_fields_follow_the_momentum_and_no_parity_is_set(self):
        # the h_x string flips prod sigma^z, so the chain has no parity block to pick
        assert MixedSector(6, 1, 0.9, 3.0, 0.5) == MixedSector(N=6, m=1, J=0.9, h_x=3.0, h_z=0.5)
        with pytest.raises(TypeError):
            MixedSector(6, 1, parity=1)

    def test_derivative_rejects_other_names(self):
        with pytest.raises(ValueError, match="real-valued field"):
            MixedSector(N=4, m=0).derivative("m")

    def test_sweep_matches_dense_path_on_demo_grid(self):
        # the demo's grid: paramagnet, metric peak and conjugate-pair ferromagnet
        axis = AxisSpec("h_z", 0.1, 1.6, 31)
        config = SweepConfig(
            "mixed", {"N": 8, "h_x": 3.0}, axis, None, ("metric", "magnetization", "spectrum")
        )
        records = run_sweep(config)
        for record, h_z in zip(records, axis.values()):
            spec = MixedSpec(N=8, h_x=3.0, h_z=h_z)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                system = eig_right(spec.build())
                warn_ground_tie(system.eigenvalues)
                g = metric_diagonal(MetricRequest(spec, "h_z"), system=system).g
            codes = [sweep._WARNING_CODES[w.category] for w in caught]
            assert record.warnings == {code: codes.count(code) for code in codes}
            assert record.values["g"] == pytest.approx(g, rel=1e-9)
            mz = abs(magnetization(system.vectors[:, 0], 8))
            assert record.values["Mz"] == pytest.approx(mz, abs=1e-10)
            # a tie in Re E (k and -k, a conjugate pair) orders by rounding: match as multisets
            distance = np.abs(system.eigenvalues[:, None] - record.values["spectrum"][None, :])
            rows, cols = linear_sum_assignment(distance)
            assert np.max(distance[rows, cols]) <= 1e-10
