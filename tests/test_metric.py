"""Fidelity and finite-difference quantum metric against closed forms."""

import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest

from nhmetric import metric
from nhmetric.errors import AmbiguousMatchWarning, NotNormalizedError, StepTooLargeWarning
from nhmetric.metric import (
    ALL_STATES,
    MAX_STEP_HALVINGS,
    MetricRequest,
    fidelity,
    metric_diagonal,
    metric_spectrum,
)
from nhmetric.linalg import eig_right
from nhmetric.quasiperiodic import Gaa1Spec, Gaa2Spec, gaa2_mobility_edge


@dataclass(frozen=True)
class TwoLevel:
    """H(mu) = sigma_x + mu sigma_z, ground-state metric 1/[4(1+mu^2)^2]."""

    mu: float

    def build(self):
        return np.array([[self.mu, 1.0], [1.0, -self.mu]])


@dataclass(frozen=True)
class DiagonalModel:
    """H(mu) = diag(mu, -mu): eigenvectors never move."""

    mu: float

    def build(self):
        return np.diag([self.mu, -self.mu])


@dataclass(frozen=True)
class ConstantModel:
    mu: float

    def build(self):
        return np.array([[1.0, 0.3], [0.3, -0.2]])


@dataclass(frozen=True)
class FourierJump:
    """Five levels whose eigenbasis jumps to the Fourier basis for mu > 0.

    Every state before the jump overlaps every state after it by exactly
    1/sqrt(5) < 0.5, so no stencil straddling mu = 0 is ever fine enough.
    """

    mu: float

    def build(self):
        levels = np.diag(np.arange(5.0))
        if self.mu <= 0.0:
            return levels
        f = np.fft.fft(np.eye(5)) / np.sqrt(5.0)
        return f @ levels @ f.conj().T


@pytest.fixture
def eig_calls(monkeypatch):
    """Shapes of the matrices the metric diagonalizes, in call order."""
    calls = []

    def counting_eig_right(H):
        calls.append(H.shape)
        return eig_right(H)

    monkeypatch.setattr(metric, "eig_right", counting_eig_right)
    return calls


def two_level_metric(mu):
    return 1.0 / (4.0 * (1.0 + mu**2) ** 2)


class TestFidelity:
    def test_identical(self):
        v = np.array([0.6, 0.8j])
        assert fidelity(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fidelity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_rotated(self):
        th = 0.3
        b = np.array([np.cos(th), np.sin(th)])
        assert fidelity(np.array([1.0, 0.0]), b) == pytest.approx(np.cos(0.3))

    def test_phase_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        a /= np.linalg.norm(a)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        b /= np.linalg.norm(b)
        base = fidelity(a, b)
        assert fidelity(a * np.exp(0.7j), b * np.exp(-2.1j)) == pytest.approx(
            base, abs=1e-12
        )

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError):
            fidelity(np.array([1.0, 1.0]), np.array([1.0, 0.0]))


class TestMetricDiagonal:
    @pytest.mark.parametrize("mu", [0.0, 1.0])
    def test_two_level_closed_form(self, mu):
        req = MetricRequest(model=TwoLevel(mu=mu), parameter="mu", step=1e-3)
        mv = metric_diagonal(req)
        assert mv.g == pytest.approx(two_level_metric(mu), abs=1e-5)

    def test_parameter_independent_hamiltonian(self):
        mv = metric_diagonal(MetricRequest(model=ConstantModel(mu=0.3), parameter="mu"))
        assert mv.fidelity == pytest.approx(1.0, abs=1e-14)
        assert abs(mv.g) < 1e-10

    def test_rejects_bad_parameter(self):
        with pytest.raises(ValueError):
            MetricRequest(model=TwoLevel(mu=0.0), parameter="nope")
        with pytest.raises(ValueError):
            MetricRequest(model=TwoLevel(mu=0.0), parameter="mu", step=0.0)
        with pytest.raises(ValueError, match="real-valued"):
            MetricRequest(model=Gaa1Spec(L=34), parameter="L")

    def test_second_order_step_convergence(self):
        # smooth extended region of the nonreciprocal chain
        spec = Gaa1Spec(L=89, V1=0.5, V2=0.0, g=0.5)
        vals = []
        for step in (1e-3, 5e-4):
            req = MetricRequest(model=spec, parameter="V1", step=step)
            vals.append(metric_diagonal(req).g)
        assert vals[0] == pytest.approx(vals[1], rel=0.01)

    def test_gauge_invariance_through_eig(self):
        # two independent diagonalizations of the same point agree exactly
        spec = Gaa1Spec(L=34, V1=1.3, V2=0.4, g=0.3)
        req = MetricRequest(model=spec, parameter="V1")
        assert metric_diagonal(req).g == metric_diagonal(req).g

    def test_hermitian_perturbation_theory_oracle(self):
        # sum_m |<m|dH|n>|^2 / (E_m - E_n)^2 from one eigensystem
        spec = Gaa1Spec(L=34, V1=0.9, V2=0.3, g=0.0, h=0.0)
        h = 1e-6
        hi = dataclasses.replace(spec, V1=spec.V1 + h).build()
        lo = dataclasses.replace(spec, V1=spec.V1 - h).build()
        dh = (hi - lo) / (2 * h)
        es = eig_right(spec.build())
        v0 = es.vectors[:, 0]
        e0 = es.eigenvalues[0]
        oracle = 0.0
        for m in range(1, es.dim):
            amp = np.vdot(es.vectors[:, m], dh @ v0)
            oracle += abs(amp) ** 2 / abs(es.eigenvalues[m] - e0) ** 2
        mv = metric_diagonal(MetricRequest(model=spec, parameter="V1", step=1e-4))
        assert mv.g == pytest.approx(float(oracle), rel=1e-4)


class TestMetricSpectrum:
    def test_diagonal_model_all_zero(self):
        req = MetricRequest(model=DiagonalModel(mu=0.7), parameter="mu", state_index=ALL_STATES)
        values = metric_spectrum(req)
        assert len(values) == 2
        for mv in values:
            assert abs(mv.g) < 1e-10

    def test_non_negativity(self):
        spec = Gaa2Spec(L=34, Delta=1.5, alpha=-0.5, g=0.2)
        values = metric_spectrum(MetricRequest(model=spec, parameter="Delta"))
        assert all(mv.g >= -1e-12 for mv in values)

    def test_mobility_edge_split_qualitative(self):
        # Hermitian deformed chain: the ground state crosses the mobility
        # edge at much smaller Delta than the highest state, so their
        # metric peaks separate (states localize when Re E crosses E_c)
        L, alpha = 89, -0.5
        grid = np.arange(0.4, 3.3, 0.1)
        xi_low, xi_high = [], []
        for d in grid:
            spec = Gaa2Spec(L=L, Delta=float(d), alpha=alpha)
            vals = metric_spectrum(MetricRequest(model=spec, parameter="Delta"))
            xi_low.append(vals[0].g)
            xi_high.append(vals[-1].g)
        peak_low = grid[int(np.argmax(xi_low))]
        peak_high = grid[int(np.argmax(xi_high))]
        assert peak_low < peak_high
        # each peak should sit near its own edge crossing
        e_low = eig_right(Gaa2Spec(L=L, Delta=float(peak_low), alpha=alpha).build()).eigenvalues[0]
        assert abs(e_low.real - gaa2_mobility_edge(1.0, float(peak_low), alpha)) < 0.35


class TestStepHalving:
    def test_halved_step_equals_direct_call(self, eig_calls):
        # near the transition the L = 89 ground state changes too fast for
        # d = 2, 1 and 0.5; d = 0.25 is the first step with fidelity >= 0.5
        spec = Gaa1Spec(L=89, V1=3.0, V2=0.5, g=0.5)
        halved = metric_diagonal(MetricRequest(model=spec, parameter="V1", step=2.0))
        assert len(eig_calls) == 2 * 4
        eig_calls.clear()
        direct = metric_diagonal(MetricRequest(model=spec, parameter="V1", step=0.25))
        assert len(eig_calls) == 2
        assert direct.fidelity >= 0.5
        assert halved == direct

    def test_exhaustion_warns_diagonal(self, eig_calls):
        req = MetricRequest(model=FourierJump(mu=0.0), parameter="mu", step=0.1)
        with pytest.warns(StepTooLargeWarning, match=f"after {MAX_STEP_HALVINGS} step halvings"):
            mv = metric_diagonal(req)
        assert len(eig_calls) == 2 * (MAX_STEP_HALVINGS + 1)
        assert mv.fidelity == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-12)
        # the value is reported at the last, finest step
        step = 0.1 / 2**MAX_STEP_HALVINGS
        assert mv.g == pytest.approx(-2.0 * np.log(mv.fidelity) / step**2, rel=1e-12)

    def test_exhaustion_warns_spectrum(self):
        req = MetricRequest(model=FourierJump(mu=0.0), parameter="mu", step=0.1)
        with pytest.warns(StepTooLargeWarning), pytest.warns(AmbiguousMatchWarning):
            values = metric_spectrum(req)
        assert len(values) == 5
        assert all(mv.fidelity < 0.5 for mv in values)
