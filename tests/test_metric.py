"""The perturbative quantum metric and its finite-difference oracle."""

import contextlib
import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg as sla

from nhmetric import metric, sweep
from nhmetric.errors import AmbiguousMatchWarning, DefectiveMatrixWarning, StepTooLargeWarning
from nhmetric.metric import (
    MAX_STEP_HALVINGS,
    MetricRequest,
    field_types,
    metric_diagonal,
    metric_spectrum,
)
from nhmetric.linalg import EigenSystem, blas_thread_counts, blas_threads, eig_right
from nhmetric.mixed_ising import MixedSector, MixedSpec
from nhmetric.quasiperiodic import Gaa1Spec, Gaa2Spec, gaa2_mobility_edge


@dataclass(frozen=True)
class TwoLevel:
    """H(mu) = sigma_x + mu sigma_z, ground-state metric 1/[4(1+mu^2)^2]."""

    mu: float

    def build(self):
        return np.array([[self.mu, 1.0], [1.0, -self.mu]])

    def derivative(self, parameter):
        return np.diag([1.0, -1.0])


@dataclass(frozen=True)
class DiagonalModel:
    """H(mu) = diag(mu, -mu): eigenvectors never move."""

    mu: float

    def build(self):
        return np.diag([self.mu, -self.mu])

    def derivative(self, parameter):
        return np.diag([1.0, -1.0])


@dataclass(frozen=True)
class ConstantModel:
    mu: float

    def build(self):
        return np.array([[1.0, 0.3], [0.3, -0.2]])

    def derivative(self, parameter):
        return np.zeros((2, 2))


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


@dataclass(frozen=True)
class TiedJump(FourierJump):
    """FourierJump with states 0 and 1 tied for mu <= 0, so state 0 takes the stencil at mu = 0."""

    def build(self):
        if self.mu <= 0.0:
            return np.diag([0.0, 0.0, 1.0, 2.0, 3.0])
        return super().build()


@pytest.fixture
def eig_calls(monkeypatch):
    """Shapes of the matrices the metric diagonalizes, in call order."""
    calls = []

    def counting_eig_right(H):
        calls.append(H.shape)
        return eig_right(H)

    monkeypatch.setattr(metric, "eig_right", counting_eig_right)
    return calls


@pytest.fixture
def fd_calls(monkeypatch):
    """Parameters of the finite-difference fallbacks taken, in call order."""
    calls = []
    stencil = metric._finite_difference

    def counting_finite_difference(req, pair, *step):
        calls.append(req.parameter)
        return stencil(req, pair, *step)

    monkeypatch.setattr(metric, "_finite_difference", counting_finite_difference)
    return calls


def two_level_metric(mu):
    return 1.0 / (4.0 * (1.0 + mu**2) ** 2)


class TestMetricDiagonal:
    @pytest.mark.parametrize("mu", [0.0, 1.0])
    def test_two_level_closed_form(self, mu):
        mv = metric_diagonal(MetricRequest(model=TwoLevel(mu=mu), parameter="mu"))
        assert mv.g == pytest.approx(two_level_metric(mu), abs=1e-5)

    def test_parameter_independent_hamiltonian(self):
        mv = metric_diagonal(MetricRequest(model=ConstantModel(mu=0.3), parameter="mu"))
        assert mv.fidelity == pytest.approx(1.0, abs=1e-14)
        assert abs(mv.g) < 1e-10

    def test_rejects_bad_parameter(self):
        with pytest.raises(ValueError):
            MetricRequest(model=TwoLevel(mu=0.0), parameter="nope")
        with pytest.raises(ValueError, match="real-valued"):
            MetricRequest(model=Gaa1Spec(L=34), parameter="L")

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
        mv = metric_diagonal(MetricRequest(model=spec, parameter="V1"))
        assert mv.g == pytest.approx(float(oracle), rel=1e-4)

    def test_beta_against_stencil(self):
        # beta enters as cos(2 pi beta j), so a central difference of H errs
        # by O((2 pi L d)**2): 1.7e-4 in g here at d = 1e-4, hence d = 1e-6
        req = MetricRequest(model=Gaa1Spec(L=89, V1=1.5, V2=0.5, g=0.3), parameter="beta")
        oracle = metric._fd_diagonal(req, step=1e-6)
        assert metric_diagonal(req).g == pytest.approx(oracle.g, rel=1e-6)

    @pytest.mark.parametrize("L", [34, 55])
    def test_open_nonreciprocal_chain_matches_gauge_map(self, L):
        # with zeta = 0, H(g) = S H(0) S^-1 for S = diag(exp(-g j)), so the
        # right ground state is S phi / |S phi| with phi from the g = 0 chain;
        # eig_right stays silent here (rcond >= 7e-13) and the metric is right
        spec = Gaa1Spec(L=L, V1=1.0, V2=0.5, g=0.5, h=0.3, zeta=0.0)
        d = 1e-4

        def mapped(V1):
            phi = eig_right(dataclasses.replace(spec, g=0.0, V1=V1).build()).vectors[:, 0]
            psi = phi * np.exp(-spec.g * np.arange(1, L + 1))
            return psi / np.linalg.norm(psi)

        exact = -2.0 * np.log(abs(np.vdot(mapped(1.0 - d / 2), mapped(1.0 + d / 2)))) / d**2
        g = metric_diagonal(MetricRequest(model=spec, parameter="V1")).g
        assert g == pytest.approx(exact, rel=1e-5)
        assert g == pytest.approx(0.068, abs=1e-4)


class TestMetricSpectrum:
    def test_diagonal_model_all_zero(self):
        req = MetricRequest(model=DiagonalModel(mu=0.7), parameter="mu")
        values = metric_spectrum(req)
        assert len(values) == 2
        for mv in values:
            assert abs(mv.g) < 1e-10

    def test_hand_built_system_takes_general_formula(self):
        # without eig_right's Hermitian flag the biorthogonal formula runs,
        # which holds for a unitary V as well
        spec = Gaa2Spec(L=34, Delta=1.5, alpha=-0.5)
        req = MetricRequest(model=spec, parameter="Delta")
        flagged = eig_right(spec.build())
        assert flagged.hermitian
        general = metric_spectrum(req, system=EigenSystem(flagged.eigenvalues, flagged.vectors))
        hermitian = metric_spectrum(req, system=flagged)
        np.testing.assert_allclose(
            [mv.g for mv in general], [mv.g for mv in hermitian], rtol=1e-8, atol=1e-12
        )

    @pytest.mark.parametrize("Delta", [1.0, 2.0])
    def test_gaa2_evd_against_evr(self, Delta, fd_calls):
        # eig_right diagonalizes the real symmetric chain with ?syevd; the
        # metric must not depend on which LAPACK driver gave the vectors
        spec = Gaa2Spec(L=89, Delta=Delta, alpha=-0.5)
        req = MetricRequest(model=spec, parameter="Delta")
        w, v = sla.eigh(spec.build(), driver="evr")
        evr = EigenSystem(w.astype(complex), v.astype(complex), hermitian=True)
        g = np.array([mv.g for mv in metric_spectrum(req)])
        reference = np.array([mv.g for mv in metric_spectrum(req, system=evr)])
        assert fd_calls == []
        compared = reference > 1e-2
        assert compared.any()
        np.testing.assert_allclose(g[compared], reference[compared], rtol=1e-8)
        # the same vectors kept real, as eig_right keeps them, give the same metric
        real = EigenSystem(w.astype(complex), v, hermitian=True)
        g_real = np.array([mv.g for mv in metric_spectrum(req, system=real)])
        np.testing.assert_allclose(g_real, reference, rtol=1e-10, atol=1e-14)

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
    """The finite-difference engine's halving policy, called directly."""

    def test_halved_step_equals_direct_call(self, eig_calls):
        # near the transition the L = 89 ground state changes too fast for
        # d = 2, 1 and 0.5; d = 0.25 is the first step with fidelity >= 0.5
        spec = Gaa1Spec(L=89, V1=3.0, V2=0.5, g=0.5)
        req = MetricRequest(model=spec, parameter="V1")
        halved = metric._fd_diagonal(req, step=2.0)
        assert len(eig_calls) == 2 * 4
        eig_calls.clear()
        direct = metric._fd_diagonal(req, step=0.25)
        assert len(eig_calls) == 2
        assert direct.fidelity >= 0.5
        assert halved == direct

    def test_exhaustion_warns_diagonal(self, eig_calls):
        req = MetricRequest(model=FourierJump(mu=0.0), parameter="mu")
        with pytest.warns(StepTooLargeWarning, match=f"after {MAX_STEP_HALVINGS} step halvings"):
            mv = metric._fd_diagonal(req, step=0.1)
        assert len(eig_calls) == 2 * (MAX_STEP_HALVINGS + 1)
        assert mv.fidelity == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-12)
        # the value is reported at the last, finest step
        step = 0.1 / 2**MAX_STEP_HALVINGS
        assert mv.g == pytest.approx(-2.0 * np.log(mv.fidelity) / step**2, rel=1e-12)

    def test_exhaustion_warns_spectrum(self):
        req = MetricRequest(model=FourierJump(mu=0.0), parameter="mu")
        with pytest.warns(StepTooLargeWarning), pytest.warns(AmbiguousMatchWarning):
            values = metric._fd_spectrum(req, step=0.1)
        assert len(values) == 5
        assert all(mv.fidelity < 0.5 for mv in values)


class TestWarningsNameTheCaller:
    """A direct evaluator call reports each warning at the caller's line, here this file."""

    @pytest.mark.parametrize("raises", [False, True], ids=["return", "raise"])
    @pytest.mark.parametrize("evaluate", [metric_diagonal, metric_spectrum])
    def test_eig_right_warning(self, monkeypatch, evaluate, raises):
        # the open nonreciprocal chain's skin effect: eig_right warns on rcond,
        # before the derivative is taken
        def failing(model, parameter):
            raise RuntimeError("no derivative")

        if raises:
            monkeypatch.setattr(Gaa1Spec, "derivative", failing)
        req = MetricRequest(Gaa1Spec(L=89, V1=1.0, V2=0.5, g=0.5, zeta=0.0), "V1")
        with pytest.warns(DefectiveMatrixWarning) as record:
            with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
                evaluate(req)
        assert record[0].filename == __file__

    @pytest.mark.parametrize(
        "evaluate, categories",
        [
            (metric_diagonal, {StepTooLargeWarning}),
            (metric_spectrum, {StepTooLargeWarning, AmbiguousMatchWarning}),
        ],
    )
    def test_stencil_warnings(self, evaluate, categories):
        # no stencil across the tie's jump is fine enough, and every
        # matching across it is ambiguous
        with pytest.warns((StepTooLargeWarning, AmbiguousMatchWarning)) as record:
            evaluate(MetricRequest(TiedJump(mu=0.0), "mu"))
        assert {w.category for w in record} == categories
        assert {w.filename for w in record} == {__file__}


class TestPerturbativeAgainstStencil:
    """The one-eig perturbative metric against the finite-difference oracle.

    Only states with g > 1e-2 are compared: below that the stencil's
    1 - F ~ g d**2 / 2 is close enough to rounding to cost it digits.
    """

    @staticmethod
    def assert_agree(perturbative, stencil):
        g = np.array([mv.g for mv in perturbative])
        oracle = np.array([mv.g for mv in stencil])
        compared = oracle > 1e-2
        assert compared.any()
        np.testing.assert_allclose(g[compared], oracle[compared], rtol=1e-5)

    @pytest.mark.parametrize("V1", [0.5, 2.0, 3.5])
    def test_gaa1_nonreciprocal_complex_potential(self, V1, fd_calls):
        req = MetricRequest(model=Gaa1Spec(L=89, V1=V1, V2=0.5, g=0.5, h=0.3), parameter="V1")
        perturbative = metric_diagonal(req)
        assert fd_calls == []
        self.assert_agree([perturbative], [metric._fd_diagonal(req)])

    @pytest.mark.parametrize("Delta", [1.0, 2.0])
    def test_gaa2_whole_spectrum(self, Delta, fd_calls):
        req = MetricRequest(model=Gaa2Spec(L=89, Delta=Delta, alpha=-0.5), parameter="Delta")
        perturbative = metric_spectrum(req)
        assert fd_calls == []
        self.assert_agree(perturbative, metric._fd_spectrum(req))

    @pytest.mark.parametrize("h_z", [0.35, 0.85, 1.6])
    def test_mixed_chain(self, h_z, fd_calls):
        req = MetricRequest(model=MixedSpec(N=6, h_x=3.0, h_z=h_z), parameter="h_z")
        perturbative = metric_diagonal(req)
        assert fd_calls == []
        self.assert_agree([perturbative], [metric._fd_diagonal(req)])

    @pytest.mark.parametrize("h_z", [0.35, 1.6])
    def test_mixed_chain_momentum_block(self, h_z, fd_calls):
        req = MetricRequest(model=MixedSector(N=6, m=0, h_x=3.0, h_z=h_z), parameter="h_z")
        perturbative = metric_diagonal(req)
        assert fd_calls == []
        self.assert_agree([perturbative], [metric._fd_diagonal(req)])

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
    def test_two_level_closed_form_both_states(self, mu, fd_calls):
        values = metric_spectrum(MetricRequest(model=TwoLevel(mu=mu), parameter="mu"))
        assert fd_calls == []
        for mv in values:
            assert mv.g == pytest.approx(two_level_metric(mu), rel=1e-5)
            assert mv.fidelity == pytest.approx(np.exp(-mv.g * 1e-4**2 / 2), rel=1e-15)


class TestFallback:
    def test_degenerate_mixed_axis(self, fd_calls):
        # at h_x = h_z = 0 the all-up and all-down ground states share E = -N
        spec = MixedSpec(N=4, h_x=0.0, h_z=0.0)
        mv = metric_diagonal(MetricRequest(model=spec, parameter="h_z"))
        assert fd_calls == ["h_z"]
        assert mv.g == 0.0 and mv.fidelity == 1.0

    def test_degenerate_momentum_block(self, fd_calls):
        # the same two states share the k = 0 block; the stencil shifts the block model
        spec = MixedSector(N=4, m=0, h_x=0.0, h_z=0.0)
        mv = metric_diagonal(MetricRequest(model=spec, parameter="h_z"))
        assert fd_calls == ["h_z"]
        assert mv.g == 0.0 and mv.fidelity == 1.0


ONE = {"numpy": 1, "scipy": 1}
TWO = {"numpy": 2, "scipy": 2}


class TestOneBlasThread:
    """Both evaluators run their BLAS and LAPACK work on one thread (the linalg rule)."""

    # the calls each path makes, after eig_right's own when the caller passes no system
    PERTURBATIVE = {True: ["matmul", "matmul"], False: ["matmul", "solve", "matmul"]}
    EIG = {True: ["eigh"], False: ["eig", "_rcond"]}

    @pytest.mark.parametrize("shared", [False, True], ids=["own-eig", "system"])
    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "general"])
    @pytest.mark.parametrize("evaluate", [metric_diagonal, metric_spectrum])
    def test_perturbative(self, inside, fd_calls, evaluate, hermitian, shared):
        # g = 0 is real symmetric
        req = MetricRequest(Gaa1Spec(L=34, V1=1.5, g=0.0 if hermitian else 0.5), "V1")
        system = eig_right(req.model.build()) if shared else None
        inside.clear()
        with blas_threads(2):
            evaluate(req, system=system)
            assert blas_thread_counts() == TWO
        assert fd_calls == []
        calls = ([] if shared else self.EIG[hermitian]) + self.PERTURBATIVE[hermitian]
        assert inside == [(name, ONE) for name in calls]

    @pytest.mark.parametrize("evaluate", [metric_diagonal, metric_spectrum])
    def test_fallback(self, inside, fd_calls, evaluate):
        # TestFallback's degenerate ground state: the stencil's eig_right calls and overlaps
        req = MetricRequest(MixedSpec(N=4, h_x=0.0, h_z=0.0), "h_z")
        with blas_threads(2):
            evaluate(req)
            assert blas_thread_counts() == TWO
        assert fd_calls == ["h_z"]
        assert "matmul" in [name for name, _ in inside]
        assert all(counts == ONE for _, counts in inside)

    @pytest.mark.parametrize("evaluate", [metric_diagonal, metric_spectrum])
    def test_caller_counts_back_after_a_raise(self, inside, monkeypatch, evaluate):
        def failing(model, parameter):
            inside.append(("derivative", blas_thread_counts()))
            raise RuntimeError("no derivative")

        monkeypatch.setattr(Gaa1Spec, "derivative", failing)
        with blas_threads(2):
            with pytest.raises(RuntimeError, match="no derivative"):
                evaluate(MetricRequest(Gaa1Spec(L=34, V1=1.5, g=0.5), "V1"))
            assert blas_thread_counts() == TWO
        assert inside == [("eig", ONE), ("_rcond", ONE), ("derivative", ONE)]

    @pytest.mark.parametrize(
        "req",
        [
            # the sizes where a two-thread caller changed the last digits of a direct call
            MetricRequest(Gaa1Spec(L=144, V1=1.5, V2=0.5, g=0.5), "V1"),
            MetricRequest(Gaa2Spec(L=377, Delta=1.5, alpha=-0.5), "Delta"),
        ],
        ids=["gaa1-144", "gaa2-377"],
    )
    def test_values_do_not_depend_on_caller_threads(self, req):
        def values():
            return [mv.g for mv in metric_spectrum(req)] + [metric_diagonal(req).g]

        with blas_threads(1):
            one = values()
        with blas_threads(2):
            two = values()
        assert one == two


# one template per dense model kind, every float field away from its domain's edges
DERIVATIVE_TEMPLATES = {
    "gaa1": Gaa1Spec(L=21, V1=1.3, V2=0.4, g=0.3, h=0.2, zeta=0.6),
    "gaa2": Gaa2Spec(L=21, t=0.9, Delta=1.2, alpha=0.3, g=0.3, zeta=0.6),
    "mixed": MixedSpec(N=4, J=0.8, h_x=0.7, h_z=0.4),
}

DENSE_FLOAT_FIELDS = [
    (kind, name)
    for kind, cls in sweep.MODEL_KINDS.items()
    if hasattr(cls, "build")
    for name, declared in field_types(cls).items()
    if declared is float
]


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("kind", sweep.MODEL_KINDS)
def test_model_rejects_non_finite_field(kind, value):
    # built directly, without validate_config: each float field is checked on construction
    cls = sweep.MODEL_KINDS[kind]
    required = {"L": 8} if "L" in field_types(cls) else {}
    for name, declared in field_types(cls).items():
        if declared is float:
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                cls(**required, **{name: value})


class TestDerivative:
    """Each dense model's exact dH against a Richardson-extrapolated central difference."""

    @pytest.mark.parametrize(
        "kind, name", DENSE_FLOAT_FIELDS, ids=[f"{kind}-{name}" for kind, name in DENSE_FLOAT_FIELDS]
    )
    def test_matches_central_difference(self, kind, name):
        spec = DERIVATIVE_TEMPLATES[kind]
        mu = getattr(spec, name)

        def at(x):
            return dataclasses.replace(spec, **{name: x}).build()

        def central(d):
            return (at(mu + d / 2) - at(mu - d / 2)) / d

        # the O(d**2) errors cancel; along beta a plain d = 1e-4 is 5e-6 off
        d = 1e-4
        richardson = (4.0 * central(d / 2) - central(d)) / 3.0
        exact = spec.derivative(name)
        assert np.linalg.norm(exact - richardson) <= 1e-8 * np.linalg.norm(exact)

    @pytest.mark.parametrize("kind", DERIVATIVE_TEMPLATES)
    @pytest.mark.parametrize("name", ["nope", "L"])
    def test_rejects_other_names(self, kind, name):
        with pytest.raises(ValueError, match="real-valued field"):
            DERIVATIVE_TEMPLATES[kind].derivative(name)
