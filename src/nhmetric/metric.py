"""Diagonal quantum metric of self-normalized right eigenstates.

The metric g of state ``n`` with respect to parameter ``mu`` is its
fidelity susceptibility.  :func:`metric_diagonal` returns it for the
ground state n = 0 (smallest Re E), the state the sweeps read;
:func:`metric_spectrum` returns it for every state.  It is computed from
one eigendecomposition H V = V diag(E) at ``mu`` and the model's exact
dH = dH/dmu by first-order biorthogonal perturbation theory (You, Li &
Gu, PRE 76, 022101 (2007); Brody, J. Phys. A 47, 035305 (2014)):

    A    = V^-1 dH V
    dR_n = sum_{m != n} V_m A_mn / (E_n - E_m)
    g_n  = ||dR_n||**2 - |<R_n|dR_n>|**2

where R_n is the unit-norm column n of V.  Hermitian H
(``EigenSystem.hermitian``, set by :func:`eig_right`) has a unitary V,
real orthogonal for a real symmetric H, and real E, so there
A = V^H dH V and g_n = sum_m |A_mn|**2 / (E_m - E_n)**2.  On this
path ``fidelity`` is exp(-g d**2 / 2) at d = :data:`STENCIL_STEP`: the
overlap the stencil below would measure, to second order.

Perturbation theory is not trusted where a requested state lies within
:data:`DEGENERACY_TOL` of another eigenvalue (a degeneracy, or the
neighbourhood of an exceptional point).  There the finite-difference
stencil runs instead,

    g = -2 ln|<psi_n(mu - d/2) | psi_n(mu + d/2)>| / d**2,

which is second order accurate in ``d``; ``fidelity`` is then the overlap
measured at the step :func:`_finite_difference` settled on.  The stencil
is also the test oracle of the perturbative path.  The cluster chain's
ground-state metric does not use it: it is a closed-form sum over modes
(:func:`nhmetric.cluster_ising.ground_state_metric`).

Both evaluators run on one BLAS thread on either path (the rule of
:mod:`nhmetric.linalg`), so a metric does not depend on the caller's
thread counts, and each warning they raise names the caller's line.

Models are frozen dataclasses exposing ``build() -> ndarray`` and
``derivative(parameter) -> ndarray``, the exact dH along any of their
real-valued fields; the stencil shifts that field with
:func:`dataclasses.replace`.  A sweep kind also exposes ``OBSERVABLES``,
which maps each observable name to a reader of its CSV columns, and
``observe(names, parameter)``, which yields those columns in order.  A
model with an H takes :func:`observe` and extends :data:`READERS`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import StepTooLargeWarning
from .linalg import EigenSystem, blas_threads, eig_right, match_states, warn_ground_tie

#: floor applied inside log10 so parameter-independent states (g = 0) stay finite
XI_FLOOR = 1e-300

#: number of times the finite-difference step is halved before giving up
MAX_STEP_HALVINGS = 8

#: a requested state closer than this to another eigenvalue takes the
#: finite-difference fallback; below it 1/(E_n - E_m) amplifies rounding
DEGENERACY_TOL = 1e-9

#: width d of the finite-difference fallback (before its halvings)
STENCIL_STEP = 1e-4


@dataclass(frozen=True)
class MetricValue:
    """Diagonal quantum metric of one eigenstate.

    ``g`` is the metric (fidelity susceptibility), ``xi`` its decadic log,
    and ``fidelity`` the overlap magnitude of the stencil: measured at the
    step used on the finite-difference path, exp(-g d**2 / 2) at
    d = :data:`STENCIL_STEP` for a value taken at mu alone (:meth:`at`).
    ``g`` can undershoot zero only at rounding level (~1e-12).
    """

    g: float
    fidelity: float

    @property
    def xi(self) -> float:
        return float(np.log10(max(self.g, XI_FLOOR)))

    @classmethod
    def at(cls, g: float) -> MetricValue:
        """Metric ``g`` taken at mu alone, with the overlap the stencil at STENCIL_STEP would measure."""
        g = float(g)
        return cls(g, float(np.exp(-g * STENCIL_STEP**2 / 2)))

    def columns(self) -> dict[str, float]:
        """The CSV columns of the metric observable."""
        return {"g": self.g, "xi": self.xi, "fidelity": self.fidelity}


def field_types(model) -> dict[str, type]:
    """Declared type of each ``int``, ``float``, ``str`` or ``str | None`` field of a dataclass.

    ``model`` is a class or an instance; fields of any other type are left out.
    Resolves the string annotations of ``from __future__ import annotations``.
    """
    scalar = {"int": int, "float": float, "str": str, "str | None": str | None}
    declared = {f.name: scalar.get(f.type, f.type) for f in dataclasses.fields(model)}
    return {name: t for name, t in declared.items() if t in scalar.values()}


def check_finite(model) -> None:
    """Raise ValueError if a ``float`` field of the dataclass ``model`` holds a non-finite value."""
    for name, declared in field_types(model).items():
        value = getattr(model, name)
        if declared is float and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def fits(value, declared: type) -> bool:
    """Whether ``value`` may fill a field of type ``declared``.

    A bool is never a number, and an int is also a float.
    """
    if isinstance(value, bool):
        return False
    if declared is float:
        return isinstance(value, numbers.Real)
    if declared is int:
        return isinstance(value, numbers.Integral)
    return isinstance(value, declared)


@dataclass(frozen=True)
class MetricRequest:
    """One metric evaluation: which model, along which parameter.

    ``parameter`` must name a ``float``-typed model field holding a real value.
    Which states are measured is the evaluator's choice: state 0 for
    :func:`metric_diagonal`, every state for :func:`metric_spectrum`.
    """

    model: Any
    parameter: str

    def __post_init__(self):
        declared = field_types(self.model).get(self.parameter)
        if declared is not float or not fits(getattr(self.model, self.parameter), float):
            raise ValueError(
                f"parameter {self.parameter!r} does not name a real-valued "
                f"field of {type(self.model).__name__}"
            )


def _finite_difference(req: MetricRequest, pair, step: float = STENCIL_STEP) -> list[MetricValue]:
    """Metric of each state that ``pair(lo, hi)`` follows across mu -+ step/2.

    ``step`` is the stencil's first width d; only an oracle that needs
    another width passes one.  ``lo`` and ``hi`` are the eigensystems at
    the two ends of the stencil; ``pair`` returns the overlap magnitude F
    of each state it follows, and each F becomes g = -2 ln F / step**2.
    Halving policy: while the smallest F is below 0.5 the quadratic
    expansion of ln F is not trustworthy, so the step is halved, up to
    :data:`MAX_STEP_HALVINGS` times.  If F is still below 0.5 at the last
    step, its values are returned with a StepTooLargeWarning.
    """
    for halvings in range(MAX_STEP_HALVINGS + 1):
        d = step / 2**halvings
        fids = pair(eig_right(_shifted(req, -d / 2)), eig_right(_shifted(req, d / 2)))
        fmin = float(np.min(fids))
        if fmin >= 0.5:
            break
    else:
        warnings.warn(
            f"minimum fidelity {fmin:.3f} still below 0.5 after {MAX_STEP_HALVINGS} step "
            f"halvings (final step {d:g}); finite difference unreliable",
            StepTooLargeWarning,
        )
    # overlaps exceed 1 only by roundoff (Cauchy-Schwarz); clamp so 1/step^2 cannot
    # manufacture a negative metric.  A vanishing overlap gives ln 0 = -inf, g = inf.
    with np.errstate(divide="ignore"):
        log_fids = np.log(np.minimum(fids, 1.0))
    return [MetricValue(float(-2.0 * log_f / d**2), float(f)) for log_f, f in zip(log_fids, fids)]


def _shifted(req: MetricRequest, delta: float) -> np.ndarray:
    mu = getattr(req.model, req.parameter)
    return dataclasses.replace(req.model, **{req.parameter: mu + delta}).build()


def _perturbative(
    req: MetricRequest, system: EigenSystem | None, cols: slice
) -> np.ndarray | None:
    """Metric of the states ``cols`` selects (by-Re E order) from one eigensystem.

    Returns None where perturbation theory is not trusted (see the module
    docstring); the caller then runs the finite-difference stencil.
    """
    if system is None:
        system = eig_right(req.model.build())
    states = np.arange(system.dim)[cols]
    V = system.vectors
    E = system.eigenvalues.real if system.hermitian else system.eigenvalues
    gap = E[:, None] - E[cols]  # E_m - E_n, one column per requested state
    gap[states, np.arange(len(states))] = np.inf
    if np.min(np.abs(gap)) < DEGENERACY_TOL:
        return None
    dh = req.model.derivative(req.parameter)
    if system.hermitian:
        A = V.conj().T @ (dh @ V[:, cols])
        return np.sum(np.abs(A / gap) ** 2, axis=0)
    A = np.linalg.solve(V, dh @ V[:, cols])
    dR = V @ (A / -gap)
    along = np.einsum("in,in->n", V[:, cols].conj(), dR)
    return np.linalg.norm(dR, axis=0) ** 2 - np.abs(along) ** 2


def _fd_diagonal(req: MetricRequest, step: float = STENCIL_STEP) -> MetricValue:
    """Finite-difference metric of state 0.

    State 0 of the lower-shifted system is paired with the best-overlap
    state of the upper-shifted system, so eigenvalue reorderings across the
    step cannot corrupt the result.
    """

    def pair(lo: EigenSystem, hi: EigenSystem) -> np.ndarray:
        return np.max(np.abs(lo.vectors[:, 0].conj() @ hi.vectors), keepdims=True)

    return _finite_difference(req, pair, step)[0]


def _fd_spectrum(req: MetricRequest, step: float = STENCIL_STEP) -> list[MetricValue]:
    """Finite-difference metric of every state, ordered at mu - step/2.

    States of the two shifted systems are paired globally with
    :func:`match_states`.
    """

    def pair(lo: EigenSystem, hi: EigenSystem) -> np.ndarray:
        matched = hi.vectors[:, match_states(lo, hi)]
        return np.abs(np.einsum("in,in->n", lo.vectors.conj(), matched))

    return _finite_difference(req, pair, step)


def _evaluator(evaluate):
    """``evaluate`` on one BLAS thread; each warning inside it is issued again at the caller."""

    @functools.wraps(evaluate)
    def evaluator(*args, **kwargs):
        caught = []
        try:
            with blas_threads(1), warnings.catch_warnings(record=True) as caught:
                return evaluate(*args, **kwargs)
        finally:
            for w in caught:
                warnings.warn(w.message, w.category, stacklevel=2)

    return evaluator


@_evaluator
def metric_diagonal(req: MetricRequest, system: EigenSystem | None = None) -> MetricValue:
    """Diagonal metric g_{mu,mu} of state 0, the state of smallest Re E.

    ``system``, if given, must be ``eig_right(req.model.build())``; passing
    it lets the caller share that diagonalization.  A tie in Re E between
    states 0 and 1 is the caller's to report
    (:func:`~nhmetric.linalg.warn_ground_tie`).  Falls back to
    :func:`_fd_diagonal` where perturbation theory is not trusted.  Runs
    on one BLAS thread, and its warnings name the caller's line.
    """
    g = _perturbative(req, system, slice(0, 1))
    return _fd_diagonal(req) if g is None else MetricValue.at(g[0])


@_evaluator
def metric_spectrum(
    req: MetricRequest, system: EigenSystem | None = None
) -> list[MetricValue]:
    """Diagonal metric of every eigenstate from one diagonalization.

    Entry ``n`` of the result belongs to the state with the ``n``-th
    smallest real eigenvalue at ``mu``.  ``system`` is as in
    :func:`metric_diagonal`.  Where perturbation theory is not trusted the
    result comes from :func:`_fd_spectrum`, ordered at ``mu - STENCIL_STEP/2``.
    Runs on one BLAS thread, and its warnings name the caller's line.
    """
    g = _perturbative(req, system, slice(None))
    return _fd_spectrum(req) if g is None else [MetricValue.at(gn) for gn in g]


#: the observables of every model with an H: name -> reader(point, parameter) -> columns
READERS = {
    "metric": lambda point, parameter: metric_diagonal(
        MetricRequest(point.model, parameter), system=point.system
    ).columns(),
    "spectrum": lambda point, parameter: {"spectrum": point.eigenvalues.copy()},
}


def observe(model, names, parameter: str):
    """The columns of each observable in ``names``, in order, at the point of ``model``.

    ``model.diagonalize()`` runs once, here, so a failed solve raises before
    any column is read.  Every observable but ``spectrum`` reads state 0, so
    a tie there warns once per point (:func:`~nhmetric.linalg.warn_ground_tie`).
    """
    point = model.diagonalize()
    if set(names) - {"spectrum"}:
        warn_ground_tie(point.eigenvalues)
    return (model.OBSERVABLES[name](point, parameter) for name in names)
