"""Fidelity and diagonal quantum-metric evaluation by finite differences.

The diagonal metric of state ``n`` with respect to parameter ``mu`` is
obtained from the overlap of the self-normalized right eigenstates at
``mu - d/2`` and ``mu + d/2``:

    g = -2 ln|<psi_n(mu - d/2) | psi_n(mu + d/2)>| / d**2

which equals the fidelity susceptibility.  The symmetric stencil is second
order accurate in ``d``.  Every metric of the package, the cluster chain's
ground-state metric included, runs through :func:`_finite_difference`,
whose docstring states the step-halving policy.

Models are frozen dataclasses exposing ``build() -> ndarray``; the swept
parameter is shifted with :func:`dataclasses.replace`, so any real-valued
field of any model works.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import NotNormalizedError, StepTooLargeWarning
from .linalg import eig_right, match_states

ALL_STATES = "all"

#: floor applied inside log10 so parameter-independent states (g = 0) stay finite
XI_FLOOR = 1e-300

#: number of times the finite-difference step is halved before giving up
MAX_STEP_HALVINGS = 8


@dataclass(frozen=True)
class MetricValue:
    """Diagonal quantum metric of one eigenstate.

    ``g`` is the metric (fidelity susceptibility), ``xi`` its decadic log,
    and ``fidelity`` the overlap magnitude actually measured at the step
    used.  ``g`` can undershoot zero only at rounding level (~1e-12).
    """

    g: float
    xi: float
    fidelity: float


@dataclass(frozen=True)
class MetricRequest:
    """One metric evaluation: which model, which parameter, which state.

    ``state_index`` counts from 0 in the by-real-part eigenvalue ordering
    (0 = ground state) or is :data:`ALL_STATES` for a whole-spectrum
    request.  ``step`` is the total finite-difference separation d(mu).
    ``parameter`` must name a real-valued, not ``int``-typed, model field.
    """

    model: Any
    parameter: str
    state_index: int | str = 0
    step: float = 1e-4

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("step must be positive")
        value = getattr(self.model, self.parameter, None)
        declared = {f.name: f.type for f in dataclasses.fields(self.model)}
        integer = declared.get(self.parameter) in ("int", int)
        if integer or isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"parameter {self.parameter!r} does not name a real-valued "
                f"field of {type(self.model).__name__}"
            )


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Overlap magnitude |<a|b>| of two normalized states.

    Invariant under independent global phase rotations of either argument.
    Raises :class:`NotNormalizedError` if either norm deviates from 1 by
    more than 1e-10.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    for name, v in (("a", a), ("b", b)):
        nrm = np.linalg.norm(v)
        if abs(nrm - 1.0) > 1e-10:
            raise NotNormalizedError(f"state {name} has norm {nrm!r}, expected 1")
    return float(abs(np.vdot(a, b)))


def _finite_difference(model, parameter: str, step: float, overlaps) -> list[MetricValue]:
    """Metric of each state that ``overlaps(lo, hi)`` reports at mu -+ step/2.

    ``overlaps`` returns per-state fidelities F and their logs; each log
    becomes g = -2 ln F / step**2.  Halving policy: while the smallest F is
    below 0.5 the quadratic expansion of ln F is not trustworthy, so the step
    is halved, up to :data:`MAX_STEP_HALVINGS` times.  If F is still below
    0.5 at the last step, its values are returned with a StepTooLargeWarning.
    """
    mu = getattr(model, parameter)
    for halvings in range(MAX_STEP_HALVINGS + 1):
        d = step / 2**halvings
        lo = dataclasses.replace(model, **{parameter: mu - d / 2})
        hi = dataclasses.replace(model, **{parameter: mu + d / 2})
        fids, log_fids = overlaps(lo, hi)
        fmin = float(np.min(fids))
        if fmin >= 0.5:
            break
    else:
        warnings.warn(
            f"minimum fidelity {fmin:.3f} still below 0.5 after {MAX_STEP_HALVINGS} step "
            f"halvings (final step {d:g}); finite difference unreliable",
            StepTooLargeWarning,
            stacklevel=3,
        )
    gs = [float(-2.0 * log_f / d**2) for log_f in log_fids]
    return [MetricValue(g, float(np.log10(max(g, XI_FLOOR))), float(f)) for g, f in zip(gs, fids)]


def _with_log(fids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # overlaps exceed 1 only by roundoff (Cauchy-Schwarz); clamp so 1/step^2 cannot
    # manufacture a negative metric.  A vanishing overlap gives ln 0 = -inf, g = inf.
    with np.errstate(divide="ignore"):
        return fids, np.log(np.minimum(fids, 1.0))


def metric_diagonal(req: MetricRequest) -> MetricValue:
    """Diagonal metric g_{mu,mu} of a single eigenstate.

    The requested state of the lower-shifted system is paired with the
    best-overlap state of the upper-shifted system, so eigenvalue
    reorderings across the step cannot corrupt the result.
    """
    if req.state_index == ALL_STATES:
        raise ValueError("use metric_spectrum for whole-spectrum requests")
    n = int(req.state_index)

    def overlaps(lo, hi):
        lo, hi = eig_right(lo.build()), eig_right(hi.build())
        if not 0 <= n < lo.dim:
            raise IndexError(f"state_index {n} out of range for dim {lo.dim}")
        row = np.abs(lo.vectors[:, n].conj() @ hi.vectors)
        return _with_log(np.max(row, keepdims=True))

    return _finite_difference(req.model, req.parameter, req.step, overlaps)[0]


def metric_spectrum(req: MetricRequest) -> list[MetricValue]:
    """Diagonal metric of every eigenstate from one pair of diagonalizations.

    States of the two shifted systems are paired globally with
    :func:`match_states`; entry ``n`` of the result belongs to the state
    with the ``n``-th smallest real eigenvalue at ``mu - step/2``.
    """

    def overlaps(lo, hi):
        lo, hi = eig_right(lo.build()), eig_right(hi.build())
        matched = hi.vectors[:, match_states(lo, hi)]
        return _with_log(np.abs(np.einsum("in,in->n", lo.vectors.conj(), matched)))

    return _finite_difference(req.model, req.parameter, req.step, overlaps)
