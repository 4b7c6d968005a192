"""Diagonal quantum metric of self-normalized right eigenstates.

The metric g of state ``n`` with respect to parameter ``mu`` is its
fidelity susceptibility.  It is computed from one eigendecomposition
H V = V diag(E) at ``mu`` by first-order biorthogonal perturbation theory
(You, Li & Gu, PRE 76, 022101 (2007); Brody, J. Phys. A 47, 035305
(2014)):

    dH   = [H(mu + d/2) - H(mu - d/2)] / d
    A    = V^-1 dH V
    dR_n = sum_{m != n} V_m A_mn / (E_n - E_m)
    g_n  = ||dR_n||**2 - |<R_n|dR_n>|**2

where ``d`` is the request's ``step`` and R_n the unit-norm column n of V.
Hermitian H has a unitary V, so there A = V^H dH V and
g_n = sum_m |A_mn|**2 / |E_m - E_n|**2.  On this path ``fidelity`` is
exp(-g d**2 / 2), the overlap the stencil below would measure, to second
order.

Perturbation theory is not trusted where a requested state lies within
:data:`DEGENERACY_TOL` of another eigenvalue (a degeneracy, or the
neighbourhood of an exceptional point), or where dH at step d and at d/2
differ by more than :data:`SMOOTHNESS_TOL` relative (H is not smooth
across the stencil).  There the finite-difference stencil runs instead,

    g = -2 ln|<psi_n(mu - d/2) | psi_n(mu + d/2)>| / d**2,

which is second order accurate in ``d``; ``fidelity`` is then the overlap
measured at the step :func:`_finite_difference` settled on.  The stencil
is also the test oracle of the perturbative path, and the cluster chain's
ground-state metric runs through it.

Models are frozen dataclasses exposing ``build() -> ndarray``; the swept
parameter is shifted with :func:`dataclasses.replace`, so any real-valued
field of any model works.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import NotNormalizedError, StepTooLargeWarning
from .linalg import EigenSystem, _is_hermitian, eig_right, match_states

ALL_STATES = "all"

#: floor applied inside log10 so parameter-independent states (g = 0) stay finite
XI_FLOOR = 1e-300

#: number of times the finite-difference step is halved before giving up
MAX_STEP_HALVINGS = 8

#: a requested state closer than this to another eigenvalue takes the
#: finite-difference fallback; below it 1/(E_n - E_m) amplifies rounding
DEGENERACY_TOL = 1e-9

#: relative difference of dH at step and step/2 above which H is taken to be
#: not smooth across the stencil; the models' parameters give 1e-12 to 1e-8
#: at d = 1e-4, a jump inside the stencil gives order one
SMOOTHNESS_TOL = 1e-3


@dataclass(frozen=True)
class MetricValue:
    """Diagonal quantum metric of one eigenstate.

    ``g`` is the metric (fidelity susceptibility), ``xi`` its decadic log,
    and ``fidelity`` the overlap magnitude of the stencil: measured at the
    step used on the finite-difference path, exp(-g step**2 / 2) on the
    perturbative one.  ``g`` can undershoot zero only at rounding level
    (~1e-12).
    """

    g: float
    xi: float
    fidelity: float


@dataclass(frozen=True)
class MetricRequest:
    """One metric evaluation: which model, which parameter, which state.

    ``state_index`` counts from 0 in the by-real-part eigenvalue ordering
    (0 = ground state) or is :data:`ALL_STATES` for a whole-spectrum
    request.  ``step`` is the total stencil width d(mu), a positive finite
    number; dH and the finite-difference fallback both span mu -+ step/2.
    ``parameter`` must name a real-valued, not ``int``-typed, model field.
    """

    model: Any
    parameter: str
    state_index: int | str = 0
    step: float = 1e-4

    def __post_init__(self):
        if not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be positive and finite, got {self.step!r}")
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


def _shifted(req: MetricRequest, delta: float) -> np.ndarray:
    mu = getattr(req.model, req.parameter)
    return dataclasses.replace(req.model, **{req.parameter: mu + delta}).build()


def _derivative(req: MetricRequest) -> np.ndarray | None:
    """Central difference dH over mu -+ step/2, or None where H is not smooth.

    The same difference over mu -+ step/4 must agree to SMOOTHNESS_TOL; a
    jump or kink inside the stencil makes the two disagree at order one.
    """
    d = req.step
    dh = (_shifted(req, d / 2) - _shifted(req, -d / 2)) / d
    dh_half = (_shifted(req, d / 4) - _shifted(req, -d / 4)) / (d / 2)
    if np.linalg.norm(dh - dh_half) > SMOOTHNESS_TOL * np.linalg.norm(dh):
        return None
    return dh


def _perturbative(
    req: MetricRequest, system: EigenSystem | None, n: int | None
) -> np.ndarray | None:
    """Metric of state ``n`` (every state if None) from one eigensystem.

    Returns None where perturbation theory is not trusted (see the module
    docstring); the caller then runs the finite-difference stencil.
    """
    dh = _derivative(req)
    if dh is None:
        return None
    H = req.model.build()
    if system is None:
        system = eig_right(H)
    if n is not None and not 0 <= n < system.dim:
        raise IndexError(f"state_index {n} out of range for dim {system.dim}")
    cols = slice(None) if n is None else slice(n, n + 1)
    states = np.arange(system.dim)[cols]
    E, V = system.eigenvalues, system.vectors
    gap = E[:, None] - E[cols]  # E_m - E_n, one column per requested state
    gap[states, np.arange(len(states))] = np.inf
    if np.min(np.abs(gap)) < DEGENERACY_TOL:
        return None
    if _is_hermitian(H):
        # eigh's vectors of a real H are real, and real products cost a quarter
        if not np.iscomplexobj(H):
            V = V.real
        A = V.conj().T @ (dh @ V[:, cols])
        return np.sum(np.abs(A / gap) ** 2, axis=0)
    A = np.linalg.solve(V, dh @ V[:, cols])
    dR = V @ (A / -gap)
    along = np.einsum("in,in->n", V[:, cols].conj(), dR)
    return np.linalg.norm(dR, axis=0) ** 2 - np.abs(along) ** 2


def _perturbative_value(g: float, step: float) -> MetricValue:
    g = float(g)
    return MetricValue(g, float(np.log10(max(g, XI_FLOOR))), float(np.exp(-g * step**2 / 2)))


def _fd_diagonal(req: MetricRequest) -> MetricValue:
    """Finite-difference metric of state ``req.state_index``.

    The requested state of the lower-shifted system is paired with the
    best-overlap state of the upper-shifted system, so eigenvalue
    reorderings across the step cannot corrupt the result.
    """
    n = int(req.state_index)

    def overlaps(lo, hi):
        lo, hi = eig_right(lo.build()), eig_right(hi.build())
        if not 0 <= n < lo.dim:
            raise IndexError(f"state_index {n} out of range for dim {lo.dim}")
        row = np.abs(lo.vectors[:, n].conj() @ hi.vectors)
        return _with_log(np.max(row, keepdims=True))

    return _finite_difference(req.model, req.parameter, req.step, overlaps)[0]


def _fd_spectrum(req: MetricRequest) -> list[MetricValue]:
    """Finite-difference metric of every state, ordered at mu - step/2.

    States of the two shifted systems are paired globally with
    :func:`match_states`.
    """

    def overlaps(lo, hi):
        lo, hi = eig_right(lo.build()), eig_right(hi.build())
        matched = hi.vectors[:, match_states(lo, hi)]
        return _with_log(np.abs(np.einsum("in,in->n", lo.vectors.conj(), matched)))

    return _finite_difference(req.model, req.parameter, req.step, overlaps)


def metric_diagonal(req: MetricRequest, system: EigenSystem | None = None) -> MetricValue:
    """Diagonal metric g_{mu,mu} of a single eigenstate.

    ``system``, if given, must be ``eig_right(req.model.build())``; passing
    it lets the caller share that diagonalization.  Falls back to
    :func:`_fd_diagonal` where perturbation theory is not trusted.
    """
    if req.state_index == ALL_STATES:
        raise ValueError("use metric_spectrum for whole-spectrum requests")
    g = _perturbative(req, system, int(req.state_index))
    if g is None:
        return _fd_diagonal(req)
    return _perturbative_value(g[0], req.step)


def metric_spectrum(
    req: MetricRequest, system: EigenSystem | None = None
) -> list[MetricValue]:
    """Diagonal metric of every eigenstate from one diagonalization.

    Entry ``n`` of the result belongs to the state with the ``n``-th
    smallest real eigenvalue at ``mu``.  ``system`` is as in
    :func:`metric_diagonal`.  Where perturbation theory is not trusted the
    result comes from :func:`_fd_spectrum`, ordered at ``mu - step/2``.
    """
    g = _perturbative(req, system, None)
    if g is None:
        return _fd_spectrum(req)
    return [_perturbative_value(gn, req.step) for gn in g]
