"""Configuration-driven parameter sweeps, peak detection, scaling fits, export.

A sweep walks a 1-D or 2-D grid of model parameters, evaluates the
requested observables at every point, and serializes the records to CSV
or JSON.  Grid points are independent; failures are recorded per point
and never abort the run, and the output ordering (row-major over axis1,
axis2) is independent of the worker schedule, so identical configurations
produce byte-identical CSV files.

BLAS threads: numpy and scipy each call their own OpenBLAS pool.  With
``workers`` > 1 the points run in parallel across processes with one BLAS
thread each, so the output does not depend on the worker count.  A serial
sweep runs with one BLAS thread while the dense H it diagonalizes is
smaller than :data:`BLAS_CROSSOVER_DIM`, and with OpenBLAS's own count
above it.  The caller's thread counts are restored on return.

:func:`finite_size_scaling` runs on the same engine: one validated config
per size, whose points go through the loop, pool and thread rule of
:func:`run_sweep`.
"""

from __future__ import annotations

import builtins
import collections
import dataclasses
import datetime
import itertools
import json
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy
from scipy.signal import find_peaks

from . import cluster_ising, mixed_ising, quasiperiodic
from .errors import (
    AmbiguousMatchWarning,
    ConfigInvalidError,
    DefectiveMatrixWarning,
    DegenerateGroundStateWarning,
    ExportError,
    ModeSingularWarning,
    PeakNotFoundError,
    SeriesTooShortError,
    StepTooLargeWarning,
)
from .linalg import (
    EigenSystem,
    FitResult,
    blas_thread_counts,
    blas_threads,
    eig_right,
    fit_linear,
    set_blas_threads,
    warn_ground_tie,
)
from .metric import MetricRequest, field_types, fits, metric_diagonal

#: environment variable capping the worker count (useful for CI determinism)
MAX_WORKERS_ENV = "NHMETRIC_MAX_WORKERS"

#: dense dimension of H from which a serial sweep leaves OpenBLAS its own
#: thread count; below it one BLAS thread per process is faster.  Median ms
#: of 4 repeats of eig_right plus metric_diagonal per point, one thread /
#: two threads, 2-vCPU shared host, numpy 2.4.6 and scipy 1.17.1:
#:     d    gaa1 real (h = 0)   gaa1 complex (h = 0.3)   mixed chain
#:   144        23 / 24              69 / 75
#:   377       204 / 289            492 / 579
#:   512                                                 774 / 896
#:   610       700 / 1087          1555 / 1506
#:   800      1107 / 1182          3532 / 3809
#:   900                           4293 / 3635
#:   987      1981 / 1906          4830 / 4315
#:  1024                                                3986 / 3324
#:  1597      6736 / 5691         17543 / 13360
#: Two threads also spike at small d (1155 ms once at d = 144, 2342 at 610),
#: when numpy's and scipy's pools contend for the two cores.
BLAS_CROSSOVER_DIM = 850

#: default topographic prominence (in xi units) for full-range series
DEFAULT_PROMINENCE = 0.5

MODEL_KINDS = {
    "gaa1": quasiperiodic.Gaa1Spec,
    "gaa2": quasiperiodic.Gaa2Spec,
    "cluster": cluster_ising.ClusterSpec,
    "mixed": mixed_ising.MixedSpec,
}

OBSERVABLES_BY_KIND = {
    "gaa1": ("metric", "eta", "pr", "spectrum"),
    "gaa2": ("metric", "eta", "pr", "spectrum"),
    "cluster": ("metric", "gaps", "order_params"),
    "mixed": ("metric", "magnetization", "spectrum"),
}


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: an inclusive linear grid."""

    parameter: str
    start: float
    stop: float
    count: int

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.count)


@dataclass(frozen=True)
class SweepConfig:
    """Everything needed to reproduce one sweep.

    ``model`` holds the template field values for the dataclass selected
    by ``kind``; the swept parameters override them point by point.  The
    metric observable always differentiates along axis1.
    """

    kind: str
    model: dict[str, Any]
    axis1: AxisSpec
    axis2: AxisSpec | None
    observables: tuple[str, ...]
    metric_step: float = 1e-4
    workers: int = 1
    output_path: str | None = None
    output_format: str = "csv"


@dataclass
class SweepRecord:
    """Result of one grid point: parameter values, observables, warnings."""

    params: dict[str, float]
    values: dict[str, Any] = field(default_factory=dict)
    warnings: dict[str, int] = field(default_factory=dict)
    error: str | None = None


@dataclass(frozen=True)
class CriticalPoint:
    """A detected peak: location, height, topographic prominence."""

    value: float
    height: float
    prominence: float


@dataclass(frozen=True)
class FssResult:
    """Finite-size scaling outcome.

    ``peaks`` holds the per-size dominant metric peak; ``critical_value``
    is the converged critical point (largest-size peak location) and
    ``xi_at_critical`` the metric log evaluated there for every size,
    which is what the scaling fit uses.
    """

    fit: FitResult
    peaks: dict[int, CriticalPoint]
    critical_value: float
    xi_at_critical: dict[int, float]


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------


def _fail(msg: str) -> None:
    raise ConfigInvalidError(msg)


def _axis_from_dict(raw: dict, name: str) -> AxisSpec:
    allowed = {"parameter", "start", "stop", "count"}
    if not isinstance(raw, dict):
        _fail(f"{name} must be a mapping with keys {sorted(allowed)}")
    unknown = set(raw) - allowed
    if unknown:
        _fail(f"unknown keys in {name}: {sorted(unknown)}")
    missing = allowed - set(raw)
    if missing:
        _fail(f"missing keys in {name}: {sorted(missing)}")
    return AxisSpec(**raw)


def _check_types(cls, values: dict[str, Any], where: str) -> None:
    """Fail on the first value in ``values`` that does not fit its scalar field of ``cls``."""
    for name, declared in field_types(cls).items():
        if name in values and not fits(values[name], declared):
            typ = getattr(declared, "__name__", declared)
            _fail(f"{where} field {name!r} must be {typ}, got {values[name]!r}")


def validate_config(config: SweepConfig) -> SweepConfig:
    """Check a configuration before any work starts.

    First every ``int``, ``float`` and ``str`` field of the config, of each
    axis and of the model template must hold a value of its declared type,
    unconverted (:func:`~nhmetric.metric.fits`: no bool, no numeric string,
    no float for an int).  Then the ranges and names of the settings, two
    axes over one parameter (the second would overwrite the first), and
    sweeps whose points could not be evaluated: an axis over an integer
    model field, a cluster metric along anything but lam or Gamma, and a
    finite-difference dH (every model but the cluster chain) that leaves
    the model's domain at either end of axis1.
    """
    _check_types(SweepConfig, vars(config), "config")
    if config.kind not in MODEL_KINDS:
        _fail(f"unknown model kind {config.kind!r}")
    _check_types(MODEL_KINDS[config.kind], config.model, "model")
    for name, axis in zip(("axis1", "axis2"), _axes(config)):
        _check_types(AxisSpec, vars(axis), name)
    valid_obs = OBSERVABLES_BY_KIND[config.kind]
    if not config.observables:
        _fail("observables must be nonempty")
    for obs in config.observables:
        if obs not in valid_obs:
            _fail(f"observable {obs!r} invalid for {config.kind} (valid: {valid_obs})")
    types = field_types(MODEL_KINDS[config.kind])
    for name, axis in zip(("axis1", "axis2"), _axes(config)):
        if axis.count < 2:
            _fail(f"{name}.count must be >= 2")
        if not (math.isfinite(axis.start) and math.isfinite(axis.stop)):
            _fail(f"{name} bounds must be finite, got {axis.start} and {axis.stop}")
        if not axis.stop > axis.start:
            _fail(f"{name}.stop must exceed {name}.start")
        if types.get(axis.parameter) is int:
            _fail(f"{name} sweeps integer field {axis.parameter!r}")
    if config.axis2 is not None and config.axis2.parameter == config.axis1.parameter:
        _fail(f"axis2 sweeps {config.axis1.parameter!r}, the parameter of axis1")
    if not (math.isfinite(config.metric_step) and config.metric_step > 0):
        _fail(f"metric_step must be positive and finite, got {config.metric_step}")
    if config.workers < 1:
        _fail("workers must be >= 1")
    if config.output_format not in ("csv", "json"):
        _fail(f"output.format must be 'csv' or 'json', got {config.output_format!r}")
    start = {a.parameter: a.start for a in _axes(config)}
    points = [start]
    if "metric" in config.observables and config.kind == "cluster":
        if config.axis1.parameter not in cluster_ising.METRIC_PARAMETERS:
            _fail(f"the cluster metric is defined along {cluster_ising.METRIC_PARAMETERS} only")
    elif "metric" in config.observables:
        # dH is a central difference reaching half a step beyond either end of
        # axis1; the closed-form cluster metric needs only the point itself
        p, half = config.axis1.parameter, config.metric_step / 2
        points += [{**start, p: config.axis1.start - half}, {**start, p: config.axis1.stop + half}]
    for params in points:
        try:
            _model_at(config, params)
        except ConfigInvalidError:
            raise
        except Exception as exc:
            _fail(f"{exc} (model at {params})")
    return config


def config_from_dict(kind: str, raw: dict) -> SweepConfig:
    """Build a SweepConfig from parsed JSON and validate it (:func:`validate_config`).

    Checks the JSON shape only (known and required keys, a mapping or list
    where one belongs); values pass to :func:`validate_config` unconverted.
    """
    allowed = {"model", "axis1", "axis2", "observables", "metric_step", "workers", "output"}
    unknown = set(raw) - allowed
    if unknown:
        _fail(f"unknown top-level keys: {sorted(unknown)}")
    if "axis1" not in raw:
        _fail("axis1 is required")
    model = raw.get("model", {})
    if not isinstance(model, dict):
        _fail("model must be a mapping of field names to values")
    output = raw.get("output", {})
    allowed_out = {"path", "format"}
    if not isinstance(output, dict) or set(output) - allowed_out:
        _fail(f"output accepts keys {sorted(allowed_out)}")
    obs = raw.get("observables", [])
    if not isinstance(obs, (list, tuple)):
        _fail("observables must be a list")
    settings = {key: raw[key] for key in ("metric_step", "workers") if key in raw}
    settings.update({f"output_{key}": value for key, value in output.items()})
    config = SweepConfig(
        kind=kind,
        model=dict(model),
        axis1=_axis_from_dict(raw["axis1"], "axis1"),
        axis2=None if raw.get("axis2") is None else _axis_from_dict(raw["axis2"], "axis2"),
        observables=tuple(obs),
        **settings,
    )
    return validate_config(config)


# ---------------------------------------------------------------------------
# Grid evaluation
# ---------------------------------------------------------------------------


def _axes(config: SweepConfig) -> list[AxisSpec]:
    return [config.axis1] + ([config.axis2] if config.axis2 else [])


def _model_at(config: SweepConfig, params: dict[str, float]):
    cls = MODEL_KINDS[config.kind]
    fields = dict(config.model)
    fields.update(params)
    try:
        return cls(**fields)
    except TypeError as exc:
        _fail(f"invalid model field: {exc}")


_WARNING_CODES = {
    DefectiveMatrixWarning: "DefectiveMatrix",
    AmbiguousMatchWarning: "AmbiguousMatch",
    StepTooLargeWarning: "StepTooLarge",
    ModeSingularWarning: "ModeSingular",
    DegenerateGroundStateWarning: "DegenerateGroundState",
}


def _evaluate_observable(
    obs: str, config: SweepConfig, model, system: EigenSystem | None
) -> dict:
    """One observable at one point from ``system``, ``eig_right(model.build())``.

    ``system`` is None for the cluster chain, whose observables are mode sums.
    """
    if obs == "metric":
        if config.kind == "cluster":
            mv = cluster_ising.ground_state_metric(
                model, config.axis1.parameter, step=config.metric_step
            )
        else:
            req = MetricRequest(model, config.axis1.parameter, step=config.metric_step)
            mv = metric_diagonal(req, system=system)
        return {"g": mv.g, "xi": mv.xi, "fidelity": mv.fidelity}
    if obs == "eta":
        return {"eta": quasiperiodic.fractal_dimension(system.vectors[:, 0])}
    if obs == "pr":
        return {"pr": quasiperiodic.participation_ratio(system.vectors[:, 0])}
    if obs == "spectrum":
        return {"spectrum": system.eigenvalues.copy()}
    if obs == "gaps":
        gp = cluster_ising.gaps(model)
        return {"delta_R": gp.delta_R, "delta_I": gp.delta_I}
    if obs == "order_params":
        op = cluster_ising.order_parameters(model)
        return {
            "my": op.my,
            "Ox": op.Ox,
            "dOx_dlam": op.dOx_dlam,
            "dmy_dlam": op.dmy_dlam,
        }
    if obs == "magnetization":
        # |M_z| is the same on both members of a conjugate pair tied in Re E
        return {"Mz": abs(mixed_ising.magnetization(system.vectors[:, 0], model.N))}
    raise ValueError(f"unknown observable {obs!r}")


def _evaluate_point(config: SweepConfig, params: dict[str, float]) -> SweepRecord:
    """Every observable at one grid point, from one diagonalization of H.

    The dense models are diagonalized once up front; every observable but
    ``spectrum`` reads state 0, so a tie there warns once per point.  The
    cluster chain builds no dense H.
    """
    record = SweepRecord(params=dict(params))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            model = _model_at(config, params)
            system = None
            if config.kind != "cluster":
                system = eig_right(model.build())
                if set(config.observables) - {"spectrum"}:
                    warn_ground_tie(system)
            for obs in config.observables:
                record.values.update(_evaluate_observable(obs, config, model, system))
        except Exception as exc:  # noqa: BLE001 - per-point isolation is the contract
            record.error = f"{type(exc).__name__}: {exc}"
    for w in caught:
        code = _WARNING_CODES.get(w.category, w.category.__name__)
        record.warnings[code] = record.warnings.get(code, 0) + 1
    return record


def _grid_params(config: SweepConfig) -> list[dict[str, float]]:
    axes = _axes(config)
    names = [axis.parameter for axis in axes]
    grids = [axis.values().tolist() for axis in axes]
    return [dict(zip(names, values)) for values in itertools.product(*grids)]


def _worker(args: tuple[SweepConfig, dict[str, float]]) -> SweepRecord:
    return _evaluate_point(*args)


def _blas_threads_for(dim: int, workers: int) -> int | None:
    """BLAS threads per process of a sweep; None leaves OpenBLAS its own count.

    Every pool worker takes one thread, the count a serial sweep below
    :data:`BLAS_CROSSOVER_DIM` takes, so the thread count (and with it the
    rounding) does not depend on the worker count.  A serial sweep over a
    dense H of dimension ``dim`` leaves OpenBLAS its own count from the
    crossover on.
    """
    return 1 if workers > 1 or dim < BLAS_CROSSOVER_DIM else None


def _dense_dim(config: SweepConfig) -> int:
    """Dimension of the dense H of every point; 0 for the cluster chain, which builds none.

    Integer fields cannot be swept, so the first point speaks for all.
    """
    if config.kind == "cluster":
        return 0
    model = _model_at(config, {a.parameter: a.start for a in _axes(config)})
    return 2**model.N if config.kind == "mixed" else model.L


def _execution(config: SweepConfig) -> tuple[int, int | None]:
    """(worker processes, BLAS threads per process) that :func:`run_sweep` uses."""
    workers = config.workers
    cap = os.environ.get(MAX_WORKERS_ENV)
    if cap is not None:
        try:
            workers = max(1, min(workers, int(cap)))
        except ValueError:
            _fail(f"{MAX_WORKERS_ENV} must be an integer, got {cap!r}")
    return workers, _blas_threads_for(_dense_dim(config), workers)


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Evaluate every grid point; never aborts on per-point failures.

    Ordering is row-major over (axis1, axis2) regardless of the execution
    schedule.  The worker count is capped by the NHMETRIC_MAX_WORKERS
    environment variable when set; a value that is not an integer raises
    :class:`ConfigInvalidError`.  With more than one worker the points run
    in parallel processes with one BLAS thread each; a serial sweep is
    pinned to one BLAS thread below
    :data:`BLAS_CROSSOVER_DIM`.  The caller's thread counts are unchanged
    on return.
    """
    validate_config(config)
    return _run_points(config, _grid_params(config))


def _run_points(config: SweepConfig, points: list[dict[str, float]]) -> list[SweepRecord]:
    """Evaluate points of a validated config in order, as :func:`run_sweep` describes."""
    workers, threads = _execution(config)
    if workers == 1:
        with blas_threads(threads):
            return [_evaluate_point(config, p) for p in points]
    with ProcessPoolExecutor(
        max_workers=workers, initializer=set_blas_threads, initargs=(threads,)
    ) as pool:
        return list(pool.map(_worker, [(config, p) for p in points], chunksize=1))


# ---------------------------------------------------------------------------
# Peak detection and finite-size scaling
# ---------------------------------------------------------------------------


def _quadratic_refine(x: np.ndarray, y: np.ndarray, i: int) -> tuple[float, float]:
    """Vertex of the parabola through the three points around index i."""
    xs = x[i - 1 : i + 2] - x[i]
    ys = y[i - 1 : i + 2]
    a, b, c = np.polyfit(xs, ys, 2)
    if a >= 0:  # numerically flat or concave-up: keep the grid point
        return float(x[i]), float(y[i])
    xv = -b / (2 * a)
    yv = c - b * b / (4 * a)
    return float(x[i] + xv), float(yv)


def detect_peaks(
    x: np.ndarray,
    y: np.ndarray,
    prominence_threshold: float = DEFAULT_PROMINENCE,
) -> list[CriticalPoint]:
    """Local maxima with topographic prominence above the threshold.

    Peak locations are refined by quadratic interpolation through the
    three samples around each maximum.  Needs at least five points with
    strictly increasing x; a repeated x (a 2-D grid read along one axis)
    would put the parabola through coincident abscissae.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if len(x) < 5:
        raise SeriesTooShortError(f"need >= 5 samples, got {len(x)}")
    if np.any(np.diff(x) <= 0):
        raise ValueError("x must be strictly increasing")

    idx, props = find_peaks(y, prominence=prominence_threshold)
    out = []
    for i, prom in zip(idx, props["prominences"]):
        xv, yv = _quadratic_refine(x, y, int(i))
        out.append(CriticalPoint(value=xv, height=yv, prominence=float(prom)))
    return out


def check_prominence(prominence: float) -> None:
    """Raise :class:`ConfigInvalidError` unless a peak prominence is finite and >= 0."""
    if not (math.isfinite(prominence) and prominence >= 0):
        _fail(f"prominence must be finite and >= 0, got {prominence}")


def finite_size_scaling(
    config: SweepConfig, sizes: list[int], prominence: float = 0.2
) -> FssResult:
    """Scaling exponent kappa of the metric peak, g ~ L**kappa.

    For each size L the config's model template is resized (its ``L`` set
    to L) and the ground-state metric is swept over axis1, the search
    window.  The dominant peak of the largest size fixes the critical
    point, the metric log is evaluated there for every size, and the fit
    against log10(L) yields kappa.  Evaluating all sizes at one converged
    critical point keeps the small-L values on the scaling line; the
    drifted small-L peak heights themselves overshoot it.

    Everything is checked before any work starts, and bad input raises
    :class:`ConfigInvalidError`: at least 3 sizes, the metric along one
    axis of at least 5 points, the prominence (:func:`check_prominence`),
    every size's config (:func:`validate_config`) and Fibonacci sizes for
    periodic quasiperiodic chains.  The prominence default is lower than
    the sweep-wide one because a narrow search window carries little
    topographic relief.

    The points run on the engine of :func:`run_sweep`, with its worker
    count and BLAS-thread rule.  A failed point raises RuntimeError; the
    warnings the engine counts are re-emitted once per size, each in its
    own category with its count.
    """
    if len(sizes) < 3:
        _fail("need at least 3 sizes")
    if config.axis2 is not None or config.axis1.count < 5 or "metric" not in config.observables:
        _fail("fss needs the metric along one axis of at least 5 points")
    check_prominence(prominence)
    sized: dict[int, SweepConfig] = {}
    for L in sizes:
        try:
            sized[L] = validate_config(
                dataclasses.replace(config, model={**config.model, "L": L})
            )
        except ConfigInvalidError as exc:
            _fail(f"size {L}: {exc}")
    parameter = config.axis1.parameter
    template = _model_at(sized[sizes[0]], {parameter: config.axis1.start})
    periodic = isinstance(template, (quasiperiodic.Gaa1Spec, quasiperiodic.Gaa2Spec))
    bad = [L for L in sizes if L not in quasiperiodic.FIBONACCI_SIZES]
    if periodic and template.zeta != 0.0 and bad:
        _fail(
            f"periodic quasiperiodic chains need Fibonacci sizes "
            f"{quasiperiodic.FIBONACCI_SIZES}, got {bad}"
        )

    counts = {L: collections.Counter() for L in sized}

    def xi_at(L: int, points: list[dict[str, float]]) -> list[float]:
        records = _run_points(sized[L], points)
        for rec in records:
            if rec.error is not None:
                raise RuntimeError(f"size {L} at {rec.params}: {rec.error}")
            counts[L].update(rec.warnings)
        return [rec.values["xi"] for rec in records]

    peaks: dict[int, CriticalPoint] = {}
    try:
        for L in sorted(sized):
            xi = xi_at(L, _grid_params(sized[L]))
            found = detect_peaks(config.axis1.values(), xi, prominence_threshold=prominence)
            if not found:
                raise PeakNotFoundError(
                    f"no peak with prominence >= {prominence} for L = {L} in "
                    f"window [{config.axis1.start}, {config.axis1.stop}]",
                    partial=peaks,
                )
            peaks[L] = max(found, key=lambda p: p.height)
        critical_value = peaks[max(sized)].value
        xi_at_critical = {L: xi_at(L, [{parameter: critical_value}])[0] for L in sized}
    finally:
        categories = {code: cls for cls, code in _WARNING_CODES.items()}
        for L, seen in counts.items():
            for code, n in sorted(seen.items()):
                category = categories.get(code) or getattr(builtins, code, UserWarning)
                warnings.warn(f"size {L}: {code} x{n}", category, stacklevel=2)
    xs = np.log10(np.array(sizes, dtype=float))
    ys = np.array([xi_at_critical[L] for L in sizes])
    return FssResult(
        fit=fit_linear(xs, ys),
        peaks=peaks,
        critical_value=critical_value,
        xi_at_critical=xi_at_critical,
    )


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _column_cells(name: str, value) -> list[tuple[str, str]]:
    """Expand one observable value into (column, text) cells."""
    if value is None:
        return []
    if isinstance(value, complex):
        return [(f"{name}_re", _fmt(value.real)), (f"{name}_im", _fmt(value.imag))]
    if isinstance(value, np.ndarray):
        return [
            (f"{name}_re", ";".join(_fmt(v) for v in value.real)),
            (f"{name}_im", ";".join(_fmt(v) for v in value.imag)),
        ]
    return [(name, _fmt(value))]


def _record_columns(records: list[SweepRecord]) -> list[str]:
    cols: list[str] = []
    for rec in records:
        for name, value in rec.values.items():
            for col, _ in _column_cells(name, value):
                if col not in cols:
                    cols.append(col)
    return cols


def _warnings_cell(rec: SweepRecord) -> str:
    parts = [f"{code}:{count}" for code, count in sorted(rec.warnings.items())]
    if rec.error is not None:
        parts.append(f"Error:{rec.error.split(':', 1)[0]}")
    return ";".join(parts)


def _meta(config: SweepConfig | None) -> dict:
    """Build, versions and, given the config, how :func:`run_sweep` executed it.

    ``blas_threads`` holds each OpenBLAS pool's thread count per process
    during the run (null for a pool not found); ``workers`` is the worker
    count after the NHMETRIC_MAX_WORKERS cap.
    """
    from . import __version__

    meta = {
        "build": f"nhmetric {__version__}",
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    threads = blas_thread_counts()
    if config is not None:
        workers, pinned = _execution(config)
        if pinned is not None:
            threads = {name: None if n is None else pinned for name, n in threads.items()}
        meta["workers"] = workers
        meta["config"] = dataclasses.asdict(config)
    meta["blas_threads"] = threads
    return meta


def _json_value(value):
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return {"re": value.real.tolist(), "im": value.imag.tolist()}
        return [float(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def export_records(
    records: list[SweepRecord],
    fmt: str,
    path: str,
    config: SweepConfig | None = None,
) -> None:
    """Write records to CSV (plus a .meta.json sidecar) or JSON.

    CSV columns: one per axis parameter, then the observable columns with
    complex values split into _re/_im, then a semicolon-joined warnings
    column; floats carry 17 significant digits so repeated runs are
    byte-identical.  JSON mirrors the same data with re/im pairs and adds
    the meta header inline.
    """
    if not records:
        raise ValueError("no records to export")
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")

    param_cols = list(records[0].params.keys())
    try:
        if fmt == "csv":
            value_cols = _record_columns(records)
            lines = [",".join(param_cols + value_cols + ["warnings"])]
            for rec in records:
                cells = {col: "" for col in value_cols}
                for name, value in rec.values.items():
                    for col, text in _column_cells(name, value):
                        cells[col] = text
                row = [_fmt(rec.params[p]) for p in param_cols]
                row += [cells[c] for c in value_cols]
                row.append(_warnings_cell(rec))
                lines.append(",".join(row))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            with open(path + ".meta.json", "w", encoding="utf-8") as fh:
                json.dump(_meta(config), fh, indent=2)
                fh.write("\n")
        else:
            payload = {
                "meta": _meta(config),
                "records": [
                    {
                        "params": rec.params,
                        "values": {k: _json_value(v) for k, v in rec.values.items()},
                        "warnings": rec.warnings,
                        "error": rec.error,
                    }
                    for rec in records
                ],
            }
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
    except OSError as exc:
        raise ExportError(f"cannot write {path}: {exc}") from exc


def load_records(path: str) -> list[SweepRecord]:
    """Round-trip loader for JSON exports (complex values reassembled)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ExportError(f"cannot read {path}: {exc}") from exc

    def revive(value):
        if isinstance(value, dict) and set(value) == {"re", "im"}:
            if isinstance(value["re"], list):
                return np.array(value["re"]) + 1j * np.array(value["im"])
            return complex(value["re"], value["im"])
        if isinstance(value, list):
            return np.array(value, dtype=float)
        return value

    records = []
    for raw in payload["records"]:
        records.append(
            SweepRecord(
                params={k: float(v) for k, v in raw["params"].items()},
                values={k: revive(v) for k, v in raw["values"].items()},
                warnings={k: int(v) for k, v in raw["warnings"].items()},
                error=raw.get("error"),
            )
        )
    return records
