"""Configuration-driven parameter sweeps, peak detection, scaling fits, export.

A sweep walks a 1-D or 2-D grid of model parameters, evaluates the
requested observables at every point, and serializes the records to CSV
or JSON, as the output path's extension says (:func:`path_format`).  Grid
points are independent; failures are recorded per point and never abort
the run, and the output ordering (row-major over axis1, axis2) is
independent of the worker schedule, so identical configurations produce
byte-identical CSV files.

BLAS threads: every point runs on one BLAS thread, by the rule of the
:mod:`nhmetric.linalg` docstring; parallelism comes from ``workers`` alone.

Each model kind evaluates its own observables, by its ``observe``
(:mod:`nhmetric.metric`); a model with an H solves it once, by its own
``diagonalize()``, and every observable of the point reads that solve.

:func:`finite_size_scaling` runs on the same engine: one validated config
per size, whose points go through the loop and pool of :func:`run_sweep`.
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
    FitResult,
    blas_configs,
    blas_thread_counts,
    blas_threads,
    fit_linear,
)
from .metric import STENCIL_STEP, field_types, fits

#: default topographic prominence (in xi units) for full-range series
DEFAULT_PROMINENCE = 0.5

MODEL_KINDS = {
    "gaa1": quasiperiodic.Gaa1Spec,
    "gaa2": quasiperiodic.Gaa2Spec,
    "cluster": cluster_ising.ClusterSpec,
    "mixed": mixed_ising.MixedSpec,
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
    metric observable always differentiates along axis1, with the step
    :data:`~nhmetric.metric.STENCIL_STEP`; ``output_path`` names its format.
    """

    kind: str
    model: dict[str, Any]
    axis1: AxisSpec
    axis2: AxisSpec | None
    observables: tuple[str, ...]
    workers: int = 1
    output_path: str | None = None


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
    no float for an int), and every ``float`` model field must be finite.
    Then the ranges and names of the settings, a repeated observable, two
    axes over one parameter (the second would overwrite the first), and
    sweeps whose points could not be evaluated: an axis over an integer
    model field, and a metric (every model with an H) whose fallback
    stencil would leave the model's domain at either end.
    """
    _check_types(SweepConfig, vars(config), "config")
    if config.kind not in MODEL_KINDS:
        _fail(f"unknown model kind {config.kind!r}")
    _check_types(MODEL_KINDS[config.kind], config.model, "model")
    types = field_types(MODEL_KINDS[config.kind])
    for name, value in config.model.items():
        if types.get(name) is float and not math.isfinite(value):
            _fail(f"model field {name!r} must be finite, got {value}")
    for name, axis in zip(("axis1", "axis2"), _axes(config)):
        _check_types(AxisSpec, vars(axis), name)
    valid_obs = tuple(MODEL_KINDS[config.kind].OBSERVABLES)
    # membership in a tuple first: an unhashable entry would break a dict or the set below
    for obs in config.observables:
        if obs not in valid_obs:
            _fail(f"observable {obs!r} invalid for {config.kind} (valid: {valid_obs})")
    if not config.observables or len(set(config.observables)) < len(config.observables):
        _fail(f"observables must be nonempty and distinct, got {list(config.observables)}")
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
    if config.workers < 1:
        _fail("workers must be >= 1")
    start = {a.parameter: a.start for a in _axes(config)}
    points = [start]
    if "metric" in config.observables and hasattr(MODEL_KINDS[config.kind], "build"):
        # the fallback stencil rebuilds H half a step beyond either end of
        # axis1; a model without an H takes its metric at the point itself
        p, half = config.axis1.parameter, STENCIL_STEP / 2
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
    allowed = {"model", "axis1", "axis2", "observables", "workers", "output"}
    unknown = set(raw) - allowed
    if unknown:
        _fail(f"unknown top-level keys: {sorted(unknown)}")
    if "axis1" not in raw:
        _fail("axis1 is required")
    model = raw.get("model", {})
    if not isinstance(model, dict):
        _fail("model must be a mapping of field names to values")
    output = raw.get("output", {})
    if not isinstance(output, dict) or set(output) - {"path"}:
        _fail("output accepts the key 'path' only; the format follows its extension")
    obs = raw.get("observables", [])
    if not isinstance(obs, (list, tuple)):
        _fail("observables must be a list")
    settings = {"workers": raw["workers"]} if "workers" in raw else {}
    if "path" in output:
        settings["output_path"] = output["path"]
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


def _evaluate_point(config: SweepConfig, params: dict[str, float]) -> SweepRecord:
    """Every observable at one grid point, as the model's own ``observe`` evaluates them.

    The point runs on one BLAS thread (:mod:`nhmetric.linalg`).  The columns
    of each observable are recorded as it yields them, so a failing
    observable keeps the columns of those before it.
    """
    record = SweepRecord(params=dict(params))
    with blas_threads(1), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            model = _model_at(config, params)
            for columns in model.observe(config.observables, config.axis1.parameter):
                record.values.update(columns)
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


def _execution(config: SweepConfig, points: int) -> int:
    """Worker processes that :func:`run_sweep` uses on ``points``."""
    # fork starts every worker at the first submit: no more than the points and the usable CPUs
    if hasattr(os, "sched_getaffinity"):  # Linux only
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(config.workers, points, cpus))


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Evaluate every grid point; never aborts on per-point failures.

    Ordering is row-major over (axis1, axis2) regardless of the execution
    schedule.  ``config.workers`` is capped at the points and at the usable
    CPUs.  Each point runs on one BLAS thread (:mod:`nhmetric.linalg`).
    """
    validate_config(config)
    return _run_points(config, _grid_params(config))


def _run_points(config: SweepConfig, points: list[dict[str, float]]) -> list[SweepRecord]:
    """Evaluate points of a validated config in order, as :func:`run_sweep` describes."""
    workers = _execution(config, len(points))
    if workers == 1:
        return [_evaluate_point(config, p) for p in points]
    with ProcessPoolExecutor(max_workers=workers) as pool:
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
    would put the parabola through coincident abscissae.  scipy.signal is
    imported here, not at module level, so that ``import nhmetric`` and
    every sweep point skip its load.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if len(x) < 5:
        raise SeriesTooShortError(f"need >= 5 samples, got {len(x)}")
    if np.any(np.diff(x) <= 0):
        raise ValueError("x must be strictly increasing")

    # scipy.signal loads scipy.stats, .interpolate and .optimize: 0.65 of 1.1 s cold import on 2 vCPU
    from scipy.signal import find_peaks

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


def _is_fibonacci(n: int) -> bool:
    """Whether n >= 1 is a Fibonacci number: 5 n**2 + 4 or 5 n**2 - 4 is a square."""
    return any(math.isqrt(m) ** 2 == m for m in (5 * n * n + 4, 5 * n * n - 4))


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
    :class:`ConfigInvalidError`: 3 or more sizes, none repeated, the metric
    along one axis of at least 5 points, the prominence
    (:func:`check_prominence`), every size's config (:func:`validate_config`)
    and Fibonacci sizes for periodic quasiperiodic chains.  The prominence
    default is lower than the sweep-wide one because a narrow search window
    carries little topographic relief.

    The points run on the engine of :func:`run_sweep`, with its worker
    count.  A failed point raises RuntimeError; the warnings the engine
    counts are re-emitted once per size, each in its own category with its
    count.
    """
    if len(set(sizes)) < max(len(sizes), 3):
        _fail(f"need at least 3 sizes, none repeated, got {sizes}")
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
    bad = [L for L in sizes if not _is_fibonacci(L)]
    # only the quasiperiodic chains have a wrap bond zeta, periodic when nonzero
    if getattr(template, "zeta", 0.0) != 0.0 and bad:
        _fail(f"periodic quasiperiodic chains need Fibonacci sizes, got {bad}")

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


def write_json(path: str, payload) -> None:
    """Write ``payload`` to ``path`` as JSON indented by 2, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def path_format(path: str) -> str:
    """Export format a path names: ``"json"`` if it ends in ``.json``, else ``"csv"``."""
    return "json" if path.endswith(".json") else "csv"


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


def _warnings_cell(rec: SweepRecord) -> str:
    parts = [f"{code}:{count}" for code, count in sorted(rec.warnings.items())]
    if rec.error is not None:
        parts.append(f"Error:{rec.error.split(':', 1)[0]}")
    return ";".join(parts)


def _meta(config: SweepConfig | None) -> dict:
    """Build, versions and, given the config, how :func:`run_sweep` executed it.

    ``blas_threads`` holds each OpenBLAS pool's thread count per process
    during the run, 1 for every pool found, and ``blas_config`` its build
    string (null for a pool not found); ``workers`` is the worker count
    after the caps of :func:`_execution`.  Without a config,
    ``blas_threads`` holds the counts at the time of the call.
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
        threads = {name: None if n is None else 1 for name, n in threads.items()}
        meta["workers"] = _execution(config, len(_grid_params(config)))
        meta["config"] = dataclasses.asdict(config)
    meta["blas_threads"] = threads
    meta["blas_config"] = blas_configs()
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
    the meta header inline.  ``fmt`` must be the format ``path`` names
    (:func:`path_format`), which is how ``nhmetric peaks`` reads it back.
    A CSV whose sidecar cannot be written is removed before the
    :class:`ExportError`, so a failed export leaves no CSV behind.
    """
    if not records:
        raise ValueError("no records to export")
    if fmt != path_format(path):
        raise ValueError(f"format {fmt!r} contradicts {path!r}, which names {path_format(path)!r}")

    param_cols = list(records[0].params.keys())
    try:
        if fmt == "csv":
            # the value columns in the order the records first show them
            cells = [
                dict(cell for name, value in rec.values.items() for cell in _column_cells(name, value))
                for rec in records
            ]
            value_cols = list(dict.fromkeys(col for row in cells for col in row))
            lines = [",".join(param_cols + value_cols + ["warnings"])]
            for rec, texts in zip(records, cells):
                row = [_fmt(rec.params[p]) for p in param_cols]
                row += [texts.get(c, "") for c in value_cols]
                row.append(_warnings_cell(rec))
                lines.append(",".join(row))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            try:
                write_json(path + ".meta.json", _meta(config))
            except OSError:
                # a CSV without its sidecar would read as a finished export
                os.remove(path)
                raise
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
            write_json(path, payload)
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
