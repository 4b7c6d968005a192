"""Configuration-driven parameter sweeps, peak detection, scaling fits, export.

A sweep walks a 1-D or 2-D grid of model parameters, evaluates the
requested observables at every point, and serializes the records to CSV
or JSON.  Grid points are independent; failures are recorded per point
and never abort the run, and the output ordering (row-major over axis1,
axis2) is independent of the worker schedule, so identical configurations
produce byte-identical CSV files.
"""

from __future__ import annotations

import dataclasses
import datetime
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from scipy.signal import find_peaks

from . import cluster_ising, mixed_ising, quasiperiodic
from .errors import (
    ConfigInvalidError,
    ExportError,
    PeakNotFoundError,
    SeriesTooShortError,
)
from .linalg import FitResult, eig_right, fit_linear
from .metric import MetricRequest, metric_diagonal

#: environment variable capping the worker count (useful for CI determinism)
MAX_WORKERS_ENV = "NHMETRIC_MAX_WORKERS"

PEAK_METHOD_METRIC = "metricPeak"
PEAK_METHOD_DERIVATIVE = "derivativeSingularity"
PEAK_METHOD_ORDER = "orderOnset"

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
    method: str = PEAK_METHOD_METRIC


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

    @property
    def kappa(self) -> float:
        return self.fit.slope


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
    try:
        return AxisSpec(
            parameter=str(raw["parameter"]),
            start=float(raw["start"]),
            stop=float(raw["stop"]),
            count=int(raw["count"]),
        )
    except (TypeError, ValueError) as exc:
        _fail(f"{name}: {exc}")


def validate_config(config: SweepConfig) -> SweepConfig:
    """Check a configuration before any work starts.

    Beyond the types and ranges of the settings, rejects sweeps whose
    points could not be evaluated: an axis over an integer model field, a
    cluster metric along anything but lam or Gamma, and a metric stencil
    that leaves the model's domain at either end of axis1.
    """
    if config.kind not in MODEL_KINDS:
        _fail(f"unknown model kind {config.kind!r}")
    valid_obs = OBSERVABLES_BY_KIND[config.kind]
    if not config.observables:
        _fail("observables must be nonempty")
    for obs in config.observables:
        if obs not in valid_obs:
            _fail(f"observable {obs!r} invalid for {config.kind} (valid: {valid_obs})")
    fields = dataclasses.fields(MODEL_KINDS[config.kind])
    integer = {f.name for f in fields if f.type in ("int", int)}
    for name, axis in (("axis1", config.axis1), ("axis2", config.axis2)):
        if axis is None:
            continue
        if axis.count < 2:
            _fail(f"{name}.count must be >= 2")
        if not axis.stop > axis.start:
            _fail(f"{name}.stop must exceed {name}.start")
        if axis.parameter in integer:
            _fail(f"{name} sweeps integer field {axis.parameter!r}")
    if config.metric_step <= 0:
        _fail("metric_step must be positive")
    if config.workers < 1:
        _fail("workers must be >= 1")
    if config.output_format not in ("csv", "json"):
        _fail(f"output.format must be 'csv' or 'json', got {config.output_format!r}")
    start = {a.parameter: a.start for a in _axes(config)}
    points = [start]
    if "metric" in config.observables:
        metric_parameters = cluster_ising.METRIC_PARAMETERS
        if config.kind == "cluster" and config.axis1.parameter not in metric_parameters:
            _fail(f"the cluster metric is defined along {metric_parameters} only")
        # the stencil reaches half a step beyond either end of axis1
        p, half = config.axis1.parameter, config.metric_step / 2
        points += [{**start, p: config.axis1.start - half}, {**start, p: config.axis1.stop + half}]
    for params in points:
        try:
            _model_at(config, params)
        except ConfigInvalidError:
            raise
        except Exception as exc:
            _fail(f"model invalid at {params}: {exc}")
    return config


def config_from_dict(kind: str, raw: dict) -> SweepConfig:
    """Build and validate a SweepConfig from parsed JSON; unknown keys fail."""
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
    try:
        metric_step = float(raw.get("metric_step", 1e-4))
        workers = int(raw.get("workers", 1))
    except (TypeError, ValueError) as exc:
        _fail(f"metric_step and workers must be numbers: {exc}")
    config = SweepConfig(
        kind=kind,
        model=dict(model),
        axis1=_axis_from_dict(raw["axis1"], "axis1"),
        axis2=_axis_from_dict(raw["axis2"], "axis2") if raw.get("axis2") else None,
        observables=tuple(str(o) for o in obs),
        metric_step=metric_step,
        workers=workers,
        output_path=output.get("path"),
        output_format=str(output.get("format", "csv")).lower(),
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
    "DefectiveMatrixWarning": "DefectiveMatrix",
    "AmbiguousMatchWarning": "AmbiguousMatch",
    "StepTooLargeWarning": "StepTooLarge",
    "ModeSingularWarning": "ModeSingular",
    "DegenerateGroundStateWarning": "DegenerateGroundState",
}


class _GroundStateCache:
    """Shares one diagonalization among observables at a grid point."""

    def __init__(self, model):
        self.model = model
        self._system = None

    @property
    def system(self):
        if self._system is None:
            self._system = eig_right(self.model.build())
        return self._system


def _evaluate_observable(obs: str, config: SweepConfig, model, cache: _GroundStateCache) -> dict:
    if obs == "metric":
        if config.kind == "cluster":
            mv = cluster_ising.ground_state_metric(
                model, config.axis1.parameter, step=config.metric_step
            )
        else:
            mv = metric_diagonal(
                MetricRequest(
                    model=model,
                    parameter=config.axis1.parameter,
                    state_index=0,
                    step=config.metric_step,
                )
            )
        return {"g": mv.g, "xi": mv.xi, "fidelity": mv.fidelity}
    if obs == "eta":
        psi = cache.system.vectors[:, 0]
        return {"eta": quasiperiodic.fractal_dimension(psi, model.L)}
    if obs == "pr":
        psi = cache.system.vectors[:, 0]
        return {"pr": quasiperiodic.participation_ratio(psi, model.L)}
    if obs == "spectrum":
        return {"spectrum": cache.system.eigenvalues.copy()}
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
        psi = cache.system.vectors[:, 0]
        return {"Mz": mixed_ising.magnetization(psi, model.N)}
    raise ValueError(f"unknown observable {obs!r}")


def _evaluate_point(config: SweepConfig, params: dict[str, float]) -> SweepRecord:
    record = SweepRecord(params=dict(params))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            model = _model_at(config, params)
            cache = _GroundStateCache(model)
            for obs in config.observables:
                record.values.update(_evaluate_observable(obs, config, model, cache))
        except Exception as exc:  # noqa: BLE001 - per-point isolation is the contract
            record.error = f"{type(exc).__name__}: {exc}"
    for w in caught:
        code = _WARNING_CODES.get(w.category.__name__, w.category.__name__)
        record.warnings[code] = record.warnings.get(code, 0) + 1
    return record


def _grid_params(config: SweepConfig) -> list[dict[str, float]]:
    axes = _axes(config)
    grids = [axis.values() for axis in axes]
    points: list[dict[str, float]] = []
    if len(axes) == 1:
        for v in grids[0]:
            points.append({axes[0].parameter: float(v)})
    else:
        for v1 in grids[0]:
            for v2 in grids[1]:
                points.append(
                    {axes[0].parameter: float(v1), axes[1].parameter: float(v2)}
                )
    return points


def _worker(args: tuple[SweepConfig, dict[str, float]]) -> SweepRecord:
    return _evaluate_point(*args)


def run_sweep(config: SweepConfig) -> list[SweepRecord]:
    """Evaluate every grid point; never aborts on per-point failures.

    Ordering is row-major over (axis1, axis2) regardless of the execution
    schedule.  The worker count is capped by the NHMETRIC_MAX_WORKERS
    environment variable when set; a value that is not an integer raises
    :class:`ConfigInvalidError`.
    """
    validate_config(config)
    points = _grid_params(config)

    workers = config.workers
    cap = os.environ.get(MAX_WORKERS_ENV)
    if cap is not None:
        try:
            workers = max(1, min(workers, int(cap)))
        except ValueError:
            _fail(f"{MAX_WORKERS_ENV} must be an integer, got {cap!r}")

    if workers == 1 or len(points) <= 1:
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
    method: str = PEAK_METHOD_METRIC,
) -> list[CriticalPoint]:
    """Local maxima with topographic prominence above the threshold.

    Peak locations are refined by quadratic interpolation through the
    three samples around each maximum.  Needs at least five points sorted
    by x.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if len(x) < 5:
        raise SeriesTooShortError(f"need >= 5 samples, got {len(x)}")
    if np.any(np.diff(x) < 0):
        raise ValueError("series must be sorted by x")

    idx, props = find_peaks(y, prominence=prominence_threshold)
    out = []
    for i, prom in zip(idx, props["prominences"]):
        xv, yv = _quadratic_refine(x, y, int(i))
        out.append(
            CriticalPoint(value=xv, height=yv, prominence=float(prom), method=method)
        )
    return out


def finite_size_scaling(
    template,
    sizes: list[int],
    parameter: str,
    window: tuple[float, float, int],
    windows: dict[int, tuple[float, float, int]] | None = None,
    metric_step: float = 1e-4,
    prominence: float = 0.2,
    xi_of: Callable | None = None,
) -> FssResult:
    """Scaling exponent kappa of the metric peak, g ~ L**kappa.

    For each size L the template model is resized and the ground-state
    metric is swept over the search window (start, stop, count) in
    ``parameter``; ``windows`` optionally narrows the window per size
    (small chains have strongly drifted peaks, large chains are expensive
    to sweep).  The dominant peak of the largest size fixes the critical
    point, the metric log is evaluated there for every size, and the fit
    against log10(L) yields kappa.  Evaluating all sizes at one converged
    critical point keeps the small-L values on the scaling line; the
    drifted small-L peak heights themselves overshoot it.

    Periodic quasiperiodic chains must use Fibonacci sizes.  The
    prominence default is lower than the sweep-wide one because a narrow
    search window carries little topographic relief.  ``xi_of`` overrides
    the per-point evaluation (model -> xi); the default runs
    :func:`metric_diagonal` on the ground state.
    """
    if len(sizes) < 3:
        raise ValueError("need at least 3 sizes")
    if isinstance(template, (quasiperiodic.Gaa1Spec, quasiperiodic.Gaa2Spec)):
        if template.zeta != 0.0:
            bad = [L for L in sizes if L not in quasiperiodic.FIBONACCI_SIZES]
            if bad:
                raise ValueError(
                    f"periodic quasiperiodic chains need Fibonacci sizes "
                    f"{quasiperiodic.FIBONACCI_SIZES}, got {bad}"
                )

    if xi_of is None:

        def xi_of(model) -> float:
            req = MetricRequest(
                model=model, parameter=parameter, state_index=0, step=metric_step
            )
            return metric_diagonal(req).xi

    def xi_for(L: int, value: float) -> float:
        model = dataclasses.replace(template, L=int(L), **{parameter: float(value)})
        return xi_of(model)

    peaks: dict[int, CriticalPoint] = {}
    for L in sorted(sizes):
        start, stop, count = (windows or {}).get(int(L), window)
        grid = np.linspace(start, stop, int(count))
        xi = np.array([xi_for(L, v) for v in grid])
        found = detect_peaks(grid, xi, prominence_threshold=prominence)
        if not found:
            raise PeakNotFoundError(
                f"no peak with prominence >= {prominence} for L = {L} in "
                f"window [{start}, {stop}]",
                partial=peaks,
            )
        peaks[int(L)] = max(found, key=lambda p: p.height)

    critical_value = peaks[max(sizes)].value
    xi_at_critical = {int(L): xi_for(L, critical_value) for L in sizes}
    xs = np.log10(np.array(sizes, dtype=float))
    ys = np.array([xi_at_critical[int(L)] for L in sizes])
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
    from . import __version__

    meta = {
        "build": f"nhmetric {__version__}",
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if config is not None:
        cfg = dataclasses.asdict(config)
        meta["config"] = cfg
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
