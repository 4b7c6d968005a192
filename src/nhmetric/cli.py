"""Command-line front end for sweeps, scaling fits and peak extraction.

Subcommands mirror the four models (gaa1, gaa2, cluster, mixed); each
takes an optional JSON config file plus override flags named after the
config keys.  `fss` runs a finite-size scaling study and `peaks`
post-processes a previously exported file.

Exit codes: 0 success, 1 invalid configuration, 2 runtime failure (with
partial output preserved when possible).  Every input from outside the
program is validated before any work starts and fails with exit 1: the
config file, the override flags, the fss flags (sizes, --set values,
--metric-step, --parameter) and the NHMETRIC_MAX_WORKERS environment
variable.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from typing import Any

import numpy as np

from . import sweep as sweep_mod
from .errors import ConfigInvalidError
from .linalg import FitResult
from .metric import MetricRequest
from .sweep import (
    MODEL_KINDS,
    SweepConfig,
    config_from_dict,
    detect_peaks,
    export_records,
    finite_size_scaling,
    run_sweep,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigInvalid (exit 1)."""

    def error(self, message):
        raise ConfigInvalidError(message)


def _parse_axis(text: str) -> dict[str, str]:
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigInvalidError(
            f"axis must look like 'param:start:stop:count', got {text!r}"
        )
    return dict(zip(("parameter", "start", "stop", "count"), parts))


def _add_model_flags(parser: argparse.ArgumentParser, kind: str) -> list[str]:
    names = []
    for f in dataclasses.fields(MODEL_KINDS[kind]):
        typ = float if f.type in ("float", float) else (int if f.type in ("int", int) else str)
        parser.add_argument(f"--{f.name}", type=typ, default=None, help=f"model field {f.name}")
        names.append(f.name)
    return names


def _add_sweep_parser(sub, kind: str) -> list[str]:
    p = sub.add_parser(kind, help=f"parameter sweep of the {kind} model")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--axis1", type=_parse_axis, help="param:start:stop:count")
    p.add_argument("--axis2", type=_parse_axis, help="param:start:stop:count")
    p.add_argument("--observables", help="comma-separated observable names")
    p.add_argument("--metric-step", dest="metric_step", type=float, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--output", help="output file path")
    p.add_argument("--format", dest="out_format", choices=("csv", "json"), default=None)
    return _add_model_flags(p, kind)


def _read_config(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigInvalidError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalidError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalidError(f"config {path} must contain a JSON object")
    return raw


def _overlay(raw: dict[str, Any], key: str, flags: dict[str, Any]) -> None:
    given = {k: v for k, v in flags.items() if v is not None}
    base = raw.get(key, {})
    # a section that is not a mapping is left for config_from_dict to reject
    if given and isinstance(base, dict):
        raw[key] = {**base, **given}


def _build_config(kind: str, args, model_fields: list[str]) -> SweepConfig:
    """Overlay the command-line flags onto the config file and validate once."""
    if args.config:
        raw = _read_config(args.config)
    elif args.axis1 is None:
        raise ConfigInvalidError("either --config or --axis1 is required")
    else:
        raw = {}
    _overlay(raw, "model", {name: getattr(args, name) for name in model_fields})
    _overlay(raw, "output", {"path": args.output, "format": args.out_format})
    for key in ("axis1", "axis2", "metric_step", "workers"):
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    if args.observables is not None:
        raw["observables"] = [s.strip() for s in args.observables.split(",") if s.strip()]
    return config_from_dict(kind, raw)


def _run_sweep_command(kind: str, args, model_fields: list[str]) -> int:
    config = _build_config(kind, args, model_fields)
    records = run_sweep(config)
    failed = sum(1 for r in records if r.error is not None)
    if config.output_path:
        try:
            export_records(records, config.output_format, config.output_path, config)
        except Exception as exc:
            print(f"export failed: {exc}", file=sys.stderr)
            try:
                export_records(records, "json", config.output_path + ".partial.json", config)
                print(
                    f"partial output preserved in {config.output_path}.partial.json",
                    file=sys.stderr,
                )
            except Exception:
                pass
            return 2
        print(f"{len(records)} records -> {config.output_path} ({failed} failed points)")
    else:
        for rec in records:
            print(rec)
    return 0


def _run_fss(args) -> int:
    kind = args.model
    if kind not in ("gaa1", "gaa2"):
        raise ConfigInvalidError("fss supports model kinds 'gaa1' and 'gaa2'")
    template_fields = {}
    try:
        for item in args.set or []:
            if "=" not in item:
                raise ConfigInvalidError(f"--set expects key=value, got {item!r}")
            key, value = item.split("=", 1)
            template_fields[key] = float(value)
        sizes = [int(s) for s in args.sizes.split(",")]
        window = args.window.split(":")
        if len(window) != 3:
            raise ConfigInvalidError("--window must look like start:stop:count")
        window = (float(window[0]), float(window[1]), int(window[2]))
        template = MODEL_KINDS[kind](L=sizes[0], **template_fields)
        MetricRequest(model=template, parameter=args.parameter, step=args.metric_step)
    except (TypeError, ValueError) as exc:
        raise ConfigInvalidError(str(exc)) from exc

    result = finite_size_scaling(
        template,
        sizes,
        args.parameter,
        window,
        metric_step=args.metric_step,
        prominence=args.prominence,
    )
    fit: FitResult = result.fit
    print(
        f"kappa = {fit.slope:.4f}  (xi = {fit.slope:.4f} log10 L "
        f"{fit.intercept:+.4f}, rms residual {fit.rms_residual:.2e})"
    )
    print(f"critical point: {args.parameter} = {result.critical_value:.5f}")
    for L in sizes:
        peak = result.peaks[L]
        print(
            f"  L = {L:5d}: peak at {args.parameter} = {peak.value:.5f}, "
            f"xi(critical) = {result.xi_at_critical[L]:.4f}"
        )
    if args.output:
        payload = {
            "kappa": fit.slope,
            "intercept": fit.intercept,
            "rms_residual": fit.rms_residual,
            "critical_value": result.critical_value,
            "xi_at_critical": {str(L): result.xi_at_critical[L] for L in sizes},
            "peaks": {
                str(L): dataclasses.asdict(result.peaks[L]) for L in sizes
            },
        }
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return 0


def _load_xy(path: str, x_col: str, y_col: str) -> tuple[np.ndarray, np.ndarray]:
    if path.endswith(".json"):
        records = sweep_mod.load_records(path)
        try:
            x = np.array([r.params[x_col] for r in records])
            y = np.array([float(np.real(r.values[y_col])) for r in records])
        except KeyError as exc:
            raise ConfigInvalidError(f"column {exc} not present in {path}") from exc
        return x, y
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows or x_col not in rows[0] or y_col not in rows[0]:
        raise ConfigInvalidError(f"columns {x_col!r}/{y_col!r} not present in {path}")
    x = np.array([float(r[x_col]) for r in rows])
    y = np.array([float(r[y_col]) for r in rows])
    return x, y


def _run_peaks(args) -> int:
    x, y = _load_xy(args.file, args.x, args.y)
    order = np.argsort(x)
    points = detect_peaks(x[order], y[order], prominence_threshold=args.prominence)
    if not points:
        print("no peaks found")
    for p in points:
        print(f"peak at {args.x} = {p.value:.6g}: height {p.height:.6g}, prominence {p.prominence:.3g}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump([dataclasses.asdict(p) for p in points], fh, indent=2)
            fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="nhmetric", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    model_fields = {}
    for kind in MODEL_KINDS:
        model_fields[kind] = _add_sweep_parser(sub, kind)

    fss = sub.add_parser("fss", help="finite-size scaling of the metric peak")
    fss.add_argument("--model", required=True, choices=("gaa1", "gaa2"))
    fss.add_argument("--sizes", required=True, help="comma-separated chain lengths")
    fss.add_argument("--parameter", required=True)
    fss.add_argument("--window", required=True, help="start:stop:count")
    fss.add_argument("--set", action="append", help="template field key=value")
    fss.add_argument("--metric-step", dest="metric_step", type=float, default=1e-4)
    fss.add_argument("--prominence", type=float, default=0.2)
    fss.add_argument("--output", help="JSON output path")

    peaks = sub.add_parser("peaks", help="detect peaks in an exported file")
    peaks.add_argument("file")
    peaks.add_argument("--x", required=True, help="abscissa column")
    peaks.add_argument("--y", required=True, help="ordinate column")
    peaks.add_argument("--prominence", type=float, default=sweep_mod.DEFAULT_PROMINENCE)
    peaks.add_argument("--output", help="JSON output path")

    try:
        args = parser.parse_args(argv)
        if args.command in MODEL_KINDS:
            return _run_sweep_command(args.command, args, model_fields[args.command])
        if args.command == "fss":
            return _run_fss(args)
        return _run_peaks(args)
    except ConfigInvalidError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
