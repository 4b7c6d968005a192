"""Command-line front end for sweeps, scaling fits and peak extraction.

Subcommands mirror the four models (gaa1, gaa2, cluster, mixed); each
takes an optional JSON config file plus override flags named after the
config keys.  `fss gaa1|gaa2` takes the same --axis1, its search window,
and model flags and runs them on the sweep engine size by size; `peaks`
post-processes a previously exported file.

Exit codes: 0 success, 1 invalid input, 2 runtime failure (with partial
output preserved when possible).  Every input from outside the program
fails with exit 1 before any work starts: the config file, the flags and
an --output path that is a directory or lies in a missing one.  A sweep's
--output writes JSON if its path ends in .json, else CSV, the rule by
which `peaks` reads a file back (`sweep.path_format`); the fss and peaks
outputs are JSON and need a .json path.  Flag strings are converted
here, each to its field's declared type (`field_types`: the model flags
and the parts of --axis1 and --axis2); config-file values keep their
JSON types.  Both then meet one type check, in `sweep.validate_config`.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from typing import Any

import numpy as np

from . import sweep as sweep_mod
from .errors import ConfigInvalidError
from .linalg import FitResult
from .metric import field_types
from .sweep import (
    MODEL_KINDS,
    SweepConfig,
    check_prominence,
    config_from_dict,
    detect_peaks,
    export_records,
    finite_size_scaling,
    path_format,
    run_sweep,
    write_json,
)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigInvalid (exit 1)."""

    def error(self, message):
        raise ConfigInvalidError(message)


def _parse_axis(text: str) -> dict[str, Any]:
    """``parameter:start:stop:count``, each part converted to its AxisSpec field type."""
    types = field_types(sweep_mod.AxisSpec)
    parts = text.split(":")
    if len(parts) != len(types):
        raise argparse.ArgumentTypeError(f"{text!r} is not parameter:start:stop:count")
    try:
        return {name: typ(part) for (name, typ), part in zip(types.items(), parts)}
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc


def _add_model_flags(parser: argparse.ArgumentParser, kind: str) -> list[str]:
    types = field_types(MODEL_KINDS[kind])
    for name, typ in types.items():
        parser.add_argument(f"--{name}", type=typ, default=None, help=f"model field {name}")
    return list(types)


def _add_sweep_parser(sub, kind: str) -> list[str]:
    p = sub.add_parser(kind, help=f"parameter sweep of the {kind} model")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--axis1", type=_parse_axis, help="param:start:stop:count")
    p.add_argument("--axis2", type=_parse_axis, help="param:start:stop:count")
    p.add_argument("--observables", help="comma-separated observable names")
    p.add_argument(
        "--workers", type=int, default=None, help="worker processes, each point on one BLAS thread"
    )
    p.add_argument("--output", help="output file path: JSON if the path ends in .json, else CSV")
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
    _overlay(raw, "output", {"path": args.output})
    for key in ("axis1", "axis2", "workers"):
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    if args.observables is not None:
        raw["observables"] = [s.strip() for s in args.observables.split(",") if s.strip()]
    return config_from_dict(kind, raw)


def _check_output(path: str | None, json_only: bool = False) -> None:
    """ConfigInvalidError unless --output names a file in an existing directory (.json if asked)."""
    if path is None:
        return
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigInvalidError(f"output directory {parent!r} of {path!r} does not exist")
    if os.path.isdir(path):
        raise ConfigInvalidError(f"output path {path!r} is a directory")
    if json_only and path_format(path) != "json":
        raise ConfigInvalidError(f"output path {path!r} must end in .json")


def _run_sweep_command(kind: str, args, model_fields: list[str]) -> int:
    config = _build_config(kind, args, model_fields)
    _check_output(config.output_path)
    records = run_sweep(config)
    failed = sum(1 for r in records if r.error is not None)
    if config.output_path:
        try:
            export_records(records, path_format(config.output_path), config.output_path, config)
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


def _run_fss(kind: str, args, model_fields: list[str]) -> int:
    if args.L is not None:
        raise ConfigInvalidError("--L is not allowed: --sizes sets L")
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
    except ValueError as exc:
        raise ConfigInvalidError(str(exc)) from exc
    _check_output(args.output, json_only=True)
    raw = {"axis1": args.axis1, "observables": ["metric"]}
    _overlay(raw, "model", {**{name: getattr(args, name) for name in model_fields}, "L": sizes[0]})
    result = finite_size_scaling(config_from_dict(kind, raw), sizes, prominence=args.prominence)
    fit: FitResult = result.fit
    parameter = args.axis1["parameter"]
    print(
        f"kappa = {fit.slope:.4f}  (xi = {fit.slope:.4f} log10 L "
        f"{fit.intercept:+.4f}, rms residual {fit.rms_residual:.2e})"
    )
    print(f"critical point: {parameter} = {result.critical_value:.5f}")
    for L in sizes:
        peak = result.peaks[L]
        print(
            f"  L = {L:5d}: peak at {parameter} = {peak.value:.5f}, "
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
        write_json(args.output, payload)
    return 0


def _load_xy(path: str, x_col: str, y_col: str) -> tuple[np.ndarray, np.ndarray]:
    """Columns ``x_col`` and ``y_col`` of an export; ConfigInvalidError unless both hold numbers."""
    # failed points carry no values: JSON marks them with an error, CSV with empty cells
    try:
        if path_format(path) == "json":
            records = [r for r in sweep_mod.load_records(path) if r.error is None]
            pairs = [(r.params[x_col], np.real(r.values[y_col])) for r in records]
        else:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                pairs = [(r[x_col], r[y_col]) for r in csv.DictReader(fh) if r[x_col] and r[y_col]]
        return tuple(np.array(pairs, dtype=float).reshape(-1, 2).T)
    except KeyError as exc:
        raise ConfigInvalidError(f"{path} has no {exc}") from exc
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigInvalidError(f"cannot read {x_col!r}, {y_col!r} from {path}: {exc}") from exc


def _run_peaks(args) -> int:
    check_prominence(args.prominence)
    _check_output(args.output, json_only=True)
    x, y = _load_xy(args.file, args.x, args.y)
    order = np.argsort(x)
    try:
        points = detect_peaks(x[order], y[order], prominence_threshold=args.prominence)
    except ValueError as exc:
        raise ConfigInvalidError(f"{args.file} column {args.x!r}: {exc}") from exc
    if not points:
        print("no peaks found")
    for p in points:
        print(f"peak at {args.x} = {p.value:.6g}: height {p.height:.6g}, prominence {p.prominence:.3g}")
    if args.output:
        write_json(args.output, [dataclasses.asdict(p) for p in points])
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="nhmetric", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    model_fields = {}
    for kind in MODEL_KINDS:
        model_fields[kind] = _add_sweep_parser(sub, kind)

    fss = sub.add_parser("fss", help="finite-size scaling of the metric peak")
    fss_kinds = fss.add_subparsers(dest="kind", required=True)
    for kind in ("gaa1", "gaa2"):
        p = fss_kinds.add_parser(kind, help=f"finite-size scaling of the {kind} model")
        p.add_argument("--axis1", type=_parse_axis, required=True, help="param:start:stop:count")
        p.add_argument("--sizes", required=True, help="comma-separated chain lengths, which set L")
        p.add_argument("--prominence", type=float, default=0.2)
        p.add_argument("--output", help="JSON output path, ending in .json")
        _add_model_flags(p, kind)

    peaks = sub.add_parser("peaks", help="detect peaks in an exported file")
    peaks.add_argument("file")
    peaks.add_argument("--x", required=True, help="abscissa column")
    peaks.add_argument("--y", required=True, help="ordinate column")
    peaks.add_argument("--prominence", type=float, default=sweep_mod.DEFAULT_PROMINENCE)
    peaks.add_argument("--output", help="JSON output path, ending in .json")

    try:
        args = parser.parse_args(argv)
        if args.command in MODEL_KINDS:
            return _run_sweep_command(args.command, args, model_fields[args.command])
        if args.command == "fss":
            return _run_fss(args.kind, args, model_fields[args.kind])
        return _run_peaks(args)
    except (ConfigInvalidError, argparse.ArgumentTypeError) as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
