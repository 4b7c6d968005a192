"""Spans around calls into the package's layers, and the numbers derived from them.

The package binds most cross-module names with ``from .linalg import ...``,
so wrapping ``nhmetric.linalg.eig_right`` alone would miss the callers in
``metric``, ``sweep``, ``mixed_ising`` and ``cluster_ising``.
:meth:`Tracer.install` therefore rebinds every module attribute that holds
the original function, and :meth:`Tracer.uninstall` restores each one.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from nhmetric import cluster_ising, linalg, metric, mixed_ising, quasiperiodic, spinops, sweep

#: marks a wrapper so a test can prove none is left behind
WRAPPED = "__perfbench_wrapped__"

WARNING_CODES = ("DefectiveMatrix", "AmbiguousMatch", "StepTooLarge", "ModeSingular", "DegenerateGroundState")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    point: int = -1
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _fidelity(args, kwargs, result) -> dict:
    if isinstance(result, list):
        return {"fidelity": min(mv.fidelity for mv in result)}
    return {"fidelity": result.fidelity}


def _dimension(args, kwargs, result) -> dict:
    return {"n": int(np.shape(args[0])[0])}


def _exported_bytes(args, kwargs, result) -> dict:
    path = args[2] if len(args) > 2 else kwargs["path"]
    sidecar = path + ".meta.json"
    return {"bytes": os.path.getsize(path) + (os.path.getsize(sidecar) if os.path.exists(sidecar) else 0)}


@dataclass(frozen=True)
class Target:
    """A function to trace: its defining module, its name, how to read it."""

    module: Any
    attr: str
    #: a call opens a new point, whose id its descendants carry
    is_point: bool = False
    #: (args, kwargs, result) -> attributes stored on the span
    observe: Callable | None = None

    @property
    def layer(self) -> str:
        return f"{self.module.__name__.removeprefix('nhmetric.')}.{self.attr}"


PACKAGE_TARGETS = (
    Target(linalg, "eig_right"),
    Target(linalg, "match_states"),
    Target(linalg, "pfaffian", observe=_dimension),
    Target(metric, "metric_diagonal", observe=_fidelity),
    Target(metric, "metric_spectrum", observe=_fidelity),
    Target(quasiperiodic, "build_gaa1"),
    Target(quasiperiodic, "build_gaa2"),
    Target(quasiperiodic, "fractal_dimension"),
    Target(quasiperiodic, "participation_ratio"),
    Target(cluster_ising, "correlator_elements"),
    Target(cluster_ising, "gaps"),
    Target(cluster_ising, "ground_state_metric", observe=_fidelity),
    Target(cluster_ising, "_wick_pfaffian"),
    Target(cluster_ising, "build_cluster_chain"),
    Target(cluster_ising, "ed_oracle"),
    Target(spinops, "site_operator"),
    Target(mixed_ising, "build_mixed"),
    Target(mixed_ising, "magnetization"),
    Target(sweep, "_evaluate_point", is_point=True),
    Target(sweep, "validate_config"),
    Target(sweep, "export_records", observe=_exported_bytes),
)


class Tracer:
    """Records nested spans of the traced calls made in this process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._point = -1
        self._bound: list[tuple[Any, str, Any]] = []

    def wrap(self, layer: str, fn: Callable, is_point: bool = False, observe: Callable | None = None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_point:
                self._point += 1
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(layer, time.perf_counter(), parent=parent, point=self._point)
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                span.attrs.update(observe(args, kwargs, result))
            return result

        setattr(wrapper, WRAPPED, True)
        return wrapper

    def install(self, targets) -> None:
        """Rebind every module attribute holding a target to its wrapper."""
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "nhmetric"]
        for target in targets:
            original = getattr(target.module, target.attr)
            wrapper = self.wrap(target.layer, original, target.is_point, target.observe)
            holders = modules + ([target.module] if target.module not in modules else [])
            for module in holders:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._bound.append((module, name, original))
                        setattr(module, name, wrapper)

    def uninstall(self) -> None:
        while self._bound:
            module, name, original = self._bound.pop()
            setattr(module, name, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0.0, span.start
        for k in sorted(kids, key=lambda k: spans[k].start):
            lo, hi = max(spans[k].start, reach), min(spans[k].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _quantile(values: list[float], q: float) -> float:
    return float(np.quantile(values, q)) if values else 0.0


def layer_metrics(spans: list[Span], records) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``records`` are the SweepRecords of the traced points; their count is
    the per-point denominator.  Layers a workload never calls read 0.
    """
    points = max(len(records), 1)
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def total_ms(*names: str, self_only: bool = False) -> float:
        src = own if self_only else [s.duration for s in spans]
        return 1e3 * sum(src[i] for name in names for i in by_name.get(name, []))

    def durations_ms(name: str) -> list[float]:
        return [1e3 * spans[i].duration for i in by_name.get(name, [])]

    eig_children = [0] * len(spans)
    for span in spans:
        if span.name == "linalg.eig_right" and span.parent >= 0:
            eig_children[span.parent] += 1
    metric_calls = by_name.get("metric.metric_diagonal", []) + by_name.get("metric.metric_spectrum", [])
    halvings = sum(eig_children[i] / 2 - 1 for i in metric_calls)
    fidelities = [s.attrs["fidelity"] for s in spans if "fidelity" in s.attrs]
    pf = [spans[i] for i in by_name.get("linalg.pfaffian", [])]
    pf_seconds = sum(s.duration for s in pf)
    oracles = calls("cluster_ising.ed_oracle")
    exports = [spans[i].attrs["bytes"] for i in by_name.get("sweep.export_records", [])]
    point_ms = durations_ms("sweep._evaluate_point")

    out = {
        "linalg.eig_right.calls_per_point": calls("linalg.eig_right") / points,
        "linalg.eig_right.ms_per_point": total_ms("linalg.eig_right") / points,
        "linalg.eig_right.p50_ms": _quantile(durations_ms("linalg.eig_right"), 0.5),
        "linalg.eig_right.p90_ms": _quantile(durations_ms("linalg.eig_right"), 0.9),
        "linalg.match_states.calls_per_point": calls("linalg.match_states") / points,
        "linalg.match_states.ms_per_point": total_ms("linalg.match_states") / points,
        "linalg.pfaffian.calls_per_point": len(pf) / points,
        "linalg.pfaffian.ms_per_point": 1e3 * pf_seconds / points,
        "linalg.pfaffian.gflops_computed": (
            sum(2 * s.attrs["n"] ** 3 / 3 for s in pf) / pf_seconds / 1e9 if pf_seconds else 0.0
        ),
        "metric.metric_diagonal.ms_per_point": total_ms("metric.metric_diagonal", self_only=True) / points,
        "metric.metric_spectrum.ms_per_point": total_ms("metric.metric_spectrum", self_only=True) / points,
        "metric.halvings_per_point": halvings / points,
        "metric.min_fidelity": min(fidelities) if fidelities else 1.0,
        "quasiperiodic.build.ms_per_point": total_ms("quasiperiodic.build_gaa1", "quasiperiodic.build_gaa2") / points,
        "quasiperiodic.diagnostics.ms_per_point": (
            total_ms("quasiperiodic.fractal_dimension", "quasiperiodic.participation_ratio") / points
        ),
        "cluster_ising.correlator_elements.ms_per_point": total_ms("cluster_ising.correlator_elements") / points,
        "cluster_ising.gaps.ms_per_point": total_ms("cluster_ising.gaps") / points,
        "cluster_ising.ground_state_metric.ms_per_point": total_ms("cluster_ising.ground_state_metric") / points,
        "cluster_ising.wick.calls_per_point": calls("cluster_ising._wick_pfaffian") / points,
        "cluster_ising.pfaffian_share": (
            len(pf) / calls("cluster_ising._wick_pfaffian") if calls("cluster_ising._wick_pfaffian") else 0.0
        ),
        "cluster_ising.build_cluster_chain.ms_per_call": (
            total_ms("cluster_ising.build_cluster_chain") / max(calls("cluster_ising.build_cluster_chain"), 1)
        ),
        "cluster_ising.ed_oracle.ms_per_call": total_ms("cluster_ising.ed_oracle") / max(oracles, 1),
        "spinops.site_operator.calls_per_oracle": calls("spinops.site_operator") / max(oracles, 1),
        "spinops.site_operator.ms_per_oracle": total_ms("spinops.site_operator") / max(oracles, 1),
        "mixed_ising.build_mixed.ms_per_point": total_ms("mixed_ising.build_mixed") / points,
        "mixed_ising.magnetization.ms_per_point": total_ms("mixed_ising.magnetization") / points,
        "sweep.point.p50_ms": _quantile(point_ms, 0.5),
        "sweep.point.p90_ms": _quantile(point_ms, 0.9),
        "sweep.point.samples": len(point_ms),
        "sweep.validate_config.ms": (
            total_ms("sweep.validate_config") / max(calls("sweep.validate_config"), 1)
        ),
        "sweep.export_records.ms": total_ms("sweep.export_records") / max(len(exports), 1),
        "sweep.export.bytes": statistics.fmean(exports) if exports else 0,
        "sweep.warned_frac": sum(1 for r in records if r.warnings) / points,
    }
    for code in WARNING_CODES:
        out[f"sweep.warnings.{code}"] = sum(r.warnings.get(code, 0) for r in records)
    return out
