"""Checks of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import nhmetric  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from nhmetric import linalg, metric, quasiperiodic, sweep  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def test_self_time_subtracts_only_covered_child_time():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0),
        S("a", 1.0, 4.0, parent=0),
        S("b", 3.0, 6.0, parent=0),  # overlaps a: the union [1, 6] counts once
        S("c", 8.0, 12.0, parent=0),  # runs past its parent: only [8, 10] counts
        S("grandchild", 1.5, 2.5, parent=1),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 3.0, 4.0, 1.0]


def _wrapped_names() -> list[str]:
    return [
        f"{name}.{attr}"
        for name, module in sys.modules.items()
        if name.split(".")[0] == "nhmetric"
        for attr, value in vars(module).items()
        if getattr(value, tracing.WRAPPED, False)
    ]


def test_wrappers_cover_every_importer_and_are_removed():
    original = linalg.eig_right
    tracer = tracing.Tracer()
    tracer.install(tracing.PACKAGE_TARGETS)
    try:
        for module in (nhmetric, linalg, metric, sweep):
            assert getattr(module.eig_right, tracing.WRAPPED, False)
        spec = quasiperiodic.Gaa1Spec(L=13, V1=1.0)
        metric.metric_diagonal(metric.MetricRequest(model=spec, parameter="V1"))
    finally:
        tracer.uninstall()
    assert _wrapped_names() == []
    for module in (nhmetric, linalg, metric, sweep):
        assert module.eig_right is original

    names = [s.name for s in tracer.spans]
    assert names.count("linalg.eig_right") == 2
    assert names.count("quasiperiodic.build_gaa1") == 2
    root = names.index("metric.metric_diagonal")
    assert all(s.parent == root for s in tracer.spans if s.name != "metric.metric_diagonal")
    assert tracer.spans[root].attrs["fidelity"] > 0.99


def test_layer_metrics_match_the_benchmark_file():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    emitted = set(tracing.layer_metrics([], [])) | {"sweep.pool_speedup", "trace.overhead_frac"}
    assert emitted == {m["name"] for m in spec["per_layer"]}
    assert set(spec["end_to_end"][i]["name"] for i in range(4)) == {
        "points_per_s", "cpu_ms_per_point", "setup_s", "peak_rss_mb"
    }
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)


def test_reference_tolerance_admits_rounding_and_rejects_wrong_values():
    gaa1 = WORKLOADS["gaa1_sweep"]
    records = gaa1.reference()
    assert gaa1.check_reference(records) == [None, None]

    near = copy.deepcopy(records)
    near[0].values["g"] *= 1 + 3e-7  # an analytic metric's distance from finite differences
    assert gaa1.check_reference(near) == [None, None]

    wrong = copy.deepcopy(records)
    wrong[0].values["g"] *= 1 + 1e-4
    assert gaa1.check_reference(wrong)[0] is not None


def test_swapped_eigenvector_is_rejected():
    gaa2 = WORKLOADS["gaa2_spectrum"]
    records = gaa2.reference()
    assert gaa2.check_reference(records) == [None, None]
    g = records[0].values["g"]
    g[[0, 1]] = g[[1, 0]]
    assert "g[0]" in gaa2.check_reference(records)[0]


def test_wrong_sign_is_rejected():
    spin = WORKLOADS["spin_ed"]
    records = spin.reference()
    assert spin.check_reference(records) == [None, None, None]
    ed = records[-1]
    assert spin.check_point(ed) is None
    ed.values["string_r1"] = -ed.values["string_r1"]
    assert "string" in spin.check_point(ed)
    assert "string_r1" in spin.check_reference(records)[-1]


class _OneWrongPoint(Workload):
    name = "fake"

    def check_point(self, record):
        return "wrong" if record.values["x"] < 0 else None

    def check_reference(self, records):
        return [None for _ in records]

    def check_grid(self, records):
        return 0.0, None


def test_a_wrong_value_is_counted_as_failed():
    records = [sweep.SweepRecord(params={"i": i}, values={"x": x}) for i, x in enumerate((1.0, -1.0, 2.0))]
    attempted, failed, _, problems = run.check(_OneWrongPoint(), records, records, [])
    assert (attempted, failed) == (3, 1)
    assert problems == ["{'i': 1}: wrong"]
