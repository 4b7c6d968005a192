"""The paper's claims, checked end to end through the sweep engine.

Each case sweeps the ground-state metric of the periodic gaa1 chain over
V1 and asserts that its dominant peak lies within one grid step of the
analytic localization transition :func:`gaa1_critical_v1`.  A claim that
misses is a finding about the method, never a reason to widen the
tolerance.
"""

import pytest

from nhmetric.quasiperiodic import gaa1_critical_v1
from nhmetric.sweep import AxisSpec, SweepConfig, detect_peaks, run_sweep

L = 144
POINTS = 41


@pytest.mark.parametrize(
    "fields",
    [
        {},
        {"V2": 0.5, "g": 0.5},
        {"h": 0.5},
        {"V2": 1.5, "g": 0.7},
        {"V2": 0.5, "g": 0.5, "h": 0.3},
    ],
    ids=["hermitian", "g-alone", "h-alone", "V2-above-t", "g-and-h"],
)
def test_gaa1_metric_peak_at_the_analytic_transition(fields):
    critical = gaa1_critical_v1(
        1.0, fields.get("V2", 0.0), fields.get("g", 0.0), fields.get("h", 0.0)
    )
    axis = AxisSpec("V1", 0.7 * critical, 1.3 * critical, POINTS)
    config = SweepConfig("gaa1", {"L": L, **fields}, axis, None, ("metric",))
    records = run_sweep(config)
    assert all(rec.error is None for rec in records)
    peaks = detect_peaks(axis.values(), [rec.values["xi"] for rec in records])
    top = max(peaks, key=lambda p: p.height)
    step = (axis.stop - axis.start) / (POINTS - 1)
    assert abs(top.value - critical) <= step
