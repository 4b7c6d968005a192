"""The paper's claims, checked end to end through the sweep engine.

Each gaa1 case sweeps the ground-state metric of the periodic chain over
V1 and asserts that its dominant peak lies within one grid step of the
analytic localization transition :func:`gaa1_critical_v1`.  The mixed
chain has no closed form; its metric peak must sit where the ground
energy turns complex.  The cluster chain's metric maximum must sit at the
exceptional point of its 2x2 mode blocks.  A claim that misses is a
finding about the method, never a reason to widen the tolerance.
"""

import numpy as np
import pytest
from scipy.optimize import brentq

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


def test_mixed_chain_metric_peak_where_the_ground_energy_turns_complex():
    # at h_x = 3 the ground energy of the N = 8 ring is real up to h_z = 0.9
    # (|Im E_0| ~ 1e-13) and complex from h_z = 0.925 on (|Im E_0| = 0.41);
    # past that point E_0 is one of a conjugate pair tied in Re E
    axis = AxisSpec("h_z", 0.7, 1.1, 17)
    config = SweepConfig("mixed", {"N": 8, "h_x": 3.0}, axis, None, ("metric", "spectrum"))
    records = run_sweep(config)
    assert all(rec.error is None for rec in records)
    real = [abs(rec.values["spectrum"][0].imag) < 1e-10 for rec in records]
    last_real = int(np.flatnonzero(real)[-1])
    assert not any(real[last_real + 1:])
    peaks = detect_peaks(axis.values(), [rec.values["xi"] for rec in records])
    top = max(peaks, key=lambda p: p.height)
    step = (axis.stop - axis.start) / (axis.count - 1)
    assert abs(top.value - axis.values()[last_real]) <= step
    tied = [i for i, rec in enumerate(records) if rec.warnings.get("DegenerateGroundState")]
    assert tied and min(tied) > last_real


@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_cluster_metric_maximum_at_the_exceptional_point(gamma):
    # a block [[z, y], [y, -z]] is defective where z**2 + y**2 = 0; with
    # Re z = 0, lam = cos 2k / cos k, and then y = sin 3k / cos k, so the
    # first such lam comes from the smallest k > 0 with sin 3k / cos k =
    # Gamma / 4, on (0, pi/6) where that ratio rises from 0 to 2/sqrt(3)
    k = brentq(lambda k: np.sin(3 * k) / np.cos(k) - gamma / 4, 0.0, np.pi / 6, xtol=1e-15)
    exceptional = np.cos(2 * k) / np.cos(k)
    # the spike is narrower than 1e-3 in lam, so coarser grids miss it
    axis = AxisSpec("lam", 0.5, 1.5, 2001)
    config = SweepConfig("cluster", {"J": 1.0, "Gamma": gamma}, axis, None, ("metric",))
    records = run_sweep(config)
    assert all(rec.error is None for rec in records)
    top = axis.values()[np.argmax([rec.values["g"] for rec in records])]
    step = (axis.stop - axis.start) / (axis.count - 1)
    assert abs(top - exceptional) <= step
