"""Sweeps, peak detection, scaling fits, export and the CLI surface."""

import dataclasses
import json
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
import scipy

from nhmetric import cluster_ising, linalg, metric, quasiperiodic, spinops, sweep
from nhmetric.cli import main
from nhmetric.errors import (
    ConfigInvalidError,
    DegenerateGroundStateWarning,
    PeakNotFoundError,
    SeriesTooShortError,
)
from nhmetric.cluster_ising import ClusterSpec, ground_state_metric
from nhmetric.linalg import blas_configs, blas_thread_counts, blas_threads, eig_right
from nhmetric.quasiperiodic import Gaa1Spec, Gaa2Spec
from nhmetric.sweep import (
    AxisSpec,
    SweepConfig,
    config_from_dict,
    detect_peaks,
    export_records,
    finite_size_scaling,
    load_records,
    run_sweep,
)


@dataclass(frozen=True)
class PlantedPeakModel:
    """Two-level model whose ground-state metric is L^2/(1+((mu-1)/w)^2)^2.

    The mixing angle is theta(mu) = 2 L w arctan((mu - 1)/w), so the peak
    height is exactly L**2 at mu = 1 and xi(1) = 2 log10 L.
    """

    L: int
    mu: float
    w: float = 0.05

    def build(self):
        theta = 2.0 * self.L * self.w * np.arctan((self.mu - 1.0) / self.w)
        c, s = np.cos(theta), np.sin(theta)
        return np.array([[c, s], [s, -c]])

    def derivative(self, parameter):
        """dH along mu, the one parameter the tests sweep."""
        if parameter != "mu":
            raise ValueError(f"no derivative along {parameter!r}")
        theta = 2.0 * self.L * self.w * np.arctan((self.mu - 1.0) / self.w)
        dtheta = 2.0 * self.L / (1.0 + ((self.mu - 1.0) / self.w) ** 2)
        return dtheta * np.array([[-np.sin(theta), np.cos(theta)], [np.cos(theta), np.sin(theta)]])

    diagonalize = linalg.diagonalize
    observe = metric.observe
    OBSERVABLES = metric.READERS


@pytest.fixture
def planted(monkeypatch):
    """Register PlantedPeakModel as the sweep kind 'planted'."""
    monkeypatch.setitem(sweep.MODEL_KINDS, "planted", PlantedPeakModel)


def fss_config(kind, model, parameter, window):
    """The metric along one axis over the search window (start, stop, count)."""
    return SweepConfig(
        kind=kind,
        model=model,
        axis1=AxisSpec(parameter, *window),
        axis2=None,
        observables=("metric",),
    )


def fake_xi(monkeypatch, xi_of):
    """Make every model kind observe each requested observable as {"xi": xi_of(model)}."""
    for cls in sweep.MODEL_KINDS.values():
        monkeypatch.setattr(
            cls, "observe", lambda model, names, parameter: ({"xi": xi_of(model)} for _ in names)
        )


def no_work(*args, **kwargs):
    raise AssertionError("a point was evaluated before the input was checked")


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs whatever the host, so that a two-worker sweep starts a pool."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stand in for the process pool: record each pool's max_workers and map in this process.

    No process is started.
    """
    sizes = []

    class Recording:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize):
            return map(fn, iterable)

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", Recording)
    return sizes


def csv_at_workers_1_and_2(tmp_path, kind, raw):
    """The CSV bytes one sweep exports at workers 1 and at workers 2."""
    outputs = []
    for workers in (1, 2):
        config = config_from_dict(kind, {**raw, "workers": workers})
        path = tmp_path / f"out_{workers}.csv"
        export_records(run_sweep(config), "csv", str(path), config)
        outputs.append(path.read_bytes())
    return outputs


def tiny_config(tmp_path, **overrides):
    raw = {
        "model": {"L": 34, "V2": 0.5, "g": 0.5},
        "axis1": {"parameter": "V1", "start": 0.5, "stop": 3.5, "count": 7},
        "observables": ["metric", "eta", "pr"],
        "workers": 1,
        "output": {"path": str(tmp_path / "out.csv")},
    }
    raw.update(overrides)
    return raw


class TestDetectPeaks:
    def test_parabola_peak_refined_exactly(self):
        x = np.arange(0.0, 4.0001, 0.1)
        y = -((x - 2.0) ** 2)
        peaks = detect_peaks(x, y, prominence_threshold=0.5)
        assert len(peaks) == 1
        assert peaks[0].value == pytest.approx(2.0, abs=1e-10)
        assert peaks[0].height == pytest.approx(0.0, abs=1e-10)

    def test_off_grid_parabola_vertex_recovered(self):
        x = np.arange(0.0, 4.0001, 0.1)
        y = -((x - 2.0437) ** 2)
        peaks = detect_peaks(x, y, prominence_threshold=0.5)
        assert peaks[0].value == pytest.approx(2.0437, abs=1e-10)

    def test_monotone_series_empty(self):
        x = np.linspace(0, 1, 30)
        assert detect_peaks(x, 3 * x + 1, prominence_threshold=0.1) == []

    def test_too_short_series(self):
        with pytest.raises(SeriesTooShortError):
            detect_peaks(np.arange(4.0), np.arange(4.0), 0.1)

    def test_prominence_filters_ripples(self):
        x = np.linspace(0, 10, 201)
        y = np.exp(-((x - 5) ** 2)) + 0.01 * np.sin(40 * x)
        peaks = detect_peaks(x, y, prominence_threshold=0.5)
        assert len(peaks) == 1
        assert peaks[0].value == pytest.approx(5.0, abs=0.1)


class TestFiniteSizeScaling:
    def test_planted_line_recovered_exactly(self, planted, monkeypatch):
        # pure plumbing check: the evaluation seam returns a curve whose
        # peak height is exactly 2 log10 L
        fake_xi(monkeypatch, lambda model: 2.0 * np.log10(model.L) - (model.mu - 1.0) ** 2)
        result = finite_size_scaling(
            fss_config("planted", {"L": 8, "mu": 1.0}, "mu", (0.9, 1.1, 21)),
            sizes=[8, 32, 128],
            prominence=0.005,
        )
        assert result.fit.slope == pytest.approx(2.0, abs=1e-10)
        assert result.fit.rms_residual < 1e-10
        assert result.critical_value == pytest.approx(1.0, abs=1e-12)

    def test_planted_power_law_through_real_metric(self, planted):
        # end to end through eig_right + the perturbative metric with the
        # model's exact dH: the peak heights are L**2 to rounding
        result = finite_size_scaling(
            fss_config("planted", {"L": 8, "mu": 1.0}, "mu", (0.9, 1.1, 21)),
            sizes=[8, 32, 128],
            prominence=0.1,
        )
        assert result.fit.slope == pytest.approx(2.0, abs=1e-10)
        assert result.fit.rms_residual < 1e-10
        for L, peak in result.peaks.items():
            assert peak.value == pytest.approx(1.0, abs=1e-6)

    def test_peak_not_found_carries_partial(self, planted):
        with pytest.raises(PeakNotFoundError) as info:
            finite_size_scaling(
                # far away from the peak
                fss_config("planted", {"L": 8, "mu": 1.0}, "mu", (3.0, 4.0, 11)),
                sizes=[8, 32, 128],
                prominence=0.1,
            )
        assert info.value.partial == {}

    def test_every_fibonacci_size_accepted(self, monkeypatch):
        fake_xi(monkeypatch, lambda model: 2.0 * np.log10(model.L) - (model.V1 - 3.15) ** 2)
        result = finite_size_scaling(
            fss_config("gaa1", {"L": 34, "V2": 0.5, "g": 0.5}, "V1", (3.0, 3.3, 7)),
            sizes=[13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181],
            prominence=0.005,
        )
        assert result.fit.slope == pytest.approx(2.0, abs=1e-10)

    def test_fibonacci_predicate_matches_the_sequence(self):
        fib = [1, 2]
        while fib[-1] <= 10**6:
            fib.append(fib[-1] + fib[-2])
        assert [n for n in range(1, 10**6 + 1) if sweep._is_fibonacci(n)] == fib[:-1]

    def test_small_size_rejected_before_any_work(self, monkeypatch):
        def xi_of(model):
            raise AssertionError(f"L = {model.L} evaluated before every size was checked")

        fake_xi(monkeypatch, xi_of)
        with pytest.raises(ConfigInvalidError, match="size 2: L must be >= 3"):
            finite_size_scaling(
                fss_config("gaa1", {"L": 34, "V2": 0.5, "g": 0.5, "zeta": 0.0}, "V1",
                           (3.0, 3.3, 7)),
                sizes=[34, 89, 2],
            )

    def test_fibonacci_requirement_for_periodic_chains(self):
        with pytest.raises(ValueError, match="Fibonacci"):
            finite_size_scaling(
                fss_config("gaa1", {"L": 34, "V2": 0.5, "g": 0.5}, "V1", (3.0, 3.3, 7)),
                sizes=[34, 100, 144],
            )

    def test_engine_warnings_reemitted_once_per_size(self, planted, monkeypatch):
        def xi_of(model):
            if model.L == 32 and model.mu > 1.055:
                warnings.warn("tie", DegenerateGroundStateWarning)
            return 2.0 * np.log10(model.L) - (model.mu - 1.0) ** 2

        fake_xi(monkeypatch, xi_of)
        with pytest.warns(DegenerateGroundStateWarning) as caught:
            finite_size_scaling(
                fss_config("planted", {"mu": 1.0}, "mu", (0.9, 1.1, 21)),
                sizes=[8, 32, 128],
                prominence=0.005,
            )
        # five grid points lie above 1.055; the critical point sits at 1.0
        assert [str(w.message) for w in caught] == ["size 32: DegenerateGroundState x5"]

    def test_failed_point_raises(self, planted, monkeypatch):
        def xi_of(model):
            if model.L == 32:
                raise FloatingPointError("boom")
            return 2.0 * np.log10(model.L) - (model.mu - 1.0) ** 2

        fake_xi(monkeypatch, xi_of)
        with pytest.raises(RuntimeError, match="size 32 .*FloatingPointError: boom"):
            finite_size_scaling(
                fss_config("planted", {"mu": 1.0}, "mu", (0.9, 1.1, 21)),
                sizes=[8, 32, 128],
                prominence=0.005,
            )

    @pytest.mark.parametrize(
        "replace,sizes,match",
        [
            ({"axis2": AxisSpec("w", 0.04, 0.06, 3)}, [8, 32, 128], "one axis"),
            ({"observables": ()}, [8, 32, 128], "the metric"),
            ({}, [8, 32.5, 128], "size 32.5: model field 'L' must be int"),
        ],
        ids=["second-axis", "no-metric", "size-float"],
    )
    def test_config_outside_fss_rejected_before_any_work(
        self, planted, monkeypatch, replace, sizes, match
    ):
        monkeypatch.setattr(sweep, "_evaluate_point", no_work)
        config = fss_config("planted", {"mu": 1.0}, "mu", (0.9, 1.1, 21))
        with pytest.raises(ConfigInvalidError, match=match):
            finite_size_scaling(dataclasses.replace(config, **replace), sizes)


class TestConfigValidation:
    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigInvalidError, match="unknown"):
            config_from_dict("gaa1", tiny_config(tmp_path, typo_key=1))

    def test_unknown_model_field(self, tmp_path):
        with pytest.raises(ConfigInvalidError):
            config_from_dict("gaa1", tiny_config(tmp_path, model={"nope": 2.0}))

    def test_single_point_axis_rejected(self, tmp_path):
        raw = tiny_config(tmp_path)
        raw["axis1"]["count"] = 1
        with pytest.raises(ConfigInvalidError, match="count"):
            config_from_dict("gaa1", raw)

    def test_invalid_observable_for_model(self, tmp_path):
        with pytest.raises(ConfigInvalidError, match="observable"):
            config_from_dict("gaa1", tiny_config(tmp_path, observables=["gaps"]))

    def test_empty_observables(self, tmp_path):
        with pytest.raises(ConfigInvalidError, match="nonempty"):
            config_from_dict("gaa1", tiny_config(tmp_path, observables=[]))

    @pytest.mark.parametrize(
        "kind,model,axis1,observables,match",
        [
            ("gaa1", {"V1": 1.0}, ("L", 34, 55), ["eta"], "integer field 'L'"),
            ("cluster", {}, ("r_eval", 10, 20), ["gaps"], "integer field 'r_eval'"),
            ("gaa1", {"L": 34}, ("zeta", 0.0, 0.5), ["metric"], "zeta must lie in"),
            ("gaa1", {"L": 34}, ("zeta", 0.5, 1.0), ["metric"], "zeta must lie in"),
        ],
        ids=["integer-L", "integer-r_eval", "stencil-below-zeta-0", "stencil-above-zeta-1"],
    )
    def test_unevaluable_sweeps_rejected(self, kind, model, axis1, observables, match):
        parameter, start, stop = axis1
        raw = {
            "model": model,
            "axis1": {"parameter": parameter, "start": start, "stop": stop, "count": 3},
            "observables": observables,
        }
        with pytest.raises(ConfigInvalidError, match=match):
            config_from_dict(kind, raw)


    def test_cluster_metric_sweep_starts_at_hermitian_limit(self, tmp_path):
        # the closed-form cluster metric needs no stencil below Gamma = 0
        path = str(tmp_path / "gamma.json")
        argv = ["cluster", "--axis1", "Gamma:0:1:5", "--lam", "0.5", "--observables", "metric",
                "--output", path]
        assert main(argv) == 0
        records = load_records(path)
        assert [r.params["Gamma"] for r in records] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert all(r.error is None and r.values["g"] > 0.0 for r in records)


    def test_cluster_metric_along_j(self):
        # MetricRequest's rule: every real-valued field of the chain carries a metric
        raw = {
            "model": {"lam": 0.6, "Gamma": 0.5, "n_modes": 64},
            "axis1": {"parameter": "J", "start": 0.5, "stop": 1.5, "count": 3},
            "observables": ["metric"],
        }
        records = run_sweep(config_from_dict("cluster", raw))
        spec = ClusterSpec(lam=0.6, Gamma=0.5, n_modes=64)
        assert [r.values["g"] for r in records] == [
            ground_state_metric(dataclasses.replace(spec, J=J), "J").g for J in (0.5, 1.0, 1.5)
        ]


class TestRunSweep:
    def test_row_major_ordering_and_values(self, tmp_path):
        config = config_from_dict(
            "gaa1",
            {
                "model": {"L": 34, "V2": 0.5},
                "axis1": {"parameter": "V1", "start": 1.0, "stop": 2.0, "count": 3},
                "axis2": {"parameter": "g", "start": 0.0, "stop": 0.4, "count": 2},
                "observables": ["eta"],
            },
        )
        records = run_sweep(config)
        assert len(records) == 6
        assert [r.params["V1"] for r in records] == [1.0, 1.0, 1.5, 1.5, 2.0, 2.0]
        assert [r.params["g"] for r in records] == [0.0, 0.4, 0.0, 0.4, 0.0, 0.4]
        assert all(0.0 <= r.values["eta"] <= 1.0 for r in records)

    def test_per_point_errors_do_not_abort(self):
        # alpha sweeps across the invalid value 1.0: those points fail,
        # the rest still evaluate
        config = config_from_dict(
            "gaa2",
            {
                "model": {"L": 21, "Delta": 1.0},
                "axis1": {"parameter": "alpha", "start": 0.5, "stop": 1.5, "count": 3},
                "observables": ["pr"],
            },
        )
        records = run_sweep(config)
        assert records[0].error is None
        assert records[1].error is not None and records[2].error is not None
        assert "pr" in records[0].values
        assert records[1].values == {}

    def test_worker_determinism_byte_identical_csv(self, tmp_path, two_cpus):
        base = {
            "model": {"L": 34, "V2": 0.5, "g": 0.5},
            "axis1": {"parameter": "V1", "start": 2.5, "stop": 3.5, "count": 5},
            "observables": ["metric", "eta"],
        }
        serial, pooled = csv_at_workers_1_and_2(tmp_path, "gaa1", base)
        assert serial == pooled

    def test_worker_count_leaves_csv_unchanged_at_benchmark_size(self, tmp_path, two_cpus):
        # L = 144 is where the BLAS thread count changes the last digits, so
        # serial and pool points must run on the same count
        base = {
            "model": {"L": 144, "V2": 0.5, "g": 0.5},
            "axis1": {"parameter": "V1", "start": 0.5, "stop": 5.0, "count": 4},
            "observables": ["metric", "eta"],
        }
        serial, pooled = csv_at_workers_1_and_2(tmp_path, "gaa1", base)
        assert serial == pooled

    def test_worker_count_leaves_periodic_spin_chain_csv_unchanged(self, tmp_path, two_cpus):
        base = {
            "model": {"N": 10, "h_x": 3.0},
            "axis1": {"parameter": "h_z", "start": 0.5, "stop": 1.2, "count": 3},
            "observables": ["metric", "magnetization", "spectrum"],
        }
        serial, pooled = csv_at_workers_1_and_2(tmp_path, "mixed", base)
        assert serial == pooled

    @pytest.mark.parametrize("Gamma", [0.0, 0.5])
    def test_worker_count_leaves_cluster_csv_unchanged(self, tmp_path, two_cpus, Gamma):
        # Gamma = 0 takes the determinant path of the order parameters, 0.5 the Pfaffians
        base = {
            "model": {"r_eval": 40, "Gamma": Gamma},
            "axis1": {"parameter": "lam", "start": 0.5, "stop": 1.5, "count": 4},
            "observables": ["metric", "gaps", "order_params"],
        }
        serial, pooled = csv_at_workers_1_and_2(tmp_path, "cluster", base)
        assert serial == pooled

    def test_worker_count_leaves_real_symmetric_csv_unchanged(self, tmp_path, two_cpus):
        # g = 0: every point's H is real symmetric and takes eigh's ?syevd
        base = {
            "model": {"L": 144, "alpha": -0.5},
            "axis1": {"parameter": "Delta", "start": 0.5, "stop": 2.5, "count": 4},
            "observables": ["metric", "eta", "pr"],
        }
        H = Gaa2Spec(L=144, Delta=0.5, alpha=-0.5).build()
        assert np.isrealobj(H) and np.array_equal(H, H.T)
        serial, pooled = csv_at_workers_1_and_2(tmp_path, "gaa2", base)
        assert serial == pooled

    def test_exceptional_point_row_counts_one_defective_warning(self, monkeypatch):
        # a Jordan block: collapsed eigenvectors and a singular V, one cause
        monkeypatch.setattr(Gaa1Spec, "build", lambda self: np.array([[self.V1, 1.0], [0.0, self.V1]]))
        config = config_from_dict(
            "gaa1",
            {
                "model": {"L": 34},
                "axis1": {"parameter": "V1", "start": 1.0, "stop": 2.0, "count": 2},
                "observables": ["eta"],
            },
        )
        for record in run_sweep(config):
            assert record.warnings["DefectiveMatrix"] == 1
            assert "DefectiveMatrix:1" in sweep._warnings_cell(record)

    @pytest.mark.parametrize(
        "kind,model,axis1,observables",
        [
            ("gaa1", {"L": 34, "V2": 0.5, "g": 0.5}, "V1", ["metric", "eta"]),
            # an open chain has no momentum blocks: one dense H per point
            ("mixed", {"N": 4, "h_x": 2.0, "bc": "obc"}, "h_z", ["metric", "magnetization", "spectrum"]),
        ],
    )
    def test_one_diagonalization_per_point(self, monkeypatch, kind, model, axis1, observables):
        calls = []

        def counting_eig_right(H):
            calls.append(H.shape)
            return eig_right(H)

        monkeypatch.setattr(linalg, "eig_right", counting_eig_right)
        monkeypatch.setattr(metric, "eig_right", counting_eig_right)
        config = config_from_dict(
            kind,
            {
                "model": model,
                "axis1": {"parameter": axis1, "start": 0.5, "stop": 1.5, "count": 3},
                "observables": observables,
            },
        )
        records = run_sweep(config)
        assert all(r.error is None for r in records)
        assert len(calls) == 3

    def test_one_diagonalization_per_momentum_block(self, monkeypatch):
        calls = []

        def counting_eig_right(H):
            calls.append(H.shape[0])
            return eig_right(H)

        monkeypatch.setattr(spinops, "eig_right", counting_eig_right)
        monkeypatch.setattr(metric, "eig_right", counting_eig_right)
        config = config_from_dict(
            "mixed",
            {
                "model": {"N": 6, "h_x": 2.0},
                "axis1": {"parameter": "h_z", "start": 0.5, "stop": 1.5, "count": 3},
                "observables": ["metric", "magnetization", "spectrum"],
            },
        )
        records = run_sweep(config)
        assert all(r.error is None for r in records)
        # blocks m = 0..3; block 6 - m reuses block m's eigensystem
        assert calls == [spinops.block_dimension(6, m) for m in range(4)] * 3
        assert all(len(r.values["spectrum"]) == 2**6 for r in records)

    @pytest.mark.parametrize(
        "observables,expected",
        [(["metric", "magnetization"], [1, None, None]), (["spectrum"], [None, None, None])],
        ids=["metric-magnetization", "spectrum"],
    )
    def test_ground_state_tie_warns_once_per_point(self, observables, expected):
        # h_x = 0 leaves the two fully polarized states tied in Re E, so the
        # Mz = 1 read off state 0 is one pick of two; the spectrum reads no state
        config = config_from_dict(
            "mixed",
            {
                "model": {"N": 4},
                "axis1": {"parameter": "h_x", "start": 0.0, "stop": 1.0, "count": 3},
                "observables": observables,
            },
        )
        records = run_sweep(config)
        assert [r.warnings.get("DegenerateGroundState") for r in records] == expected

    @pytest.mark.parametrize(
        "kind,module,name,raw,kept",
        [
            ("cluster", cluster_ising, "order_parameters",
             {"model": {"Gamma": 0.5, "r_eval": 4, "n_modes": 64},
              "axis1": {"parameter": "lam", "start": 0.5, "stop": 1.5, "count": 3},
              "observables": ["metric", "gaps", "order_params"]},
             ["g", "xi", "fidelity", "delta_R", "delta_I"]),
            ("gaa1", quasiperiodic, "participation_ratio",
             {"model": {"L": 34, "V2": 0.5},
              "axis1": {"parameter": "V1", "start": 0.5, "stop": 3.5, "count": 3},
              "observables": ["eta", "pr", "metric"]},
             ["eta"]),
        ],
    )
    def test_failing_observable_keeps_the_columns_before_it(
        self, monkeypatch, kind, module, name, raw, kept
    ):
        def boom(*args):
            raise FloatingPointError("boom")

        monkeypatch.setattr(module, name, boom)
        records = run_sweep(config_from_dict(kind, raw))
        assert len(records) == 3
        for rec in records:
            assert list(rec.values) == kept
            assert rec.error == "FloatingPointError: boom"

    @pytest.mark.parametrize("cpus,count,workers", [(4, 2, 2), (2, 3, 2), (1, 3, 1)])
    def test_pool_capped_at_points_and_cpus(self, monkeypatch, pool_sizes, cpus, count, workers):
        # the fork start method starts all max_workers processes at the first submit
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        config = config_from_dict(
            "gaa1",
            {
                "model": {"L": 34},
                "axis1": {"parameter": "V1", "start": 1.0, "stop": 2.0, "count": count},
                "observables": ["eta"],
                "workers": 8,
            },
        )
        assert len(run_sweep(config)) == count
        assert pool_sizes == ([workers] if workers > 1 else [])
        assert sweep._meta(config)["workers"] == workers

    def test_fss_evaluates_its_single_points_without_a_pool(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        fake_xi(monkeypatch, lambda model: 2.0 * np.log10(model.L) - (model.V1 - 3.15) ** 2)
        config = fss_config("gaa1", {"L": 34, "V2": 0.5, "g": 0.5, "zeta": 0.0}, "V1", (3.0, 3.3, 7))
        finite_size_scaling(dataclasses.replace(config, workers=8), [34, 55, 89], prominence=0.005)
        # one pool of 4 per size's 7-point window; each size's critical point runs serially
        assert pool_sizes == [4, 4, 4]

    @pytest.mark.parametrize("cpu_count,workers", [(3, 3), (None, 1)])
    def test_cpu_count_caps_the_pool_without_sched_getaffinity(
        self, monkeypatch, pool_sizes, cpu_count, workers
    ):
        # macOS and Windows have no os.sched_getaffinity; os.cpu_count() may be None
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        config = config_from_dict(
            "gaa1",
            {
                "model": {"L": 34},
                "axis1": {"parameter": "V1", "start": 1.0, "stop": 2.0, "count": 3},
                "observables": ["eta"],
                "workers": 8,
            },
        )
        assert sweep._meta(config)["workers"] == workers
        records = run_sweep(config)
        assert [r.error for r in records] == [None, None, None]
        assert pool_sizes == ([workers] if workers > 1 else [])


@pytest.fixture
def openblas():
    """Skip where numpy's or scipy's OpenBLAS pool is not found."""
    if None in blas_thread_counts().values():
        pytest.skip("numpy's or scipy's OpenBLAS pool not found")


class TestBlasPolicy:
    def test_serial_sweep_pinned_and_caller_counts_restored(self, monkeypatch, openblas):
        seen = []

        # fake_xi's observe runs inside _evaluate_point: seen holds each point's counts
        def xi_of(model):
            seen.append(blas_thread_counts())
            return 0.0

        fake_xi(monkeypatch, xi_of)
        config = config_from_dict(
            "gaa1",
            {
                "model": {"L": 34},
                "axis1": {"parameter": "V1", "start": 1.0, "stop": 2.0, "count": 3},
                "observables": ["eta"],
            },
        )
        with blas_threads(2):
            run_sweep(config)
            assert blas_thread_counts() == {"numpy": 2, "scipy": 2}
        assert seen == [{"numpy": 1, "scipy": 1}] * 3

    def test_pool_worker_runs_one_blas_thread(self, monkeypatch, openblas, two_cpus, pool_sizes):
        seen = []

        def xi_of(model):
            seen.append(blas_thread_counts())
            return 0.0

        fake_xi(monkeypatch, xi_of)
        config = config_from_dict(
            "gaa1",
            {
                "model": {"L": 34},
                "axis1": {"parameter": "V1", "start": 1.0, "stop": 2.0, "count": 2},
                "observables": ["eta"],
                "workers": 2,
            },
        )
        with blas_threads(2):
            assert len(run_sweep(config)) == 2
            assert blas_thread_counts() == {"numpy": 2, "scipy": 2}
        assert pool_sizes == [2]
        assert seen == [{"numpy": 1, "scipy": 1}] * 2

    def test_fss_applies_the_rule_per_size(self, monkeypatch, openblas):
        seen = {}

        def xi_of(model):
            seen.setdefault(model.L, blas_thread_counts())
            return 2.0 * np.log10(model.L) - (model.V1 - 3.15) ** 2

        fake_xi(monkeypatch, xi_of)
        with blas_threads(2):
            finite_size_scaling(
                fss_config("gaa1", {"L": 34, "V2": 0.5, "g": 0.5, "zeta": 0.0}, "V1",
                           (3.0, 3.3, 7)),
                sizes=[34, 55, 89],
                prominence=0.005,
            )
            assert blas_thread_counts() == {"numpy": 2, "scipy": 2}
        one = {"numpy": 1, "scipy": 1}
        assert seen == {34: one, 55: one, 89: one}

    def test_worker_count_leaves_complex_chain_csv_unchanged(self, tmp_path, two_cpus):
        # h = 0.3: every point's H is complex and takes the general eig path
        base = {
            "model": {"L": 144, "V2": 0.5, "g": 0.5, "h": 0.3},
            "axis1": {"parameter": "V1", "start": 1.5, "stop": 2.5, "count": 6},
            "observables": ["metric", "eta", "spectrum"],
        }
        serial, pooled = csv_at_workers_1_and_2(tmp_path, "gaa1", base)
        assert serial == pooled


class TestExport:
    def _records(self, tmp_path, observables, kind="gaa1", model=None):
        config = config_from_dict(
            kind,
            {
                "model": model or {"L": 34, "V2": 0.5},
                "axis1": {"parameter": "V1", "start": 1.0, "stop": 2.0, "count": 2},
                "observables": observables,
            },
        )
        return run_sweep(config), config

    def test_csv_schema_single_observable(self, tmp_path):
        records, config = self._records(tmp_path, ["eta"])
        path = tmp_path / "eta.csv"
        export_records(records, "csv", str(path), config)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "V1,eta,warnings"
        assert len(lines) == 3
        assert os.path.exists(str(path) + ".meta.json")

    def test_csv_columns_follow_every_record(self, tmp_path):
        # a failed first point has no values: the columns come from the records after it
        records = [
            sweep.SweepRecord(params={"V1": 1.0}, error="FloatingPointError: boom"),
            sweep.SweepRecord(params={"V1": 2.0}, values={"eta": 0.5, "spectrum": np.array([1 + 2j])}),
        ]
        path = tmp_path / "gap.csv"
        export_records(records, "csv", str(path))
        assert path.read_text().split("\n")[:3] == [
            "V1,eta,spectrum_re,spectrum_im,warnings",
            "1,,,,Error:FloatingPointError",
            "2,0.5,1,2,",
        ]

    def test_csv_complex_columns(self, tmp_path):
        config = config_from_dict(
            "cluster",
            {
                "model": {"r_eval": 10, "Gamma": 0.5},
                "axis1": {"parameter": "lam", "start": 0.5, "stop": 1.0, "count": 2},
                "observables": ["order_params"],
            },
        )
        records = run_sweep(config)
        path = tmp_path / "ox.csv"
        export_records(records, "csv", str(path), config)
        header = path.read_text().split("\n")[0]
        assert header == "lam,my,Ox_re,Ox_im,dOx_dlam_re,dOx_dlam_im,dmy_dlam,warnings"

    def test_json_round_trip(self, tmp_path):
        config = config_from_dict(
            "mixed",
            {
                "model": {"N": 4, "h_x": 2.0},
                "axis1": {"parameter": "h_z", "start": 0.2, "stop": 0.6, "count": 3},
                "observables": ["magnetization", "spectrum", "metric"],
            },
        )
        records = run_sweep(config)
        path = tmp_path / "roundtrip.json"
        export_records(records, "json", str(path), config)
        loaded = load_records(str(path))
        assert len(loaded) == len(records)
        for a, b in zip(records, loaded):
            assert a.params == b.params
            assert a.warnings == b.warnings
            assert a.error == b.error
            assert set(a.values) == set(b.values)
            for key in a.values:
                assert np.array_equal(np.asarray(a.values[key]), np.asarray(b.values[key]))

    def test_meta_records_versions_threads_and_workers(self, tmp_path):
        config = config_from_dict(
            "gaa1",
            {
                "model": {"L": 34},
                "axis1": {"parameter": "V1", "start": 1.0, "stop": 2.0, "count": 2},
                "observables": ["eta"],
                "workers": 1,
            },
        )
        path = tmp_path / "eta.csv"
        export_records(run_sweep(config), "csv", str(path), config)
        meta = json.loads((tmp_path / "eta.csv.meta.json").read_text())
        assert (meta["numpy"], meta["scipy"]) == (np.__version__, scipy.__version__)
        assert meta["workers"] == 1
        # a sweep runs its points with one thread in every pool found
        found = blas_thread_counts()
        assert meta["blas_threads"] == {k: None if n is None else 1 for k, n in found.items()}

    def test_json_meta_records_blas_builds(self, tmp_path):
        records, config = self._records(tmp_path, ["eta"])
        path = tmp_path / "eta.json"
        export_records(records, "json", str(path), config)
        builds = json.loads(path.read_text())["meta"]["blas_config"]
        assert builds == blas_configs()
        for name, threads in blas_thread_counts().items():
            if threads is None:
                assert builds[name] is None
            else:
                assert builds[name].startswith("OpenBLAS")

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_records([], "csv", str(tmp_path / "x.csv"))

    @pytest.mark.parametrize("fmt,name", [("csv", "run.json"), ("json", "run.csv"), ("xml", "run.csv")])
    def test_format_contradicting_the_path_rejected(self, tmp_path, fmt, name):
        # nhmetric peaks reads a file by its extension, so the two must agree
        records, config = self._records(tmp_path, ["eta"])
        with pytest.raises(ValueError, match="contradicts"):
            export_records(records, fmt, str(tmp_path / name), config)
        assert list(tmp_path.iterdir()) == []


class TestCli:
    def test_sweep_subcommand_end_to_end(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["gaa1", "--config", str(cfg_path)]) == 0
        out = (tmp_path / "out.csv").read_text().strip().split("\n")
        assert out[0] == "V1,g,xi,fidelity,eta,pr,warnings"
        assert len(out) == 8

    def test_export_failure_keeps_every_record_as_partial_json(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        # the sidecar's path names a directory, so the export fails after the CSV is written
        (tmp_path / "out.csv.meta.json").mkdir()
        raw = {
            "model": {"L": 34, "V2": 0.5},
            "axis1": {"parameter": "V1", "start": 0.5, "stop": 3.5, "count": 9},
            "observables": ["metric", "eta"],
        }
        argv = ["gaa1", "--axis1", "V1:0.5:3.5:9", "--L", "34", "--V2", "0.5",
                "--observables", "metric,eta", "--output", str(out)]
        assert main(argv) == 2
        assert "export failed" in capsys.readouterr().err
        partial = load_records(f"{out}.partial.json")
        expected = run_sweep(config_from_dict("gaa1", raw))
        assert [(r.params, r.values, r.error) for r in partial] == [
            (r.params, r.values, r.error) for r in expected
        ]
        assert len(partial) == 9

    def test_fss_subcommand_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "fss.json"
        argv = ["fss", "gaa1", "--axis1", "V1:1.6:2.4:9", "--sizes", "34,55,89",
                "--output", str(path)]
        assert main(argv) == 0
        assert "critical point: V1 = 1.96772\n" in capsys.readouterr().out
        sizes = [34, 55, 89]
        result = finite_size_scaling(fss_config("gaa1", {"L": 34}, "V1", (1.6, 2.4, 9)), sizes)
        assert json.loads(path.read_text()) == {
            "kappa": result.fit.slope,
            "intercept": result.fit.intercept,
            "rms_residual": result.fit.rms_residual,
            "critical_value": result.critical_value,
            "xi_at_critical": {str(L): result.xi_at_critical[L] for L in sizes},
            "peaks": {str(L): dataclasses.asdict(result.peaks[L]) for L in sizes},
        }

    def test_override_flags(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path)))
        out2 = tmp_path / "alt.json"
        code = main(
            [
                "gaa1",
                "--config",
                str(cfg_path),
                "--L",
                "21",
                "--observables",
                "eta",
                "--output",
                str(out2),
            ]
        )
        assert code == 0
        loaded = load_records(str(out2))
        assert len(loaded) == 7
        assert set(loaded[0].values) == {"eta"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["gaa1", "--axis1", "V1:1.0:3.0:5", "--L", "21"],
            ["gaa2", "--axis1", "Delta:0.5:1.5:5", "--L", "21"],
            ["cluster", "--axis1", "lam:0.5:1.5:5", "--n_modes", "64", "--r_eval", "4"],
            ["mixed", "--axis1", "h_z:0.2:1.0:5", "--N", "4"],
        ],
        ids=["gaa1", "gaa2", "cluster", "mixed"],
    )
    def test_json_extension_writes_json_that_peaks_reads(self, tmp_path, argv):
        path = str(tmp_path / "x.json")
        assert main([*argv, "--observables", "metric", "--output", path]) == 0
        assert len(load_records(path)) == 5
        x = argv[2].split(":")[0]
        assert main(["peaks", path, "--x", x, "--y", "xi"]) == 0

    def test_invalid_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(tiny_config(tmp_path, observables=["gaps"])))
        assert main(["gaa1", "--config", str(cfg_path)]) == 1

    def test_missing_axis_exit_code(self):
        assert main(["gaa1"]) == 1

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["gaa1", "--axis1", "V1:0.5:3"], "'V1:0.5:3' is not parameter:start:stop:count"),
            (["gaa1", "--axis1", "V1:0.5:3:7.9"], "invalid literal for int()"),
            (["fss", "gaa1", "--sizes", "34,55,89", "--axis1", "V1:2.5:3.5"],
             "'V1:2.5:3.5' is not parameter:start:stop:count"),
        ],
        ids=["axis-three-parts", "axis-count-float", "fss-window-two-parts"],
    )
    def test_malformed_axis_message(self, capsys, argv, message):
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config_overrides,flags,message",
        [
            ({"axis1": 5}, [], "axis1 must be a mapping"),
            ({"axis1": {"parameter": "V1", "start": 0.5, "stop": 3.5, "count": "x"}}, [],
             "axis1 field 'count' must be int, got 'x'"),
            # the metric's stencil step and the output format are not settings
            ({}, ["--metric-step", "nan"], "unrecognized arguments: --metric-step nan"),
            ({}, ["--axis1", "V1:0.5:inf:5"], "axis1 bounds must be finite"),
            (None, ["--sizes", "34,x"], "invalid literal for int()"),
            (None, ["--V2", "abc"], "argument --V2: invalid float value: 'abc'"),
            (None, ["--metric-step", "-1"], "unrecognized arguments: --metric-step -1"),
            (None, ["--metric-step", "inf"], "unrecognized arguments: --metric-step inf"),
            (None, ["--axis1", "V1:2.5:inf:5"], "axis1 bounds must be finite"),
            (None, ["--axis1", "nope:2.5:3.5:5"], "unexpected keyword argument 'nope'"),
            (None, ["--sizes", "34,89,2"], "size 2: L must be >= 3"),
            (None, ["--sizes", "34,89,100"], "need Fibonacci sizes"),
            (None, ["--sizes", "34,34,55"], "none repeated, got [34, 34, 55]"),
            (None, ["--sizes", "34,34,34"], "none repeated, got [34, 34, 34]"),
            ({"model": {"L": 34, "V2": "abc"}}, [], "model field 'V2' must be float"),
            ({"model": {"L": 34.7}}, [], "model field 'L' must be int"),
            ({"kind": "mixed", "model": {"N": 4, "h_x": True},
              "axis1": {"parameter": "h_z", "start": 0.5, "stop": 1.5, "count": 3},
              "observables": ["metric"]}, [], "model field 'h_x' must be float, got True"),
            (None, ["--axis1", "V1:3.3:3.0:7"], "axis1.stop must exceed axis1.start"),
            (None, ["--axis1", "V1:3.0:3.3:3"], "along one axis of at least 5 points"),
            (None, ["fss", "gaa2", "--sizes", "34,55,89", "--axis1", "alpha:-0.5:0.99999:5"],
             "|alpha| must be < 1, got 1.00004"),
            (None, ["--prominence", "nan"], "prominence must be finite and >= 0, got nan"),
            (None, ["--prominence", "-0.1"], "prominence must be finite and >= 0, got -0.1"),
            (None, ["--prominence", "inf"], "prominence must be finite and >= 0, got inf"),
            ({"axis2": {"parameter": "V1", "start": 0.0, "stop": 1.0, "count": 2}}, [],
             "axis2 sweeps 'V1', the parameter of axis1"),
            ({"axis1": {"parameter": "V1", "start": 0.5, "stop": 3.5, "count": 7.9}}, [],
             "axis1 field 'count' must be int, got 7.9"),
            ({"axis1": {"parameter": "V1", "start": True, "stop": 3.5, "count": 7}}, [],
             "axis1 field 'start' must be float, got True"),
            ({"workers": 2.5}, [], "config field 'workers' must be int, got 2.5"),
            ({"workers": True}, [], "config field 'workers' must be int, got True"),
            ({"metric_step": True}, [], "unknown top-level keys: ['metric_step']"),
            ({"output": {"path": 7}}, [], "config field 'output_path' must be str | None"),
            ({"axis1": {"parameter": "V1", "start": 0.5, "stop": 3.5, "count": "7"}}, [],
             "axis1 field 'count' must be int, got '7'"),
            ({"output": {"format": "CSV"}}, [], "output accepts the key 'path' only"),
            ({}, ["--format", "json"], "unrecognized arguments: --format json"),
            ({"axis2": {}}, [], "missing keys in axis2"),
            ({"axis2": 0}, [], "axis2 must be a mapping"),
            ({"kind": "mixed", "model": {"N": 15},
              "axis1": {"parameter": "h_z", "start": 0.5, "stop": 1.5, "count": 3},
              "observables": ["metric"]}, [], "N must lie in [2, 14] under pbc, got 15"),
            ({"kind": "mixed", "model": {"N": 13, "bc": "obc"},
              "axis1": {"parameter": "h_z", "start": 0.5, "stop": 1.5, "count": 3},
              "observables": ["metric"]}, [], "N must lie in [2, 12] under obc, got 13"),
            ({"kind": "cluster", "model": {"r_eval": 2, "n_modes": 16},
              "axis1": {"parameter": "lam", "start": 0.5, "stop": 1.5, "count": 3},
              "observables": ["order_params", "order_params"]}, [],
             "distinct, got ['order_params', 'order_params']"),
            ({"observables": [["metric"]]}, [], "observable ['metric'] invalid for gaa1"),
            ({"observables": [{"a": 1}]}, [], "observable {'a': 1} invalid for gaa1"),
            ({}, ["--V2", "nan"], "model field 'V2' must be finite, got nan"),
            ({"kind": "cluster", "model": {"Gamma": float("nan"), "r_eval": 4, "n_modes": 64},
              "axis1": {"parameter": "lam", "start": 0.5, "stop": 1.5, "count": 3},
              "observables": ["metric", "gaps"]}, [], "model field 'Gamma' must be finite, got nan"),
            (None, ["--g", "inf"], "model field 'g' must be finite, got inf"),
            (None, ["--L", "10"], "--L is not allowed: --sizes sets L"),
            ({}, ["--output", "nodir/a.json"], "output directory 'nodir' of 'nodir/a.json'"),
            ({"output": {"path": "nodir/a.csv"}}, [], "output directory 'nodir' of 'nodir/a.csv'"),
            (None, ["--output", "nodir/f.json"], "output directory 'nodir' of 'nodir/f.json'"),
            ({}, ["--output", "adir"], "output path 'adir' is a directory"),
            (None, ["--output", "adir"], "output path 'adir' is a directory"),
            (None, ["--output", "f.csv"], "output path 'f.csv' must end in .json"),
        ],
        ids=["axis1-not-mapping", "count-not-int", "metric-step-nan", "axis1-stop-inf",
             "fss-sizes", "fss-model-flag", "fss-metric-step", "fss-metric-step-inf",
             "fss-window-inf",
             "fss-parameter", "fss-size-too-small", "fss-size-not-fibonacci",
             "fss-sizes-repeated", "fss-sizes-all-repeated", "float-field-str",
             "int-field-float", "float-field-bool", "fss-window-reversed",
             "fss-window-too-few-points", "fss-stencil-past-alpha-one", "fss-prominence-nan",
             "fss-prominence-negative", "fss-prominence-inf", "axis2-repeats-axis1",
             "count-float", "start-bool", "workers-float", "workers-bool", "metric-step-bool",
             "output-path-int", "count-str", "format-uppercase", "format-flag", "axis2-empty",
             "axis2-not-mapping", "mixed-N15-pbc", "mixed-N13-obc", "observable-repeated",
             "observable-not-str", "observable-mapping", "model-field-nan-flag",
             "model-field-nan-config", "fss-model-flag-inf", "fss-L", "output-dir-missing",
             "output-dir-missing-in-config", "fss-output-dir-missing", "output-is-dir",
             "fss-output-is-dir", "fss-output-not-json"],
    )
    def test_bad_outside_input_exit_code(
        self, tmp_path, monkeypatch, capsys, config_overrides, flags, message
    ):
        monkeypatch.setattr(sweep, "_evaluate_point", no_work)
        monkeypatch.chdir(tmp_path)  # relative output paths resolve here
        (tmp_path / "adir").mkdir()  # the directory the output-is-dir rows name
        # a valid call up to the one bad flag, which comes last and wins
        if config_overrides is not None:
            overrides = dict(config_overrides)
            kind = overrides.pop("kind", "gaa1")
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(tiny_config(tmp_path, **overrides)))
            argv = [kind, "--config", str(cfg_path), *flags]
        elif flags[0] == "fss":
            argv = flags  # a row of another model kind gives its whole fss call
        else:
            argv = ["fss", "gaa1", "--sizes", "34,55,89", "--axis1", "V1:2.5:3.5:5", *flags]
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("prominence", ["nan", "-0.1", "inf"])
    def test_peaks_bad_prominence_exit_code(self, tmp_path, capsys, prominence):
        x = np.linspace(0.0, 4.0, 41)
        lines = ["V1,xi,warnings"] + [f"{a},{-((a - 2.2) ** 2)}," for a in x]
        path = tmp_path / "series.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["peaks", str(path), "--x", "V1", "--y", "xi", "--prominence", prominence]) == 1
        assert capsys.readouterr().out == ""

    def test_peaks_repeated_x_exit_code(self, tmp_path, capsys):
        # a 2-D export read along one axis repeats every x once per value of the other
        x = np.repeat(np.linspace(0.0, 4.0, 21), 3)
        h = np.tile([0.0, 0.1, 0.2], 21)
        lines = ["V1,h,xi,warnings"] + [f"{a},{b},{b - (a - 2.2) ** 2}," for a, b in zip(x, h)]
        path = tmp_path / "grid.csv"
        path.write_text("\n".join(lines) + "\n")
        assert main(["peaks", str(path), "--x", "V1", "--y", "xi"]) == 1
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peaks_skips_failed_points(self, tmp_path, capsys, fmt):
        # |alpha| must stay below 1, so 9 of the 17 points fail
        path = str(tmp_path / f"pr.{fmt}")
        argv = ["gaa2", "--axis1", "alpha:0.5:1.5:17", "--L", "21", "--Delta", "1.0",
                "--observables", "pr", "--output", path]
        assert main(argv) == 0
        assert "(9 failed points)" in capsys.readouterr().out
        assert main(["peaks", path, "--x", "alpha", "--y", "pr"]) == 0
        assert capsys.readouterr().out == "no peaks found\n"
        assert main(["peaks", path, "--x", "alpha", "--y", "nope"]) == 1

    @pytest.mark.parametrize(
        "name,text,y,output",
        [
            ("spectrum.csv", "V1,spectrum_re,warnings\n" + "".join(
                f"{v},-1;{v},\n" for v in range(5)), "spectrum_re", None),
            ("spectrum.json", json.dumps({"records": [
                {"params": {"V1": v}, "values": {"spectrum": {"re": [-1.0, v], "im": [0.0, 0.0]}},
                 "warnings": {}, "error": None} for v in range(5)]}), "spectrum", None),
            ("cell.csv", "V1,xi,warnings\n0.5,abc,\n", "xi", None),
            ("text.json", "V1,xi\n0.5,1.0\n", "xi", None),
            ("meta.json", json.dumps({"meta": {}}), "xi", None),
            ("missing.csv", None, "xi", None),
            ("missing.json", None, "xi", None),
            ("series.csv", "V1,xi,warnings\n" + "".join(
                f"{v},{-((v - 2.2) ** 2)},\n" for v in range(5)), "xi", "nodir/p.json"),
            ("series.csv", "V1,xi,warnings\n" + "".join(
                f"{v},{-((v - 2.2) ** 2)},\n" for v in range(5)), "xi", "adir"),
            ("series.csv", "V1,xi,warnings\n" + "".join(
                f"{v},{-((v - 2.2) ** 2)},\n" for v in range(5)), "xi", "peaks.csv"),
        ],
        ids=["csv-array-column", "json-array-column", "csv-non-numeric-cell", "not-json",
             "json-without-records", "missing-csv", "missing-json", "output-dir-missing",
             "output-is-dir", "output-not-json"],
    )
    def test_peaks_bad_file_exit_code(self, tmp_path, capsys, name, text, y, output):
        (tmp_path / "adir").mkdir()  # the directory the output-is-dir row names
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        argv = ["peaks", str(path), "--x", "V1", "--y", y]
        if output is not None:
            argv += ["--output", str(tmp_path / output)]
        assert main(argv) == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_peaks_subcommand(self, tmp_path, capsys):
        x = np.linspace(0.0, 4.0, 41)
        y = -((x - 2.2) ** 2)
        lines = ["V1,xi,warnings"] + [f"{a},{b}," for a, b in zip(x, y)]
        path = tmp_path / "series.csv"
        path.write_text("\n".join(lines) + "\n")
        out_json = tmp_path / "peaks.json"
        code = main(
            ["peaks", str(path), "--x", "V1", "--y", "xi", "--prominence", "0.5",
             "--output", str(out_json)]
        )
        assert code == 0
        peaks = json.loads(out_json.read_text())
        assert len(peaks) == 1
        assert peaks[0]["value"] == pytest.approx(2.2, abs=1e-9)


IMPORT_PROBE = """
import json, sys
import numpy as np
import nhmetric, nhmetric.cli

HEAVY = ("scipy.signal", "scipy.stats", "scipy.interpolate", "scipy.optimize")

def heavy():
    return sorted(m for m in sys.modules if any(m == h or m.startswith(h + ".") for h in HEAVY))

loaded = heavy()
x = np.linspace(0.0, 1.0, 21)
peaks = nhmetric.detect_peaks(x, np.exp(-(((x - 0.5) / 0.1) ** 2)))
print(json.dumps({"on_import": loaded, "peaks": [p.value for p in peaks], "after": heavy()}))
"""


def test_import_leaves_scipy_signal_to_detect_peaks():
    """``import nhmetric`` loads no scipy.signal, .stats, .interpolate or .optimize.

    scipy.signal, which loads the other three, is imported by
    :func:`detect_peaks` alone, on its first call.  A fresh interpreter
    sees the import set that a CLI run or a spawned pool worker starts with.
    """
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    probe = json.loads(child.stdout)
    assert probe["on_import"] == []
    assert probe["peaks"] == [pytest.approx(0.5)]
    assert "scipy.signal" in probe["after"]
