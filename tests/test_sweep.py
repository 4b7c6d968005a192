"""Sweeps, peak detection, scaling fits, export and the CLI surface."""

import dataclasses
import json
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import pytest
import scipy

from nhmetric import metric, sweep
from nhmetric.cli import main
from nhmetric.errors import (
    ConfigInvalidError,
    DegenerateGroundStateWarning,
    PeakNotFoundError,
    SeriesTooShortError,
)
from nhmetric.linalg import EigenSystem, blas_thread_counts, blas_threads, eig_right
from nhmetric.quasiperiodic import Gaa1Spec
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


@pytest.fixture
def planted(monkeypatch):
    """Register PlantedPeakModel as the sweep kind 'planted'."""
    monkeypatch.setitem(sweep.MODEL_KINDS, "planted", PlantedPeakModel)
    monkeypatch.setitem(sweep.OBSERVABLES_BY_KIND, "planted", ("metric",))


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
    """Make the sweep engine evaluate every point's observables as {"xi": xi_of(model)}.

    The up-front diagonalization is stubbed too, with one state so that no
    ground-state tie can warn.
    """
    monkeypatch.setattr(
        sweep, "eig_right", lambda H: EigenSystem(np.zeros(1, complex), np.ones((1, 1), complex))
    )
    monkeypatch.setattr(
        sweep, "_evaluate_observable", lambda obs, config, model, system: {"xi": xi_of(model)}
    )


def no_work(*args, **kwargs):
    raise AssertionError("a point was evaluated before the input was checked")


def tiny_config(tmp_path, **overrides):
    raw = {
        "model": {"L": 34, "V2": 0.5, "g": 0.5},
        "axis1": {"parameter": "V1", "start": 0.5, "stop": 3.5, "count": 7},
        "observables": ["metric", "eta", "pr"],
        "workers": 1,
        "output": {"path": str(tmp_path / "out.csv"), "format": "csv"},
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
        # end to end through eig_right + the perturbative metric; dH is a
        # central difference of build() over d, whose O((L d)^2) truncation
        # error on this steep model sets the looser tolerance
        result = finite_size_scaling(
            fss_config("planted", {"L": 8, "mu": 1.0}, "mu", (0.9, 1.1, 21)),
            sizes=[8, 32, 128],
            prominence=0.1,
        )
        assert result.fit.slope == pytest.approx(2.0, abs=1e-4)
        assert result.fit.rms_residual < 1e-4
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
            sizes=[34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584],
            prominence=0.005,
        )
        assert result.fit.slope == pytest.approx(2.0, abs=1e-10)

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
            ("cluster", {}, ("J", 0.5, 1.5), ["metric"], "cluster metric"),
            ("gaa1", {"L": 34}, ("zeta", 0.0, 0.5), ["metric"], "zeta must lie in"),
            ("gaa1", {"L": 34}, ("zeta", 0.5, 1.0), ["metric"], "zeta must lie in"),
        ],
        ids=["integer-L", "integer-r_eval", "cluster-metric-along-J",
             "stencil-below-zeta-0", "stencil-above-zeta-1"],
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
                "--output", path, "--format", "json"]
        assert main(argv) == 0
        records = load_records(path)
        assert [r.params["Gamma"] for r in records] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert all(r.error is None and r.values["g"] > 0.0 for r in records)


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

    def test_worker_determinism_byte_identical_csv(self, tmp_path):
        base = {
            "model": {"L": 34, "V2": 0.5, "g": 0.5},
            "axis1": {"parameter": "V1", "start": 2.5, "stop": 3.5, "count": 5},
            "observables": ["metric", "eta"],
        }
        paths = []
        for workers in (1, 2):
            raw = dict(base)
            raw["workers"] = workers
            path = tmp_path / f"out_{workers}.csv"
            raw["output"] = {"path": str(path), "format": "csv"}
            config = config_from_dict("gaa1", raw)
            export_records(run_sweep(config), "csv", str(path), config)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_worker_count_leaves_csv_unchanged_at_benchmark_size(self, tmp_path):
        # L = 144 is where the BLAS thread count changes the last digits, so
        # serial and pool points must run on the same count
        base = {
            "model": {"L": 144, "V2": 0.5, "g": 0.5},
            "axis1": {"parameter": "V1", "start": 0.5, "stop": 5.0, "count": 4},
            "observables": ["metric", "eta"],
        }
        outputs = []
        for workers in (1, 2):
            config = config_from_dict("gaa1", {**base, "workers": workers})
            path = tmp_path / f"out_{workers}.csv"
            export_records(run_sweep(config), "csv", str(path), config)
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

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
            ("mixed", {"N": 4, "h_x": 2.0}, "h_z", ["metric", "magnetization", "spectrum"]),
        ],
    )
    def test_one_diagonalization_per_point(self, monkeypatch, kind, model, axis1, observables):
        calls = []

        def counting_eig_right(H):
            calls.append(H.shape)
            return eig_right(H)

        monkeypatch.setattr(sweep, "eig_right", counting_eig_right)
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

    def test_ground_state_tie_warns_once_per_point(self):
        # h_x = 0 leaves the two fully polarized states tied in Re E, so the
        # Mz = 1 read off state 0 is one pick of two
        config = config_from_dict(
            "mixed",
            {
                "model": {"N": 4},
                "axis1": {"parameter": "h_x", "start": 0.0, "stop": 1.0, "count": 3},
                "observables": ["metric", "magnetization"],
            },
        )
        records = run_sweep(config)
        assert [r.warnings.get("DegenerateGroundState") for r in records] == [1, None, None]

    def test_worker_cap_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NHMETRIC_MAX_WORKERS", "1")
        config = config_from_dict(
            "gaa1",
            {
                "model": {"L": 34},
                "axis1": {"parameter": "V1", "start": 1.0, "stop": 2.0, "count": 2},
                "observables": ["eta"],
                "workers": 8,
            },
        )
        records = run_sweep(config)  # would spawn a pool without the cap
        assert len(records) == 2


@pytest.fixture
def openblas():
    """Skip where numpy's or scipy's OpenBLAS pool is not found."""
    if None in blas_thread_counts().values():
        pytest.skip("numpy's or scipy's OpenBLAS pool not found")


class TestBlasPolicy:
    CROSS = sweep.BLAS_CROSSOVER_DIM

    @pytest.mark.parametrize(
        "dim,workers,threads",
        [
            (144, 1, 1),  # serial below the crossover: pinned
            (0, 1, 1),  # the cluster chain builds no dense H
            (CROSS - 1, 1, 1),
            (CROSS, 1, None),  # from the crossover on: OpenBLAS's own count
            (2048, 1, None),
            (144, 2, 1),  # every pool worker takes one thread
            (2048, 2, 1),
            (144, 8, 1),
        ],
    )
    def test_rule(self, dim, workers, threads):
        assert sweep._blas_threads_for(dim, workers) == threads

    @pytest.mark.parametrize(
        "kind,model,axis1,dim",
        [
            ("gaa1", {"L": 34}, "V1", 34),
            ("gaa2", {"L": 55}, "Delta", 55),
            ("mixed", {"N": 4}, "h_z", 16),
            ("cluster", {"r_eval": 5}, "lam", 0),
        ],
    )
    def test_dense_dim(self, kind, model, axis1, dim):
        config = config_from_dict(
            kind,
            {
                "model": model,
                "axis1": {"parameter": axis1, "start": 0.5, "stop": 1.5, "count": 2},
                "observables": ["metric"],
            },
        )
        assert sweep._dense_dim(config) == dim

    def test_serial_sweep_pinned_and_caller_counts_restored(self, monkeypatch, openblas):
        seen = []
        evaluate = sweep._evaluate_point

        def recording(config, params):
            seen.append(blas_thread_counts())
            return evaluate(config, params)

        monkeypatch.setattr(sweep, "_evaluate_point", recording)
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

    def test_pool_worker_runs_one_blas_thread(self, monkeypatch, openblas):
        seen = []

        class Probed(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                seen.append(self.submit(blas_thread_counts).result(timeout=120))

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", Probed)
        config = config_from_dict(
            "gaa1",
            {
                "model": {"L": 34},
                "axis1": {"parameter": "V1", "start": 1.0, "stop": 2.0, "count": 2},
                "observables": ["eta"],
                "workers": 2,
            },
        )
        before = blas_thread_counts()
        assert len(run_sweep(config)) == 2
        assert seen == [{"numpy": 1, "scipy": 1}]
        assert blas_thread_counts() == before

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
                sizes=[34, self.CROSS - 1, self.CROSS],
                prominence=0.005,
            )
            assert blas_thread_counts() == {"numpy": 2, "scipy": 2}
        one, two = {"numpy": 1, "scipy": 1}, {"numpy": 2, "scipy": 2}
        assert seen == {34: one, self.CROSS - 1: one, self.CROSS: two}


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

    def test_meta_records_versions_threads_and_workers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NHMETRIC_MAX_WORKERS", "1")
        config = config_from_dict(
            "gaa1",
            {
                "model": {"L": 34},
                "axis1": {"parameter": "V1", "start": 1.0, "stop": 2.0, "count": 2},
                "observables": ["eta"],
                "workers": 8,
            },
        )
        path = tmp_path / "eta.csv"
        export_records(run_sweep(config), "csv", str(path), config)
        meta = json.loads((tmp_path / "eta.csv.meta.json").read_text())
        assert (meta["numpy"], meta["scipy"]) == (np.__version__, scipy.__version__)
        assert meta["workers"] == 1
        # a serial sweep at L = 34 runs with one thread in every pool found
        found = blas_thread_counts()
        assert meta["blas_threads"] == {k: None if n is None else 1 for k, n in found.items()}

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_records([], "csv", str(tmp_path / "x.csv"))


class TestCli:
    def test_sweep_subcommand_end_to_end(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["gaa1", "--config", str(cfg_path)]) == 0
        out = (tmp_path / "out.csv").read_text().strip().split("\n")
        assert out[0] == "V1,g,xi,fidelity,eta,pr,warnings"
        assert len(out) == 8

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
                "--format",
                "json",
            ]
        )
        assert code == 0
        loaded = load_records(str(out2))
        assert len(loaded) == 7
        assert set(loaded[0].values) == {"eta"}

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
            (["fss", "--model", "gaa1", "--sizes", "34,55,89", "--parameter", "V1",
              "--window", "2.5:3.5"], "'V1:2.5:3.5' is not parameter:start:stop:count"),
        ],
        ids=["axis-three-parts", "axis-count-float", "fss-window-two-parts"],
    )
    def test_malformed_axis_message(self, capsys, argv, message):
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config_overrides,flags,max_workers",
        [
            ({"axis1": 5}, [], None),
            ({"axis1": {"parameter": "V1", "start": 0.5, "stop": 3.5, "count": "x"}}, [], None),
            ({}, [], "abc"),
            ({}, ["--metric-step", "nan"], None),
            ({}, ["--axis1", "V1:0.5:inf:5"], None),
            (None, ["--sizes", "34,x"], None),
            (None, ["--set", "V2=abc"], None),
            (None, ["--metric-step", "-1"], None),
            (None, ["--metric-step", "inf"], None),
            (None, ["--window", "2.5:inf:5"], None),
            (None, ["--parameter", "nope"], None),
            (None, ["--sizes", "34,89,2"], None),
            (None, ["--sizes", "34,89,100"], None),
            ({"model": {"L": 34, "V2": "abc"}}, [], None),
            ({"model": {"L": 34.7}}, [], None),
            ({"kind": "mixed", "model": {"N": 4, "h_x": True},
              "axis1": {"parameter": "h_z", "start": 0.5, "stop": 1.5, "count": 3},
              "observables": ["metric"]}, [], None),
            (None, ["--window", "3.3:3.0:7"], None),
            (None, ["--window", "3.0:3.3:3"], None),
            (None, ["--model", "gaa2", "--parameter", "alpha", "--window=-0.5:0.99999:5"], None),
            (None, ["--prominence", "nan"], None),
            (None, ["--prominence", "-0.1"], None),
            (None, ["--prominence", "inf"], None),
            ({"axis2": {"parameter": "V1", "start": 0.0, "stop": 1.0, "count": 2}}, [], None),
            ({"axis1": {"parameter": "V1", "start": 0.5, "stop": 3.5, "count": 7.9}}, [], None),
            ({"axis1": {"parameter": "V1", "start": True, "stop": 3.5, "count": 7}}, [], None),
            ({"workers": 2.5}, [], None),
            ({"workers": True}, [], None),
            ({"metric_step": True}, [], None),
            ({"output": {"path": 7}}, [], None),
            ({"axis1": {"parameter": "V1", "start": 0.5, "stop": 3.5, "count": "7"}}, [], None),
            ({"output": {"format": "CSV"}}, [], None),
            ({"axis2": {}}, [], None),
            ({"axis2": 0}, [], None),
        ],
        ids=["axis1-not-mapping", "count-not-int", "max-workers-env", "metric-step-nan",
             "axis1-stop-inf", "fss-sizes", "fss-set", "fss-metric-step", "fss-metric-step-inf",
             "fss-window-inf", "fss-parameter", "fss-size-too-small", "fss-size-not-fibonacci",
             "float-field-str", "int-field-float", "float-field-bool", "fss-window-reversed",
             "fss-window-too-few-points", "fss-stencil-past-alpha-one", "fss-prominence-nan",
             "fss-prominence-negative", "fss-prominence-inf", "axis2-repeats-axis1",
             "count-float", "start-bool", "workers-float", "workers-bool", "metric-step-bool",
             "output-path-int", "count-str", "format-uppercase", "axis2-empty",
             "axis2-not-mapping"],
    )
    def test_bad_outside_input_exit_code(
        self, tmp_path, monkeypatch, config_overrides, flags, max_workers
    ):
        monkeypatch.setattr(sweep, "_evaluate_point", no_work)
        if max_workers is not None:
            monkeypatch.setenv("NHMETRIC_MAX_WORKERS", max_workers)
        # a valid call up to the one bad flag, which comes last and wins
        if config_overrides is not None:
            overrides = dict(config_overrides)
            kind = overrides.pop("kind", "gaa1")
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(tiny_config(tmp_path, **overrides)))
            argv = [kind, "--config", str(cfg_path), *flags]
        else:
            argv = ["fss", "--model", "gaa1", "--sizes", "34,55,89", "--parameter", "V1",
                    "--window", "2.5:3.5:5", *flags]
        assert main(argv) == 1

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
                "--observables", "pr", "--output", path, "--format", fmt]
        assert main(argv) == 0
        assert "(9 failed points)" in capsys.readouterr().out
        assert main(["peaks", path, "--x", "alpha", "--y", "pr"]) == 0
        assert capsys.readouterr().out == "no peaks found\n"
        assert main(["peaks", path, "--x", "alpha", "--y", "nope"]) == 1

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
