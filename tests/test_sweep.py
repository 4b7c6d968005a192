"""Sweeps, peak detection, scaling fits, export and the CLI surface."""

import json
import os
from dataclasses import dataclass

import numpy as np
import pytest

from nhmetric.cli import main
from nhmetric.errors import (
    ConfigInvalidError,
    PeakNotFoundError,
    SeriesTooShortError,
)
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
    def test_planted_line_recovered_exactly(self):
        # pure plumbing check: the evaluation seam returns a curve whose
        # peak height is exactly 2 log10 L
        def xi_of(model):
            return 2.0 * np.log10(model.L) - (model.mu - 1.0) ** 2

        result = finite_size_scaling(
            PlantedPeakModel(L=8, mu=1.0),
            sizes=[8, 32, 128],
            parameter="mu",
            window=(0.9, 1.1, 21),
            prominence=0.005,
            xi_of=xi_of,
        )
        assert result.fit.slope == pytest.approx(2.0, abs=1e-10)
        assert result.fit.rms_residual < 1e-10
        assert result.critical_value == pytest.approx(1.0, abs=1e-12)

    def test_planted_power_law_through_real_metric(self):
        # end to end through eig_right + the finite-difference metric; the
        # symmetric stencil carries an O((L d)^2 / 6) logarithmic
        # correction, hence the looser tolerance
        result = finite_size_scaling(
            PlantedPeakModel(L=8, mu=1.0),
            sizes=[8, 32, 128],
            parameter="mu",
            window=(0.9, 1.1, 21),
            prominence=0.1,
        )
        assert result.fit.slope == pytest.approx(2.0, abs=1e-4)
        assert result.fit.rms_residual < 1e-4
        for L, peak in result.peaks.items():
            assert peak.value == pytest.approx(1.0, abs=1e-6)

    def test_peak_not_found_carries_partial(self):
        with pytest.raises(PeakNotFoundError) as info:
            finite_size_scaling(
                PlantedPeakModel(L=8, mu=1.0),
                sizes=[8, 32, 128],
                parameter="mu",
                window=(3.0, 4.0, 11),  # far away from the peak
                prominence=0.1,
            )
        assert info.value.partial == {}

    def test_fibonacci_requirement_for_periodic_chains(self):
        from nhmetric.quasiperiodic import Gaa1Spec

        with pytest.raises(ValueError, match="Fibonacci"):
            finite_size_scaling(
                Gaa1Spec(L=34, V2=0.5, g=0.5),
                sizes=[34, 100, 144],
                parameter="V1",
                window=(3.0, 3.3, 7),
            )


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
            ("cluster", {"lam": 0.5}, ("Gamma", 0.0, 1.0), ["metric", "gaps"], "Gamma must be >="),
            ("gaa1", {"L": 34}, ("zeta", 0.5, 1.0), ["metric"], "zeta must lie in"),
        ],
        ids=["integer-L", "integer-r_eval", "cluster-metric-along-J",
             "stencil-below-Gamma-0", "stencil-above-zeta-1"],
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
            "mixed",
            {
                "model": {"N": 4, "h_x": 2.0},
                "axis1": {"parameter": "h_z", "start": 0.2, "stop": 0.6, "count": 2},
                "observables": ["magnetization"],
            },
        )
        records = run_sweep(config)
        path = tmp_path / "mz.csv"
        export_records(records, "csv", str(path), config)
        header = path.read_text().split("\n")[0]
        assert header == "h_z,Mz_re,Mz_im,warnings"

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
        "config_overrides,fss_flags,max_workers",
        [
            ({"axis1": 5}, None, None),
            ({"axis1": {"parameter": "V1", "start": 0.5, "stop": 3.5, "count": "x"}}, None, None),
            ({}, None, "abc"),
            (None, ["--sizes", "34,x"], None),
            (None, ["--set", "V2=abc"], None),
            (None, ["--metric-step", "-1"], None),
            (None, ["--parameter", "nope"], None),
        ],
        ids=["axis1-not-mapping", "count-not-int", "max-workers-env", "fss-sizes",
             "fss-set", "fss-metric-step", "fss-parameter"],
    )
    def test_bad_outside_input_exit_code(
        self, tmp_path, monkeypatch, config_overrides, fss_flags, max_workers
    ):
        if max_workers is not None:
            monkeypatch.setenv("NHMETRIC_MAX_WORKERS", max_workers)
        if fss_flags is None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(tiny_config(tmp_path, **config_overrides)))
            argv = ["gaa1", "--config", str(cfg_path)]
        else:
            # a valid fss call up to the one bad flag, which comes last and wins
            argv = ["fss", "--model", "gaa1", "--sizes", "34,55,89", "--parameter", "V1",
                    "--window", "2.5:3.5:5", "--set", "V2=0.5", *fss_flags]
        assert main(argv) == 1

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
