"""The four benchmark workloads: seeded inputs, timed slices and oracles.

Every workload is a fixed-size sweep taken from one of the demos.  The
seed shifts its grid by a seed-derived fraction of one grid step, and the
grid is cut into interleaved slices (slice ``j`` holds points ``j``,
``j + SLICES``, ...), so each slice spans the whole parameter range and
costs about the same.  A slice is the unit the benchmark times.

Each point is checked on its own (analytic boundaries, spectral
identities, the many-spin oracle) and each complete grid is checked as a
whole (metric peak against its reference).  Fixed reference points are
compared with values recorded at the seed commit.  The tolerance of that
comparison, ``REL_TOL``/``ABS_TOL``, admits an analytic metric (<= 3e-7
relative to finite differences), a blocked Pfaffian (pf**2 = det to
~5e-13) and sparse ground states (only phase- and order-free numbers are
compared), and rejects a swapped eigenvector or a flipped sign.

Seed measurements quoted below were taken on a 2-vCPU box (numpy 2.4.6,
scipy 1.17.1, both OpenBLAS pools at 2 threads, one process, workers=1).
"""

from __future__ import annotations

import math
import os
import random
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from nhmetric import cluster_ising, linalg, metric, mixed_ising, quasiperiodic, sweep
from nhmetric.sweep import AxisSpec, SweepConfig, SweepRecord

#: number of interleaved slices a grid is cut into
SLICES = 6

#: reference-value tolerance: |actual - expected| <= ABS_TOL + REL_TOL |expected|
REL_TOL = 1e-5
ABS_TOL = 1e-9

#: eigenvalue sums and ED-vs-Wick correlators must agree to this
EXACT_TOL = 1e-9


@dataclass(frozen=True)
class Slice:
    """One timed unit: ``run()`` evaluates ``points`` grid or oracle points."""

    points: int
    run: Callable[[], list[SweepRecord]]


def _axis(parameter: str, values: list[float]) -> AxisSpec:
    return AxisSpec(parameter=parameter, start=values[0], stop=values[-1], count=len(values))


def _captured(params: dict[str, float], evaluate: Callable[[], dict]) -> SweepRecord:
    """Evaluate one point outside run_sweep with the same isolation contract."""
    record = SweepRecord(params=params)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            record.values.update(evaluate())
        except Exception as exc:  # noqa: BLE001 - a failing point is counted, not fatal
            record.error = f"{type(exc).__name__}: {exc}"
    for w in caught:
        code = w.category.__name__.removesuffix("Warning")
        record.warnings[code] = record.warnings.get(code, 0) + 1
    return record


def _close(actual, expected) -> bool:
    return abs(complex(actual) - complex(expected)) <= ABS_TOL + REL_TOL * abs(complex(expected))


def _metric_problem(values: dict) -> str | None:
    if not (math.isfinite(values["g"]) and values["g"] >= -1e-9):
        return f"metric g = {values['g']!r} is not a finite non-negative number"
    if not 0.5 <= values["fidelity"] <= 1.0 + 1e-12:
        return f"fidelity {values['fidelity']!r} outside [0.5, 1]"
    return None


class Workload:
    """A named sweep with timed slices, per-point and whole-grid oracles."""

    name: str
    #: grid of the swept parameter before the seed shift: linspace(LO, HI, COUNT)
    LO: float
    HI: float
    COUNT: int
    #: unit of peak_err, printed next to it
    peak_unit: str
    #: fixed reference inputs and the values recorded at the seed commit
    REFERENCE: dict

    @property
    def step(self) -> float:
        return (self.HI - self.LO) / (self.COUNT - 1)

    def grid(self, seed: int) -> list[float]:
        """The grid shifted by a seed-derived fraction of one step."""
        frac = random.Random(f"{self.name}:{seed}").random()
        return [self.LO + (i + frac) * self.step for i in range(self.COUNT)]

    def slices(self, seed: int, outdir: str) -> list[Slice]:
        raise NotImplementedError

    def check_point(self, record: SweepRecord) -> str | None:
        """Why the point is wrong, or None."""
        raise NotImplementedError

    def check_grid(self, records: list[SweepRecord]) -> tuple[float, str | None]:
        """(peak_err, why the complete grid is wrong or None)."""
        raise NotImplementedError

    def reference(self) -> list[SweepRecord]:
        """Evaluate the fixed reference points."""
        raise NotImplementedError

    def view(self, record: SweepRecord) -> dict[str, complex]:
        """The phase- and order-free numbers compared with REFERENCE."""
        raise NotImplementedError

    def warm_up(self, seed: int) -> None:
        """What a fresh process does before its first point is ready."""
        raise NotImplementedError

    def check_reference(self, records: list[SweepRecord]) -> list[str | None]:
        """Per reference record: its mismatch with the recorded values, or None."""
        out = []
        for record, expected in zip(records, self.REFERENCE["values"]):
            if record.error is not None:
                out.append(record.error)
                continue
            seen = self.view(record)
            bad = [
                f"{key}: {seen[key]!r} != recorded {want!r}"
                for key, want in expected.items()
                if not _close(seen[key], want)
            ]
            out.append("; ".join(bad) or None)
        return out


# ---------------------------------------------------------------------------
# gaa1_sweep
# ---------------------------------------------------------------------------


class Gaa1Sweep(Workload):
    """run_sweep on model 1: L=144, V2=0.5, g=0.5, V1 in [0.5, 5.0], 60 points.

    Why: small non-Hermitian matrices take the general ``eig`` path, three
    ``eig_right`` calls per point (two for the metric, one shared by eta).
    Eig time and BLAS-thread overhead dominate, so a BLAS-thread policy or
    a one-eig analytic metric shows here.  No Pfaffians, no match_states.
    Each slice also exports its records to CSV.

    Seed measurement: 61 points in 5.5-6.2 s over 5 runs; 2.4 s with one
    BLAS thread.  The ROADMAP Baseline has 151 points in 15.5 s (workers=1)
    and 43.8 s (workers=2) from single runs; five workers=2 runs of 61
    points here took 9.7-49.7 s against 1.5-1.7 s with one BLAS thread, so
    the pool figure is not reproducible and ``sweep.pool_speedup`` stays an
    ungated layer metric.
    """

    name = "gaa1_sweep"
    LO, HI, COUNT = 0.5, 5.0, 60
    peak_unit = "V1"
    MODEL = {"L": 144, "V2": 0.5, "g": 0.5}
    V1C = quasiperiodic.gaa1_critical_v1(1.0, 0.5, 0.5, 0.0)
    #: the eta crossover is judged only this far from the analytic V1c
    ETA_MARGIN = 0.4
    REFERENCE = {
        "V1": (2.0, 4.0),
        "values": [
            {"g": 0.11497620636654352, "eta": 0.8793768257226245},
            {"g": 0.019838242161103425, "eta": 0.039732345009074445},
        ],
    }

    def config(self, values: list[float], workers: int = 1) -> SweepConfig:
        return SweepConfig(
            kind="gaa1",
            model=dict(self.MODEL),
            axis1=_axis("V1", values),
            axis2=None,
            observables=("metric", "eta"),
            workers=workers,
        )

    def slices(self, seed, outdir):
        grid = self.grid(seed)

        def runner(cfg: SweepConfig, path: str) -> Callable[[], list[SweepRecord]]:
            def run() -> list[SweepRecord]:
                records = sweep.run_sweep(cfg)
                sweep.export_records(records, "csv", path, cfg)
                return records

            return run

        return [
            Slice(
                len(grid[j::SLICES]),
                runner(self.config(grid[j::SLICES]), os.path.join(outdir, f"{self.name}_{j}.csv")),
            )
            for j in range(SLICES)
        ]

    def check_point(self, record):
        if record.error is not None:
            return record.error
        problem = _metric_problem(record.values)
        if problem:
            return problem
        eta, v1 = record.values["eta"], record.params["V1"]
        if not 0.0 <= eta <= 1.0:
            return f"eta {eta!r} outside [0, 1]"
        if v1 < self.V1C - self.ETA_MARGIN and eta <= 0.5:
            return f"eta {eta:.3f} localized below V1c={self.V1C:.3f} at V1={v1:.3f}"
        if v1 > self.V1C + self.ETA_MARGIN and eta >= 0.5:
            return f"eta {eta:.3f} extended above V1c={self.V1C:.3f} at V1={v1:.3f}"
        return None

    def check_grid(self, records):
        records = sorted(records, key=lambda r: r.params["V1"])
        x = np.array([r.params["V1"] for r in records])
        xi = np.array([r.values["xi"] for r in records])
        peaks = sweep.detect_peaks(x, xi, prominence_threshold=0.5)
        if not peaks:
            return math.inf, "no metric peak"
        err = abs(max(peaks, key=lambda p: p.height).value - self.V1C)
        return err, (None if err <= 2 * self.step else f"metric peak {err:.3f} from V1c")

    def reference(self):
        return sweep.run_sweep(self.config(list(self.REFERENCE["V1"])))

    def view(self, record):
        return {"g": record.values["g"], "eta": record.values["eta"]}

    def warm_up(self, seed):
        grid = self.grid(seed)
        cfg = sweep.validate_config(self.config(grid[::SLICES]))
        linalg.eig_right(quasiperiodic.Gaa1Spec(**cfg.model, V1=grid[0]).build())


# ---------------------------------------------------------------------------
# gaa2_spectrum
# ---------------------------------------------------------------------------

GAA2_L = 377
GAA2_ALPHA = -0.5


def gaa2_point(delta: float) -> SweepRecord:
    """One point of the mobility_edge.py loop: whole-spectrum metric, eig, PR."""

    def evaluate() -> dict:
        spec = quasiperiodic.Gaa2Spec(L=GAA2_L, Delta=delta, alpha=GAA2_ALPHA)
        values = metric.metric_spectrum(metric.MetricRequest(model=spec, parameter="Delta"))
        system = linalg.eig_right(spec.build())
        pr = [quasiperiodic.participation_ratio(system.vectors[:, n]) for n in range(GAA2_L)]
        return {
            "g": np.array([mv.g for mv in values]),
            "fidelity": min(mv.fidelity for mv in values),
            "E": system.eigenvalues.copy(),
            "pr": np.array(pr),
        }

    return _captured({"Delta": delta}, evaluate)


class Gaa2Spectrum(Workload):
    """The mobility_edge.py loop: L=377, alpha=-0.5, Delta in [0.6, 3.4], 36 points.

    Why: ``eig_right`` takes the Hermitian ``eigh`` path on a larger
    matrix, where BLAS threads may help rather than hurt, and every point
    adds a whole-spectrum ``match_states`` (10-40 ms a call against ~34 ms
    for the eig).  A thread pin or metric change that slows this case
    shows here.

    Seed measurement: 36 points in 6.4-6.9 s.  The ROADMAP Baseline row
    ``metric_spectrum`` (142 ms at L=377) is a single run of the metric
    alone; here a whole point (metric_spectrum, eig, 377 PRs) takes
    ~190 ms.
    """

    name = "gaa2_spectrum"
    LO, HI, COUNT = 0.6, 3.4, 36
    peak_unit = "E"
    #: PR separating localized from extended states, judged this far from E_c
    PR_SPLIT = 0.05
    EDGE_MARGIN = 0.5
    #: bound on the median |Re E - E_c| over per-state interior metric peaks
    PEAK_TOL = 0.2
    REFERENCE = {
        "Delta": (1.0, 2.5),
        "values": [
            {
                "g[0]": 0.8207762264478037,
                "g[1]": 0.8243484356576084,
                "g[188]": 0.2186034243707533,
                "E[0]": -2.728313002905736,
                "E[188]": -0.20857571624713528,
                "E[376]": 1.8934973564969357,
                "pr[0]": 0.00502159522735611,
            },
            {
                "g[0]": 0.008127121198407673,
                "g[1]": 0.00812911959985208,
                "g[188]": 0.22780224386493253,
                "E[0]": -5.310228683261289,
                "E[188]": -0.23308349707752196,
                "E[376]": 2.2219793665743937,
                "pr[0]": 0.0029239050518586034,
            },
        ],
    }

    def slices(self, seed, outdir):
        grid = self.grid(seed)

        def runner(part: list[float]) -> Callable[[], list[SweepRecord]]:
            return lambda: [gaa2_point(d) for d in part]

        return [Slice(len(grid[j::SLICES]), runner(grid[j::SLICES])) for j in range(SLICES)]

    def check_point(self, record):
        if record.error is not None:
            return record.error
        v = record.values
        if not np.all(np.isfinite(v["g"])) or np.min(v["g"]) < -1e-9:
            return "metric spectrum holds a negative or non-finite value"
        if not 0.5 <= v["fidelity"] <= 1.0 + 1e-12:
            return f"minimum fidelity {v['fidelity']!r} outside [0.5, 1]"
        E = v["E"]
        if np.max(np.abs(E.imag)) > EXACT_TOL:
            return "Hermitian chain returned complex eigenvalues"
        ec = quasiperiodic.gaa2_mobility_edge(1.0, record.params["Delta"], GAA2_ALPHA)
        below = v["pr"][E.real < ec - self.EDGE_MARGIN]
        above = v["pr"][E.real > ec + self.EDGE_MARGIN]
        if below.size and below.max() >= self.PR_SPLIT:
            return f"extended state below the mobility edge E_c={ec:.3f}"
        if above.size and above.min() <= self.PR_SPLIT:
            return f"localized state above the mobility edge E_c={ec:.3f}"
        return None

    def check_grid(self, records):
        records = sorted(records, key=lambda r: r.params["Delta"])
        g = np.array([r.values["g"] for r in records])
        errs = []
        for n in range(g.shape[1]):
            i = int(np.argmax(g[:, n]))
            if 0 < i < len(records) - 1:
                ec = quasiperiodic.gaa2_mobility_edge(1.0, records[i].params["Delta"], GAA2_ALPHA)
                errs.append(abs(records[i].values["E"][n].real - ec))
        if len(errs) < g.shape[1] // 2:
            return math.inf, f"only {len(errs)} states peak inside the window"
        median = float(np.median(errs))
        problem = None if median <= self.PEAK_TOL else f"median edge error {median:.3f}"
        return float(np.mean(errs)), problem

    def reference(self):
        return [gaa2_point(d) for d in self.REFERENCE["Delta"]]

    def view(self, record):
        v = record.values
        out = {f"g[{n}]": v["g"][n] for n in (0, 1, 188)}
        out.update({f"E[{n}]": v["E"][n].real for n in (0, 188, 376)})
        out["pr[0]"] = v["pr"][0]
        return out

    def warm_up(self, seed):
        spec = quasiperiodic.Gaa2Spec(L=GAA2_L, Delta=self.grid(seed)[0], alpha=GAA2_ALPHA)
        linalg.eig_right(spec.build())


# ---------------------------------------------------------------------------
# cluster_order
# ---------------------------------------------------------------------------


class ClusterOrder(Workload):
    """run_sweep on the cluster chain: r_eval=200, lam in [0.1, 2.0] (12) x Gamma {0, 0.5}.

    Why: every Gamma=0.5 point runs 6 ``pfaffian`` calls on n~400 Wick
    matrices; Gamma=0 points take the Hermitian determinant path with no
    Pfaffian.  Both sides of a Pfaffian change sit in one workload, and no
    ``eig_right`` call is made.  12 lam values (not the seed's 20) keep one
    full pass near 11 s.

    Seed measurement: 40 points (20 lam x 2 Gamma) in 15.8-17.9 s, with
    one ``ModeSingular`` warning.  The ROADMAP Baseline times
    ``order_parameters`` at r_eval=400 (8.5 s per point); at r_eval=200 a
    Gamma=0.5 point takes ~0.7 s.
    """

    name = "cluster_order"
    LO, HI, COUNT = 0.1, 2.0, 12
    peak_unit = "lam"
    MODEL = {"r_eval": 200}
    GAMMA = (0.0, 0.5)
    #: order-parameter phases are judged this far from lam = 1
    PHASE_MARGIN = 0.15
    ORDER_SPLIT = 0.05
    #: the reference points take the same Pfaffian path at a quarter of the size
    REFERENCE = {
        "lam": (0.5, 1.5),
        "Gamma": 0.5,
        "r_eval": 50,
        "values": [
            {
                "g": 697.171257370234,
                "delta_R": 0.9761371013299773,
                "Ox": -0.7939997089418498,
                "my": 3.782989513843797e-05,
                "dOx_dlam": 0.8288337763853737,
            },
            {
                "g": 193.4676275034806,
                "delta_R": 0.9763160423193611,
                "Ox": -6.01364268005666e-07,
                "my": 0.798750713832795,
                "dOx_dlam": 7.855724858401313e-06,
            },
        ],
    }

    def config(self, lam_values: list[float]) -> SweepConfig:
        return SweepConfig(
            kind="cluster",
            model=dict(self.MODEL),
            axis1=_axis("lam", lam_values),
            axis2=AxisSpec(parameter="Gamma", start=self.GAMMA[0], stop=self.GAMMA[1], count=2),
            observables=("metric", "gaps", "order_params"),
        )

    def slices(self, seed, outdir):
        grid = self.grid(seed)

        def runner(cfg: SweepConfig) -> Callable[[], list[SweepRecord]]:
            return lambda: sweep.run_sweep(cfg)

        return [
            Slice(2 * len(grid[j::SLICES]), runner(self.config(grid[j::SLICES])))
            for j in range(SLICES)
        ]

    def check_point(self, record):
        if record.error is not None:
            return record.error
        v, lam, gamma = record.values, record.params["lam"], record.params["Gamma"]
        if not (math.isfinite(v["g"]) and v["g"] >= -1e-9):
            return f"metric g = {v['g']!r} is not a finite non-negative number"
        if v["delta_R"] < 0 or v["delta_I"] < 0:
            return "negative gap"
        if gamma == 0.0 and v["delta_I"] > EXACT_TOL:
            return f"Hermitian chain has an imaginary gap {v['delta_I']!r}"
        ox, my = abs(v["Ox"]), v["my"]
        if ox > 1.0 + 1e-9 or not 0.0 <= my <= 1.0 + 1e-9:
            return f"order parameters out of range: |Ox|={ox!r}, my={my!r}"
        if lam < 1.0 - self.PHASE_MARGIN and not ox > self.ORDER_SPLIT > my:
            return f"no string order at lam={lam:.3f}: |Ox|={ox:.3g}, my={my:.3g}"
        if lam > 1.0 + self.PHASE_MARGIN and not my > self.ORDER_SPLIT > ox:
            return f"no antiferromagnetic order at lam={lam:.3f}: |Ox|={ox:.3g}, my={my:.3g}"
        return None

    def check_grid(self, records):
        worst = 0.0
        for gamma in self.GAMMA:
            rows = sorted(
                (r for r in records if r.params["Gamma"] == gamma), key=lambda r: r.params["lam"]
            )
            lam = [r.params["lam"] for r in rows]
            xi_peak = lam[int(np.argmax([r.values["xi"] for r in rows]))]
            d_peak = lam[int(np.argmax([abs(r.values["dOx_dlam"]) for r in rows]))]
            worst = max(worst, abs(xi_peak - d_peak))
        ok = worst <= self.step + 1e-9
        return worst, (None if ok else f"metric and |dOx/dlam| peaks {worst:.3f} apart")

    def reference(self):
        cfg = SweepConfig(
            kind="cluster",
            model={"r_eval": self.REFERENCE["r_eval"], "Gamma": self.REFERENCE["Gamma"]},
            axis1=_axis("lam", list(self.REFERENCE["lam"])),
            axis2=None,
            observables=("metric", "gaps", "order_params"),
        )
        return sweep.run_sweep(cfg)

    def view(self, record):
        return {k: record.values[k] for k in ("g", "delta_R", "Ox", "my", "dOx_dlam")}

    def warm_up(self, seed):
        grid = self.grid(seed)
        sweep.validate_config(self.config(grid[::SLICES]))
        spec = cluster_ising.ClusterSpec(lam=grid[0], Gamma=self.GAMMA[1], **self.MODEL)
        cluster_ising.correlator_elements(spec, r_max=spec.r_eval + 1)


# ---------------------------------------------------------------------------
# spin_ed
# ---------------------------------------------------------------------------

ED_N = 8


def ed_point(lam: float, gamma: float) -> SweepRecord:
    """Many-spin ED of the cluster chain: r=1 correlators of its even-parity ground state."""

    def evaluate() -> dict:
        oracle = cluster_ising.ed_oracle(ED_N, lam, gamma)
        return {"ryy_r1": oracle.ryy_r1, "string_r1": oracle.string_r1, "energy": oracle.energy}

    return _captured({"lam": lam, "Gamma": gamma}, evaluate)


def wick_r1(lam: float, gamma: float) -> tuple[complex, complex]:
    """The same r=1 correlators from the Wick/Pfaffian path of an ED_N-site chain."""
    spec = cluster_ising.ClusterSpec(lam=lam, Gamma=gamma, n_modes=ED_N // 2)
    table = cluster_ising.correlator_elements(spec, r_max=2, nodes=ED_N // 2)
    return cluster_ising.two_spin_correlation(table, 1), cluster_ising.string_correlation(table, 1)


class SpinEd(Workload):
    """run_sweep on the mixed chain (N=8, h_x=3, pbc, h_z in [0.1, 1.6], 24 points)
    plus one ``ed_oracle(N=8)`` point per slice.

    Why: dense 2^N complex ED and the Kronecker ``site_operator`` builder,
    the layers a sparse Pauli-string builder would replace.  N stays at 8:
    N=9 and N=10 spread 13-38% over 3-4 seed runs, and N=12 takes minutes
    per point.  24 h_z values (not the seed's 31) keep one pass near 10 s.

    Seed measurement: 31 points in 10.6-11.4 s.  The ROADMAP Baseline row
    for the mixed metric (0.26 s at N=8) is a single run of the metric
    alone; here a sweep point (metric, magnetization, spectrum: 3 eigs)
    takes ~0.37 s.
    """

    name = "spin_ed"
    LO, HI, COUNT = 0.1, 1.6, 24
    peak_unit = "h_z"
    MODEL = {"N": 8, "h_x": 3.0, "bc": "pbc"}
    #: ED oracle inputs are drawn from these ranges
    LAM_RANGE = (0.2, 1.8)
    GAMMA_RANGE = (0.0, 1.0)
    REFERENCE = {
        "h_z": (0.5, 1.2),
        "ed": (0.5, 1.0),
        "values": [
            {"g": 0.921244926911463, "Mz": 0.0, "E0.re": -23.898211037998003, "|E0.im|": 0.0},
            {
                "g": 0.8863207076813915,
                "Mz": 0.26337805816494253,
                "E0.re": -19.367708635403787,
                "|E0.im|": 2.5284293583834234,
            },
            {
                "ryy_r1": -0.2669440157468872,
                "string_r1": 0.07910883444071143,
                "E0.re": -8.394163627088034,
                "|E0.im|": 2.170953555369151,
            },
        ],
    }

    def config(self, values: list[float]) -> SweepConfig:
        return SweepConfig(
            kind="mixed",
            model=dict(self.MODEL),
            axis1=_axis("h_z", values),
            axis2=None,
            observables=("metric", "magnetization", "spectrum"),
        )

    def ed_inputs(self, seed: int) -> list[tuple[float, float]]:
        rng = random.Random(f"{self.name}:ed:{seed}")
        return [(rng.uniform(*self.LAM_RANGE), rng.uniform(*self.GAMMA_RANGE)) for _ in range(SLICES)]

    def slices(self, seed, outdir):
        grid = self.grid(seed)

        def runner(cfg: SweepConfig, ed: tuple[float, float]) -> Callable[[], list[SweepRecord]]:
            return lambda: sweep.run_sweep(cfg) + [ed_point(*ed)]

        return [
            Slice(len(grid[j::SLICES]) + 1, runner(self.config(grid[j::SLICES]), ed))
            for j, ed in enumerate(self.ed_inputs(seed))
        ]

    def check_point(self, record):
        if record.error is not None:
            return record.error
        v = record.values
        if "ryy_r1" in v:
            ryy, string = wick_r1(record.params["lam"], record.params["Gamma"])
            if abs(v["ryy_r1"] - ryy) > EXACT_TOL:
                return "ED and Wick r=1 two-spin correlations differ"
            # the string Pfaffian carries an overall sign against the operator product
            if abs(v["string_r1"] + string) > EXACT_TOL:
                return "ED and Wick r=1 string correlations differ"
            return None
        problem = _metric_problem(v)
        if problem:
            return problem
        if abs(v["Mz"]) > 1.0 + 1e-9:
            return f"|Mz| = {abs(v['Mz'])!r} exceeds 1"
        E = v["spectrum"]
        if abs(E.sum()) > EXACT_TOL * len(E):
            return "eigenvalues do not sum to the (zero) trace"
        if np.max(np.min(np.abs(E[:, None] - E.conj()[None, :]), axis=1)) > 1e-7:
            return "spectrum is not closed under complex conjugation"
        return None

    def check_grid(self, records):
        rows = sorted((r for r in records if "h_z" in r.params), key=lambda r: r.params["h_z"])
        h_z = [r.params["h_z"] for r in rows]
        complex_at = [i for i, r in enumerate(rows) if abs(r.values["spectrum"][0].imag) > 1e-6]
        if not complex_at or complex_at[0] == 0:
            return math.inf, "no onset of Im E0 inside the window"
        onset = 0.5 * (h_z[complex_at[0] - 1] + h_z[complex_at[0]])
        err = abs(h_z[int(np.argmax([r.values["xi"] for r in rows]))] - onset)
        return err, (None if err <= 1.5 * self.step else f"metric peak {err:.3f} from Im E0 onset")

    def reference(self):
        records = sweep.run_sweep(self.config(list(self.REFERENCE["h_z"])))
        return records + [ed_point(*self.REFERENCE["ed"])]

    def view(self, record):
        v = record.values
        # a conjugate pair ties in Re E, so which one sorts first is rounding
        if "ryy_r1" in v:
            e0 = v["energy"]
            return {"ryy_r1": v["ryy_r1"], "string_r1": v["string_r1"], "E0.re": e0.real, "|E0.im|": abs(e0.imag)}
        e0 = v["spectrum"][0]
        return {"g": v["g"], "Mz": v["Mz"], "E0.re": e0.real, "|E0.im|": abs(e0.imag)}

    def warm_up(self, seed):
        grid = self.grid(seed)
        sweep.validate_config(self.config(grid[::SLICES]))
        spec = mixed_ising.MixedSpec(h_z=grid[0], **self.MODEL)
        linalg.eig_right(spec.build())


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (Gaa1Sweep(), Gaa2Spectrum(), ClusterOrder(), SpinEd())
}
