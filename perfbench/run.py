#!/usr/bin/env python3
"""Benchmark of nhmetric: four demo sweeps timed end to end, and a traced run per layer.

Run from the repository root:

    python3 perfbench/run.py --workload gaa1_sweep --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 18 --trace 0

``--trace 0`` times slices of the workload's grid in one serial process
(workers=1, BLAS threads as the machine sets them) for ``--seconds`` and
reports the end-to-end metrics named in BENCHMARK.json.  ``--trace 1``
runs one untraced pass, then wraps the package's layer functions and
runs traced slices for ``--seconds``, and reports the per-layer metrics;
its spans go to ``.perfbench_out/``.  Every point is checked by the
workload's oracles.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every check passes, 1 when an oracle fails, 2 when
the package source is not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("gaa1_sweep", "gaa2_spectrum", "cluster_order", "spin_ed")

#: fresh interpreters started per run to measure setup_s
SETUP_RUNS = 3
#: the sweep's process-pool size; 1 keeps the run serial
WORKERS = 1


def timed_slices(slices, seconds: float, min_runs: int):
    """Run slices round-robin until ``seconds`` pass and ``min_runs`` are done.

    Returns one (slice index, points, wall s, cpu s, records) per slice run.
    """
    runs = []
    deadline = time.perf_counter() + seconds
    while len(runs) < min_runs or time.perf_counter() < deadline:
        j = len(runs) % len(slices)
        wall, cpu = time.perf_counter(), time.process_time()
        records = slices[j].run()
        runs.append((j, slices[j].points, time.perf_counter() - wall, time.process_time() - cpu, records))
    return runs


def setup_seconds(workload: str, seed: int) -> float:
    """Median time from spawning an interpreter to its first point being ready."""
    times = []
    for _ in range(SETUP_RUNS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


def check(workload, first_pass, records, reference) -> tuple[int, int, float, list[str]]:
    """(attempted, failed, peak_err, problems) over every evaluated point."""
    problems = []
    failed = 0
    for record in records:
        reason = workload.check_point(record)
        if reason:
            failed += 1
            problems.append(f"{record.params}: {reason}")
    for record, reason in zip(reference, workload.check_reference(reference)):
        if reason:
            failed += 1
            problems.append(f"reference {record.params}: {reason}")
    peak_err, reason = workload.check_grid(first_pass)
    if reason:
        problems.append(f"grid: {reason}")
    return len(records) + len(reference), failed, peak_err, problems


def flatten(runs) -> list:
    return [record for run in runs for record in run[4]]


def run_untraced(workload, seed: int, seconds: float):
    setup = setup_seconds(workload.name, seed)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        slices = workload.slices(seed, tmp)
        runs = timed_slices(slices, seconds, len(slices))
    metrics = {
        "points_per_s": statistics.median(points / wall for _, points, wall, _, _ in runs),
        "cpu_ms_per_point": statistics.median(1e3 * cpu / points for _, points, _, cpu, _ in runs),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, runs[: len(slices)], flatten(runs), {"slice_runs": len(runs)}


def pool_speedup(seed: int) -> float:
    """workers=1 wall time over workers=2 wall time on one gaa1_sweep slice."""
    import workloads
    from nhmetric import sweep

    gaa1 = workloads.WORKLOADS["gaa1_sweep"]
    values = gaa1.grid(seed)[:: workloads.SLICES]
    walls = []
    for workers in (1, 2):
        start = time.perf_counter()
        sweep.run_sweep(gaa1.config(values, workers=workers))
        walls.append(time.perf_counter() - start)
    return walls[0] / walls[1]


def run_traced(workload, seed: int, seconds: float, context: dict):
    import tracing
    import workloads

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        slices = workload.slices(seed, tmp)
        plain = timed_slices(slices, 0.0, len(slices))
        tracer = tracing.Tracer()
        tracer.install(
            tracing.PACKAGE_TARGETS
            + (
                tracing.Target(workloads, "gaa2_point", is_point=True),
                tracing.Target(workloads, "ed_point", is_point=True),
            )
        )
        try:
            traced = timed_slices(slices, seconds, len(slices))
        finally:
            tracer.uninstall()
    records = flatten(traced)
    metrics = tracing.layer_metrics(tracer.spans, records)
    metrics["sweep.pool_speedup"] = pool_speedup(seed)
    untraced_wall = sum(plain[j][2] for j, *_ in traced)
    metrics["trace.overhead_frac"] = sum(run[2] for run in traced) / untraced_wall - 1.0

    path = OUT / f"trace_{workload.name}_seed{seed}.json"
    payload = {
        "context": context,
        "warnings": {code: int(metrics[f"sweep.warnings.{code}"]) for code in tracing.WARNING_CODES},
        "spans": [[s.name, s.start, s.end, s.parent, s.point, s.attrs] for s in tracer.spans],
    }
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return metrics, plain, flatten(plain) + records, {"slice_runs": len(traced), "trace_file": str(path)}


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import machine
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        workload.warm_up(args.seed)
        print(time.monotonic())
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    context = machine.context(workload.name, args.seed, WORKERS)
    OUT.mkdir(exist_ok=True)
    if args.trace:
        metrics, first_pass, records, info = run_traced(workload, args.seed, args.seconds, context)
    else:
        metrics, first_pass, records, info = run_untraced(workload, args.seed, args.seconds)
    attempted, failed, peak_err, problems = check(workload, flatten(first_pass), records, workload.reference())

    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  {info}")
    print("why: " + next(w["why"] for w in spec["workloads"] if w["name"] == workload.name))
    print("context " + json.dumps(context))
    for m in wanted:
        print(f"  {m['name']:<48} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<48} {failed / attempted:>14.6g} ratio ({failed}/{attempted} points)")
    print(f"  {'peak_err':<48} {peak_err:>14.6g} {workload.peak_unit}")
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; one combined JSON line at the end."""
    status, total = 0, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = max(status, done.returncode)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            total["correct"] = False
            continue
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "nhmetric" / "__init__.py").is_file():
        print(f"nhmetric source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
