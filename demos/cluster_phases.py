#!/usr/bin/env python3
"""Phases of the cluster Ising chain: gaps, order parameters, metric peaks.

Walks the Ising coupling at fixed gain/loss, printing the complex gap
components, the string and antiferromagnetic order parameters with their
derivatives, and the ground-state metric.  The non-analytic points of
the derivatives and the metric peaks mark the same critical couplings.
The last column counts the sweep's warnings at each point.

Run:  python3 demos/cluster_phases.py [--gamma 0.0] [--r-eval 400]
"""

import argparse

import numpy as np

from nhmetric import AxisSpec, SweepConfig, run_sweep


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--gamma", type=float, default=0.0)
    parser.add_argument("--r-eval", type=int, default=400)
    parser.add_argument("--lam-max", type=float, default=2.0)
    args = parser.parse_args()

    grid = np.arange(0.1, args.lam_max + 1e-9, 0.05)
    config = SweepConfig(
        kind="cluster",
        model={"Gamma": args.gamma, "r_eval": args.r_eval},
        axis1=AxisSpec(parameter="lam", start=0.1, stop=float(grid[-1]), count=len(grid)),
        axis2=None,
        observables=("metric", "gaps", "order_params"),
    )
    records = run_sweep(config)

    print(f"Gamma = {args.gamma}, r_eval = {args.r_eval}")
    print("  lam    dR      dI      |Ox|    my      dOx/dlam   dmy/dlam   xi(lam)   warnings")
    for rec in records:
        v = rec.values
        warned = ";".join(f"{code}:{n}" for code, n in sorted(rec.warnings.items()))
        print(
            f"  {rec.params['lam']:4.2f}  {v['delta_R']:6.3f}  {v['delta_I']:6.3f}  "
            f"{abs(v['Ox']):6.3f}  {v['my']:6.3f}  {v['dOx_dlam'].real:+9.3f}  "
            f"{v['dmy_dlam']:+9.3f}  {v['xi']:7.3f}   {warned}"
        )

    lam = [rec.params["lam"] for rec in records]
    xi = [rec.values["xi"] for rec in records]
    d_ox = [abs(rec.values["dOx_dlam"]) for rec in records]
    d_my = [abs(rec.values["dmy_dlam"]) for rec in records]
    print(f"\nmetric peak:          lam = {lam[int(np.argmax(xi))]:.3f}")
    print(f"|dOx/dlam| peak:      lam = {lam[int(np.argmax(d_ox))]:.3f}")
    print(f"|dmy/dlam| peak:      lam = {lam[int(np.argmax(d_my))]:.3f}")


if __name__ == "__main__":
    main()
