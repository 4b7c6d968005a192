#!/usr/bin/env python3
"""PT-breaking transition of the mixed-field Ising chain.

At fixed transverse field the imaginary longitudinal field drives the
chain from a paramagnet with real ground energy into a ferromagnet with
complex ground energy.  The magnetization onset, the real-to-complex
energy transition and the metric peak all land on the same coupling.
The last column counts the sweep's warnings at each point; in the
ferromagnet the ground state is one of a conjugate pair tied in Re E.

Run:  python3 demos/mixed_field_chain.py [--spins 8] [--bc pbc]
"""

import argparse

import numpy as np

from nhmetric import AxisSpec, SweepConfig, run_sweep


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--spins",
        type=int,
        default=8,
        help="chain length N: up to 14 periodic (by momentum block), 12 open (dense 2^N)",
    )
    parser.add_argument("--h-x", type=float, default=3.0)
    parser.add_argument("--bc", choices=("pbc", "obc"), default="pbc")
    args = parser.parse_args()

    config = SweepConfig(
        kind="mixed",
        model={"N": args.spins, "h_x": args.h_x, "bc": args.bc},
        axis1=AxisSpec(parameter="h_z", start=0.1, stop=1.6, count=31),
        axis2=None,
        observables=("metric", "magnetization", "spectrum"),
    )
    records = run_sweep(config)

    print(f"N = {args.spins}, h_x = {args.h_x}, {args.bc}")
    print("  h_z     |M_z|     |Im E1|     xi(h_z)   warnings")
    for rec in records:
        v = rec.values
        warned = ";".join(f"{code}:{n}" for code, n in sorted(rec.warnings.items()))
        print(
            f"  {rec.params['h_z']:4.2f}   {abs(v['Mz']):7.4f}   "
            f"{abs(v['spectrum'][0].imag):9.2e}   {v['xi']:7.3f}   {warned}"
        )
    xi = [rec.values["xi"] for rec in records]
    print(f"\nmetric peak at h_z = {records[int(np.argmax(xi))].params['h_z']:.3f}")


if __name__ == "__main__":
    main()
