#!/usr/bin/env python3
"""Mobility edge of the deformed chain, resolved state by state.

For the Hermitian deformed chain (alpha = -0.5) every eigenstate
localizes when its energy crosses E_c = (2t - Delta)/alpha.  The script
sweeps Delta, computes the per-state metric g_DD and participation
ratio, and prints for a few states how closely the metric peak tracks
the analytic edge.

Run:  python3 demos/mobility_edge.py [--size 144]
"""

import argparse
from pathlib import Path

import numpy as np

from nhmetric import (
    Gaa2Spec,
    MetricRequest,
    eig_right,
    gaa2_mobility_edge,
    metric_spectrum,
    participation_ratio,
)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--size", type=int, default=144)
    parser.add_argument("--alpha", type=float, default=-0.5)
    args = parser.parse_args()

    L, alpha = args.size, args.alpha
    grid = np.arange(0.6, 3.4, 0.02)
    g_curves = np.zeros((len(grid), L))
    energies = np.zeros((len(grid), L))
    pr = np.zeros((len(grid), L))

    print(f"sweeping Delta over [{grid[0]:.2f}, {grid[-1]:.2f}] at L = {L} ...")
    for i, d in enumerate(grid):
        spec = Gaa2Spec(L=L, Delta=float(d), alpha=alpha)
        es = eig_right(spec.build())
        vals = metric_spectrum(MetricRequest(model=spec, parameter="Delta"), system=es)
        g_curves[i] = [v.g for v in vals]
        energies[i] = es.eigenvalues.real
        pr[i] = [participation_ratio(es.vectors[:, n]) for n in range(L)]

    print("state    peak Delta    Re E at peak    E_c at peak    |diff|")
    shown = 0
    for n in range(0, L, max(L // 12, 1)):
        i = int(np.argmax(g_curves[:, n]))
        if i in (0, len(grid) - 1):
            continue
        d = grid[i]
        ec = gaa2_mobility_edge(1.0, float(d), alpha)
        e = energies[i, n]
        print(f"{n:5d}    {d:10.3f}    {e:12.4f}    {ec:11.4f}    {abs(e - ec):.4f}")
        shown += 1
    if shown == 0:
        print("(no interior peaks; widen the Delta window)")

    out = Path(__file__).with_suffix(".npz")
    np.savez(out, grid=grid, metric=g_curves, energies=energies, pr=pr)
    print(f"arrays written to {out}")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt

        fig, ax = plt.subplots(figsize=(6, 4.5))
        for n in range(0, L, 2):
            ax.scatter(grid, energies[:, n], c=pr[:, n], s=1, cmap="viridis",
                       vmin=0, vmax=1)
        ax.plot(grid, gaa2_mobility_edge(1.0, grid, alpha), "k-", lw=1.5,
                label="analytic edge")
        ax.set_xlabel(r"$\Delta$")
        ax.set_ylabel(r"$\mathrm{Re}\,E_n$")
        ax.set_ylim(energies.min() - 0.3, energies.max() + 0.3)
        ax.legend()
        fig.tight_layout()
        png = out.with_suffix(".png")
        fig.savefig(png, dpi=150)
        print(f"figure written to {png}")
    except ImportError:
        pass


if __name__ == "__main__":
    main()
