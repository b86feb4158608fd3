"""Compare the three metrics on the path: threshold (F), diffusion (D), Euclidean (E).

The threshold balls are exactly integer intervals, so they match the
Euclidean balls set-for-set once radii are aligned; diffusion balls
approximate the same intervals with soft edges.
"""

from pathlib import Path

import numpy as np

from graphmetrize import (
    compute_lambda_sequence,
    delta_ball,
    diffusion_distance_matrix,
    distance_ball,
    euclidean_distances,
    newtonian_kernel,
    spectral_decomposition,
    write_matrix_csv,
)
from graphmetrize.cli import jaccard

OUT = Path(__file__).resolve().parents[1] / "demo_output"


def main():
    OUT.mkdir(exist_ok=True)
    kernel = newtonian_kernel(60, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    decomp = spectral_decomposition(kernel)
    print(f"generator spectrum: [{decomp.eigenvalues.min():.4f}, "
          f"{decomp.eigenvalues.max():.2e}]")

    t = 0.005
    dt = diffusion_distance_matrix(decomp, t)
    write_matrix_csv(dt, OUT / "diffusion60.csv")
    print(f"d_t at t={t}: nearest neighbor {dt[30, 31]:.6f}, "
          f"far pair {dt[0, 59]:.6f}")

    center = 25
    euclid = euclidean_distances(60, center)
    print(f"\nball overlap around vertex {center} (Jaccard):")
    print("  q  F-radius    F-size  vs E   vs D(best r)")
    for q in range(1, seq.k + 2):
        f_ball = delta_ball(kernel, seq, center, 2.0 ** -q)
        width = max(abs(v - center) for v in f_ball.members)
        e_ball = distance_ball(euclid, center, width + 1.0)
        best = 0.0
        for r in np.linspace(dt[center].min() + 1e-9, dt[center].max() + 1e-9, 200):
            d_ball = distance_ball(dt[center], center, float(r))
            best = max(best, jaccard(f_ball.members, d_ball.members))
        print(f"  {q}  2^-{q}        {len(f_ball.members):3d}    "
              f"{jaccard(f_ball.members, e_ball.members):.2f}   {best:.2f}")
    print(f"\nwrote {OUT / 'diffusion60.csv'}")


if __name__ == "__main__":
    main()
