"""From thresholds to distances: the dyadic quasi-metric and its chain metric.

Writes the distance tables, a ball, and a colored DOT graph into
demo_output/ next to the repository root.
"""

from pathlib import Path

import numpy as np

from graphmetrize import (
    affinity_bands,
    bands_to_dot,
    chain_metric,
    compute_lambda_sequence,
    delta_ball,
    delta_matrix,
    newtonian_kernel,
    verify_metrization,
    write_matrix_csv,
)

OUT = Path(__file__).resolve().parents[1] / "demo_output"


def main():
    OUT.mkdir(exist_ok=True)
    kernel = newtonian_kernel(60, 1.0, 2.0)
    seq = compute_lambda_sequence(kernel)
    print(f"thresholds: {np.round(seq.values, 6).tolist()}")

    dm = delta_matrix(kernel, seq)
    pm = chain_metric(kernel, seq)
    write_matrix_csv(dm.values, OUT / "delta60.csv")
    write_matrix_csv(pm.values, OUT / "chain60.csv")
    print(f"delta row 50, vertices 46..54: {dm.values[50, 46:55].tolist()}")
    print(f"chain row 50, vertices 46..54: {pm.values[50, 46:55].tolist()}")

    sandwich, equivalence, constant = verify_metrization(kernel, seq)
    print(f"sandwich: left {sandwich.left_pass}, shifts {sandwich.right_shift}, "
          f"tightest {sandwich.tightest_shift}")
    print(f"equivalence band: d/delta in [{equivalence.c_lo}, {equivalence.c_hi}] "
          f"over {equivalence.pairs} pairs")
    print(f"quasi-triangle constant: {constant:.6f}")

    for q in range(1, seq.k + 2):
        ball = delta_ball(kernel, seq, 50, 2.0 ** -q)
        print(f"ball around 50 at radius 2^-{q}: {sorted(ball.members)}")

    bands = affinity_bands(kernel, seq, 50)
    (OUT / "balls60.dot").write_text(bands_to_dot(kernel, bands))
    sizes = [sum(1 for b in bands.band_of if b == band) for band in range(seq.k + 2)]
    print(f"band sizes around 50: {sizes} (colors {bands.palette})")
    print(f"wrote {OUT / 'delta60.csv'}, {OUT / 'chain60.csv'}, {OUT / 'balls60.dot'}")


if __name__ == "__main__":
    main()
