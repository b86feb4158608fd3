"""Walk through the threshold sweep on the 60-vertex power-law kernel.

The sweep starts at the minimum affinity on the tridiagonal band and
repeatedly drops to the smallest affinity reachable in three hops inside
the current level set.  On a path kernel the reachable band triples per
round, so the number of levels grows like log base 3 of the graph size.
"""

import numpy as np

from graphmetrize import (
    compute_lambda_sequence,
    newtonian_kernel,
    validate_kernel,
)


def describe(n, alpha=1.0):
    kernel = newtonian_kernel(n, alpha, 2.0)
    report = validate_kernel(kernel)
    seq = compute_lambda_sequence(kernel)
    print(f"n={n:4d} alpha={alpha}  flags ok={not report.failed_flags()}  "
          f"levels={seq.k + 1}  thresholds={np.round(seq.values, 6).tolist()}")
    return kernel, seq


def main():
    print("Level counts follow the tripling law:")
    for n in (4, 10, 28, 60, 100):
        describe(n)

    print("\nThe n=60 level sets, seen as bands around the diagonal:")
    kernel, seq = describe(60)
    for idx, t in enumerate(seq.values):
        width = int((kernel.values[30] >= t).sum())
        print(f"  U({idx}) at threshold {t:.6f}: "
              f"row 30 relates to {width} vertices")

    print("\nThe seed threshold is the tridiagonal minimum; a five-diagonal")
    print("seed starts lower and produces a different family:")
    five = compute_lambda_sequence(kernel, diagonal_band=5)
    print(f"  five-diagonal thresholds: {np.round(five.values, 6).tolist()}")


if __name__ == "__main__":
    main()
