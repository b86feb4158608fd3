"""Command line pipeline over the library: generate, measure, export.

Data goes to files, diagnostics go to stderr.  Exit codes: 0 success,
1 verification failure, 2 bad input or parameters, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .balls import (
    _check_center,
    affinity_bands,
    annuli,
    bands_to_dot,
    bands_to_json,
    delta_ball,
    distance_ball,
    euclidean_distances,
)
from .diffusion import (
    decomposition_to_json,
    diffusion_distance_matrix,
    spectral_decomposition,
)
from .errors import GraphMetrizeError, InvalidParameterError, NumericError
from .kernels import load_affinity, newtonian_kernel, save_affinity, validate_kernel, write_matrix_csv
from .metrize import (
    INVERSE_VARIANTS,
    _band_min,
    chain_metric,
    compute_lambda_sequence,
    delta_matrix,
    lambda_from_json,
    lambda_to_json,
    level_nesting,
    quasi_triangle_constant,
    verify_equivalence,
    verify_sandwich,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_radii(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"radii must be comma-separated floats: {exc}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphmetrize",
        description="Threshold levels, dyadic metrics, diffusion distances, and colored balls on affinity graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kernel_input(p):
        p.add_argument("-i", "--input", required=True, type=Path, help="kernel CSV file")

    def add_sequence_options(p):
        p.add_argument("--lambda", dest="lambda_path", type=Path,
                       help="threshold JSON of this same kernel to reuse instead of recomputing")
        p.add_argument("--diagonal-band", type=int, default=3, choices=(3, 5), help="band width seeding the sweep")
        p.add_argument("--lambda0", type=float, default=None, help="override for the seed threshold")

    p = sub.add_parser("gen", help="generate a power-law kernel on a path")
    p.add_argument("--n", required=True, type=int, help="vertex count")
    p.add_argument("--alpha", type=float, default=1.0, help="decay exponent")
    p.add_argument("--diag", type=float, default=2.0, help="diagonal value")
    p.add_argument("-o", "--output", required=True, type=Path)

    p = sub.add_parser("lambda", help="compute the threshold sequence")
    add_kernel_input(p)
    add_sequence_options(p)
    p.add_argument("-o", "--output", required=True, type=Path, help="threshold JSON output")

    p = sub.add_parser("delta", help="dyadic quasi-metric matrix")
    add_kernel_input(p)
    add_sequence_options(p)
    p.add_argument("--variant", choices=INVERSE_VARIANTS, default="script")
    p.add_argument("-o", "--output", required=True, type=Path, help="distance CSV output")

    p = sub.add_parser("chain", help="chain pseudo-metric matrix")
    add_kernel_input(p)
    add_sequence_options(p)
    p.add_argument("--weights-output", type=Path, help="also write the one-step weights CSV")
    p.add_argument("-o", "--output", required=True, type=Path, help="distance CSV output")

    p = sub.add_parser("diffusion", help="diffusion distance matrix")
    add_kernel_input(p)
    p.add_argument("--t", type=float, default=0.005, help="diffusion time")
    p.add_argument("--eig-output", type=Path, help="also write the eigendecomposition JSON")
    p.add_argument("-o", "--output", required=True, type=Path, help="distance CSV output")

    p = sub.add_parser("balls", help="band assignment around a center, optionally as DOT")
    add_kernel_input(p)
    add_sequence_options(p)
    p.add_argument(
        "--metric", choices=("F", "D", "E"), default="F",
        help="F: threshold bands, D: diffusion distance, E: |i - j| on the path 0..n-1 whatever the kernel",
    )
    p.add_argument("--center", required=True, type=int)
    p.add_argument("--radii", type=_parse_radii, default=(), help="ascending radii for metrics D and E")
    p.add_argument("--t", type=float, default=0.005, help="diffusion time for metric D")
    p.add_argument("--dot", type=Path, help="DOT output path")
    p.add_argument("-o", "--output", required=True, type=Path, help="bands JSON output")

    p = sub.add_parser("verify", help="run the invariant checks on a kernel")
    add_kernel_input(p)
    add_sequence_options(p)
    p.add_argument("-o", "--output", type=Path, help="optional JSON report")

    p = sub.add_parser("compare", help="Jaccard overlap of balls in different metrics")
    add_kernel_input(p)
    add_sequence_options(p)
    p.add_argument("--center", required=True, type=int)
    p.add_argument("--radius-f", type=float, help="quasi-metric ball radius")
    p.add_argument("--radius-d", type=float, help="diffusion ball radius")
    p.add_argument("--radius-e", type=float, help="euclidean ball radius; E is |i - j| on the path 0..n-1 whatever the kernel")
    p.add_argument("--t", type=float, default=0.005, help="diffusion time")
    p.add_argument("-o", "--output", required=True, type=Path)
    return parser


def _sequence_for(args: argparse.Namespace, kernel):
    if args.lambda_path is not None:
        seq = lambda_from_json(args.lambda_path.read_text())
        # Harvested thresholds are kernel entries; only the seed may be a free --lambda0.
        if not all((kernel.values == t).any() for t in seq.values[:-1]):
            raise InvalidParameterError(f"{args.lambda_path}: thresholds are not entries of this kernel")
        band_min = _band_min(kernel, 1)
        if seq.values[-1] > band_min:
            raise InvalidParameterError(
                f"{args.lambda_path}: top threshold {seq.values[-1]!r} exceeds the band minimum {band_min!r}"
            )
        return seq
    return compute_lambda_sequence(
        kernel, diagonal_band=args.diagonal_band, lambda0_override=args.lambda0
    )


def _distance_row(metric: str, args: argparse.Namespace, kernel):
    """The center's distances in metric D (diffusion at time --t) or E (|i - j| on the path)."""
    if metric == "E":
        return euclidean_distances(kernel.n, args.center)
    center = _check_center(args.center, kernel.n)
    return diffusion_distance_matrix(spectral_decomposition(kernel), args.t)[center]


def cmd_gen(args: argparse.Namespace) -> int:
    kernel = newtonian_kernel(args.n, args.alpha, args.diag)
    save_affinity(kernel, args.output)
    _info(f"wrote {kernel.n}x{kernel.n} kernel to {args.output}")
    return EXIT_OK


def cmd_lambda(args: argparse.Namespace, kernel) -> int:
    seq = _sequence_for(args, kernel)
    args.output.write_text(lambda_to_json(seq))
    _info(f"{seq.k + 1} thresholds in {seq.iterations} rounds -> {args.output}")
    return EXIT_OK


def cmd_delta(args: argparse.Namespace, kernel) -> int:
    seq = _sequence_for(args, kernel)
    dm = delta_matrix(kernel, seq, args.variant)
    write_matrix_csv(dm.values, args.output)
    _info(f"{args.variant} quasi-metric for n={kernel.n} -> {args.output}")
    return EXIT_OK


def cmd_chain(args: argparse.Namespace, kernel) -> int:
    seq = _sequence_for(args, kernel)
    write_matrix_csv(chain_metric(kernel, seq).values, args.output)
    _info(f"chain metric for n={kernel.n} -> {args.output}")
    if args.weights_output is not None:
        write_matrix_csv(delta_matrix(kernel, seq).values, args.weights_output)
        _info(f"one-step weights -> {args.weights_output}")
    return EXIT_OK


def cmd_diffusion(args: argparse.Namespace, kernel) -> int:
    decomp = spectral_decomposition(kernel)
    if args.eig_output is not None:
        args.eig_output.write_text(decomposition_to_json(decomp))
        _info(f"eigendecomposition -> {args.eig_output}")
    dt = diffusion_distance_matrix(decomp, args.t)
    write_matrix_csv(dt, args.output)
    _info(f"diffusion distances at t={args.t} -> {args.output}")
    return EXIT_OK


def cmd_balls(args: argparse.Namespace, kernel) -> int:
    if args.metric == "F":
        if args.radii:
            raise InvalidParameterError("metric F derives its bands from the thresholds; drop --radii")
        seq = _sequence_for(args, kernel)
        bands = affinity_bands(kernel, seq, args.center)
    else:
        if not args.radii:
            raise InvalidParameterError(f"metric {args.metric} needs --radii")
        bands = annuli(_distance_row(args.metric, args, kernel), args.radii, args.center)
    args.output.write_text(bands_to_json(bands))
    if args.dot is not None:
        args.dot.write_text(bands_to_dot(kernel, bands))
        _info(f"DOT coloring -> {args.dot}")
    sizes = [sum(1 for b in bands.band_of if b == band) for band in range(len(bands.radii) + 1)]
    _info(f"metric {args.metric} bands around {bands.center}: sizes {sizes} -> {args.output}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, kernel) -> int:
    report = validate_kernel(kernel)
    checks = {}
    flags = report.failed_flags()
    checks["kernel_flags"] = not flags
    payload = {"flags": {
        "symmetric": report.symmetric,
        "diag_dominant": report.diag_dominant,
        "tridiagonal_positive": report.tridiagonal_positive,
    }}
    if flags:
        _info(f"FAIL kernel flags: {', '.join(flags)}")
    else:
        seq = _sequence_for(args, kernel)
        # A swept sequence nests by construction, since lambda(i - 1) is the value that
        # _sweep_step(lambda(i)) returned; a --lambda file comes from outside and is checked.
        checks["level_nesting"] = args.lambda_path is None or level_nesting(kernel, seq)
        # The chain closure and the sandwich check run before delta is built, and the chain
        # metric is dropped before the quasi-triangle products, which read only delta: neither
        # cubic stage holds both beside its own buffers.
        pm = chain_metric(kernel, seq)
        sandwich = verify_sandwich(kernel, seq, pm)
        dm = delta_matrix(kernel, seq)
        equivalence = verify_equivalence(dm, pm)
        del pm
        constant = quasi_triangle_constant(dm) if kernel.n >= 3 else 1.0
        checks["sandwich"] = sandwich.passed
        checks["equivalence"] = equivalence.passed
        checks["quasi_triangle"] = constant <= 8.0
        payload.update(
            thresholds=[float(x) for x in seq.values],
            tightest_shift=sandwich.tightest_shift,
            c_lo=equivalence.c_lo,
            c_hi=equivalence.c_hi,
            quasi_triangle_constant=constant,
        )
        for name, ok in checks.items():
            _info(f"{'ok  ' if ok else 'FAIL'} {name}")
    passed = all(checks.values())
    payload["checks"] = checks
    payload["passed"] = passed
    if args.output is not None:
        args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if passed else EXIT_VERIFY


def jaccard(a: frozenset, b: frozenset) -> float:
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def cmd_compare(args: argparse.Namespace, kernel) -> int:
    balls = {}
    if args.radius_f is not None:
        seq = _sequence_for(args, kernel)
        balls["F"] = delta_ball(kernel, seq, args.center, args.radius_f)
    for metric, radius in (("D", args.radius_d), ("E", args.radius_e)):
        if radius is not None:
            balls[metric] = distance_ball(_distance_row(metric, args, kernel), args.center, radius)
    if len(balls) < 2:
        raise InvalidParameterError("compare needs radii for at least two of F, D, E")
    overlaps = {}
    names = sorted(balls)
    for i, first in enumerate(names):
        for second in names[i + 1:]:
            overlaps[f"{first}|{second}"] = jaccard(balls[first].members, balls[second].members)
    payload = {
        "center": args.center,
        "jaccard": overlaps,
        "members": {name: sorted(ball.members) for name, ball in balls.items()},
        "radii": {name: balls[name].radius for name in names},
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for pair, value in overlaps.items():
        _info(f"jaccard {pair} = {value:.4f}")
    return EXIT_OK


# Every command but gen reads a kernel with -i; main loads it once for them.
COMMANDS = {
    "lambda": cmd_lambda,
    "delta": cmd_delta,
    "chain": cmd_chain,
    "diffusion": cmd_diffusion,
    "balls": cmd_balls,
    "verify": cmd_verify,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return cmd_gen(args)
        return COMMANDS[args.command](args, load_affinity(args.input))
    except NumericError as exc:
        _info(f"numeric error: {exc}")
        return EXIT_NUMERIC
    except (GraphMetrizeError, OSError) as exc:
        _info(f"error: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
