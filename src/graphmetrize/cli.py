"""Command line pipeline over the library: generate, measure, export.

Data goes to files, diagnostics go to stderr.  Exit codes: 0 success,
1 verification failure, 2 bad input or parameters, or memory refused,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .balls import (
    _check_center,
    _checked_delta_radius,
    _checked_radii,
    _dot_lines,
    affinity_bands,
    annuli,
    bands_to_json,
    delta_ball,
    distance_ball,
    euclidean_distances,
)
from .diffusion import (
    _checked_time,
    _decomposition_lines,
    _diffusion_distance_row,
    diffusion_distance_matrix,
    spectral_decomposition,
)
from .errors import GraphMetrizeError, InvalidParameterError, NumericError
from .kernels import load_affinity, newtonian_kernel, save_affinity, validate_kernel, write_matrix_csv
from .metrize import (
    QUASI_TRIANGLE_LIMIT,
    _band_min,
    _chain_rows,
    _chain_scale,
    _delta_rows,
    compute_lambda_sequence,
    lambda_from_json,
    lambda_to_json,
    level_nesting,
    verify_metrization,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3
DIFFUSION_TIME = 0.005  # --t where a diffusion distance is computed and --t is not given


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
                       help="threshold JSON of this same kernel (from the lambda command) instead of the default sweep")

    p = sub.add_parser("gen", help="generate a power-law kernel on a path")
    p.add_argument("--n", required=True, type=int, help="vertex count")
    p.add_argument("--alpha", type=float, default=1.0, help="decay exponent")
    p.add_argument("--diag", type=float, default=2.0, help="diagonal value")
    p.add_argument("-o", "--output", required=True, type=Path)

    p = sub.add_parser("lambda", help="compute the threshold sequence")
    add_kernel_input(p)
    p.add_argument("--diagonal-band", type=int, default=3, choices=(3, 5), help="band width seeding the sweep")
    p.add_argument("--lambda0", type=float, default=None, help="override for the seed threshold")
    p.add_argument("-o", "--output", required=True, type=Path, help="threshold JSON output")

    p = sub.add_parser("delta", help="dyadic quasi-metric matrix")
    add_kernel_input(p)
    add_sequence_options(p)
    p.add_argument("-o", "--output", required=True, type=Path, help="distance CSV output")

    p = sub.add_parser("chain", help="chain pseudo-metric matrix")
    add_kernel_input(p)
    add_sequence_options(p)
    p.add_argument("--weights-output", type=Path, help="also write the one-step weights CSV")
    p.add_argument("-o", "--output", required=True, type=Path, help="distance CSV output")

    p = sub.add_parser("diffusion", help="diffusion distance matrix")
    add_kernel_input(p)
    p.add_argument("--t", type=float, help=f"diffusion time (default {DIFFUSION_TIME})")
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
    p.add_argument("--t", type=float, help=f"diffusion time, for metric D only (default {DIFFUSION_TIME})")
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
    p.add_argument("--t", type=float, help=f"diffusion time, with --radius-d only (default {DIFFUSION_TIME})")
    p.add_argument("-o", "--output", required=True, type=Path)
    return parser


def _sequence_for(args: argparse.Namespace, kernel):
    """The --lambda sequence that _check_options parsed, checked against the kernel, or else the default sweep."""
    if args.lambda_path is None:
        return compute_lambda_sequence(kernel)
    seq = args.sequence
    # Harvested thresholds are kernel entries; only the seed may be a free lambda --lambda0.
    if not all((kernel.values == t).any() for t in seq.values[:-1]):
        raise InvalidParameterError(f"{args.lambda_path}: thresholds are not entries of this kernel")
    band_min = _band_min(kernel, 1)
    if seq.values[-1] > band_min:
        raise InvalidParameterError(f"{args.lambda_path}: top threshold {seq.values[-1]!r} exceeds the band minimum {band_min!r}")
    return seq


def _check_options(args: argparse.Namespace) -> None:
    """Make every check that needs no kernel, so that a bad option exits 2 before the load.

    --t is read only where a diffusion distance is computed, which sets its default; --lambda only where thresholds are,
    and its file is parsed here into args.sequence.  No two outputs may name one file (_staged replaces a link, not its target).
    """
    outputs = [Path(os.path.realpath(p.parent), p.name) for p in map(vars(args).get, ("output", "weights_output", "eig_output", "dot")) if p]
    if len(set(outputs)) < len(outputs):
        raise InvalidParameterError("two outputs name the same file")
    if args.command == "compare":
        radii = {m: r for m, r in zip("FDE", (args.radius_f, args.radius_d, args.radius_e)) if r is not None}
        if len(radii) < 2:
            raise InvalidParameterError("compare needs radii for at least two of F, D, E")
        for metric, radius in radii.items():
            _checked_delta_radius(radius) if metric == "F" else _checked_radii((radius,))
        metrics = "".join(radii)
    elif args.command == "balls":
        if (args.metric == "F") == bool(args.radii):  # F takes no --radii; D and E need them
            raise InvalidParameterError("metric F derives its bands from the thresholds; drop --radii" if args.radii else f"metric {args.metric} needs --radii")
        if args.radii:
            _checked_radii(args.radii)
        metrics = args.metric
    else:
        metrics = "D" if args.command == "diffusion" else "F"
    if "D" in metrics:
        args.t = _checked_time(DIFFUSION_TIME if args.t is None else args.t)
    elif getattr(args, "t", None) is not None:
        raise InvalidParameterError("only a diffusion distance reads --t; drop --t")
    if getattr(args, "lambda_path", None) is not None:
        if "F" not in metrics:
            raise InvalidParameterError("only metric F reads thresholds; drop --lambda")
        args.sequence = lambda_from_json(args.lambda_path.read_bytes())
        if args.command in ("chain", "verify"):
            _chain_scale(args.sequence)


def _distance_row(metric: str, args: argparse.Namespace, held: list):
    """The center's distances in metric D (diffusion at time --t) or E (|i - j| on the path).

    held is a one-item list with the kernel.  D empties it as it forms the
    generator, so the kernel is freed before eigh.
    """
    if metric == "E":
        return euclidean_distances(held[0].n, args.center)
    return _diffusion_distance_row(spectral_decomposition(held.pop()), args.t, args.center)


@contextlib.contextmanager
def _staged(*paths):
    """Yield a temporary sibling of each output path (None for None) to write in its place.

    Once the block has written them all, each replaces its path; if the
    block raises, they are removed, so a failing command leaves no
    partial output.
    """
    temps = [None if path is None else path.parent / f".{path.name}.{os.getpid()}.{i}.tmp" for i, path in enumerate(paths)]
    try:
        yield temps
        for temp, path in zip(temps, paths):
            if path is not None:
                os.replace(temp, path)
    finally:
        for temp in temps:
            if temp is not None:
                temp.unlink(missing_ok=True)


def cmd_gen(args: argparse.Namespace) -> int:
    kernel = newtonian_kernel(args.n, args.alpha, args.diag)
    with _staged(args.output) as (output,):
        save_affinity(kernel, output)
    _info(f"wrote {kernel.n}x{kernel.n} kernel to {args.output}")
    return EXIT_OK


def cmd_lambda(args: argparse.Namespace, held: list) -> int:
    seq = compute_lambda_sequence(held[0], args.diagonal_band, args.lambda0)
    with _staged(args.output) as (output,):
        output.write_text(lambda_to_json(seq))
    _info(f"{seq.k + 1} thresholds in {seq.iterations} rounds -> {args.output}")
    return EXIT_OK


def cmd_delta(args: argparse.Namespace, held: list) -> int:
    (kernel,) = held
    seq = _sequence_for(args, kernel)
    with _staged(args.output) as (output,):
        write_matrix_csv(_delta_rows(kernel, seq), output)
    _info(f"quasi-metric for n={kernel.n} -> {args.output}")
    return EXIT_OK


def cmd_chain(args: argparse.Namespace, held: list) -> int:
    (kernel,) = held
    seq = _sequence_for(args, kernel)
    with _staged(args.output, args.weights_output) as (output, weights_output):
        write_matrix_csv(_chain_rows(kernel, seq), output)
        if weights_output is not None:
            write_matrix_csv(_delta_rows(kernel, seq), weights_output)
    _info(f"chain metric for n={kernel.n} -> {args.output}")
    if args.weights_output is not None:
        _info(f"one-step weights -> {args.weights_output}")
    return EXIT_OK


def cmd_diffusion(args: argparse.Namespace, held: list) -> int:
    decomp = spectral_decomposition(held.pop())  # the kernel is freed before eigh
    with _staged(args.output, args.eig_output) as (output, eig_output):
        write_matrix_csv(diffusion_distance_matrix(decomp, args.t), output)  # the distances are freed on return
        if eig_output is not None:
            with open(eig_output, "w") as handle:
                handle.writelines(_decomposition_lines(decomp))
    _info(f"diffusion distances at t={args.t} -> {args.output}")
    if args.eig_output is not None:
        _info(f"eigendecomposition -> {args.eig_output}")
    return EXIT_OK


def cmd_balls(args: argparse.Namespace, held: list) -> int:
    if args.metric == "F":
        bands = affinity_bands(held[0], _sequence_for(args, held[0]), args.center)
    edges = None if args.dot is None else np.triu(held[0].values > 0, 1)  # all --dot reads of the kernel: after F's sweep, before D's eigh
    if args.metric != "F":
        bands = annuli(_distance_row(args.metric, args, held), args.radii, args.center)
    with _staged(args.output, args.dot) as (output, dot):
        output.write_text(bands_to_json(bands))
        if dot is not None:
            with open(dot, "w") as handle:
                handle.writelines(_dot_lines(edges, bands))
    if args.dot is not None:
        _info(f"DOT coloring -> {args.dot}")
    sizes = [sum(1 for b in bands.band_of if b == band) for band in range(len(bands.radii) + 1)]
    _info(f"metric {args.metric} bands around {bands.center}: sizes {sizes} -> {args.output}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace, held: list) -> int:
    (kernel,) = held
    report = validate_kernel(kernel)
    flags = report.failed_flags()
    checks = {"kernel_flags": not flags}
    payload = {"flags": asdict(report)}
    if flags:
        _info(f"FAIL kernel flags: {', '.join(flags)}")
    else:
        seq = _sequence_for(args, kernel)
        # A swept sequence nests by construction, since lambda(i - 1) is the value that
        # _sweep_step(lambda(i)) returned; a --lambda file comes from outside and is checked.
        checks["level_nesting"] = args.lambda_path is None or level_nesting(kernel, seq)
        sandwich, equivalence, constant = verify_metrization(kernel, seq)
        checks["sandwich"] = sandwich.passed
        checks["equivalence"] = equivalence.passed
        checks["quasi_triangle"] = constant <= QUASI_TRIANGLE_LIMIT
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
        with _staged(args.output) as (output,):
            output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if passed else EXIT_VERIFY


def jaccard(a: frozenset, b: frozenset) -> float:
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def cmd_compare(args: argparse.Namespace, held: list) -> int:
    balls = {}
    if args.radius_f is not None:
        balls["F"] = delta_ball(held[0], _sequence_for(args, held[0]), args.center, args.radius_f)
    for metric, radius in (("E", args.radius_e), ("D", args.radius_d)):  # D's eigendecomposition last
        if radius is not None:
            balls[metric] = distance_ball(_distance_row(metric, args, held), args.center, radius)
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
    with _staged(args.output) as (output,):
        output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for pair, value in overlaps.items():
        _info(f"jaccard {pair} = {value:.4f}")
    return EXIT_OK


# Every command but gen reads a kernel with -i, which main loads and hands on in a one-item list.
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
        _check_options(args)
        held = [load_affinity(args.input)]  # its only reference (CPython >= 3.11): popped into spectral_decomposition, the kernel is freed before eigh
        if "center" in args:
            _check_center(args.center, held[0].n)
        return COMMANDS[args.command](args, held)
    except NumericError as exc:
        _info(f"numeric error: {exc}")
        return EXIT_NUMERIC
    except (GraphMetrizeError, OSError) as exc:
        _info(f"error: {exc}")
        return EXIT_INPUT
    except MemoryError as exc:
        _info(f"error: out of memory: {exc}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
