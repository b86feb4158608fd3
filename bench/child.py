"""Child processes of the benchmark; run.py starts them, one job each.

    child.py env OUT                        record the environment as JSON
    child.py setup SPEC SEED DIR            first import, input generation, warm-up
    child.py cli SPANS -- ARGV...           one CLI command in-process, traced
    child.py check SPEC PARAMS DIR OUT      check one pass of CLI outputs
    child.py corpus SPEC SEED SECONDS OUT [--trace]

SPEC is a workload as JSON (workloads.to_spec), so that run.py can hand
its children the same workload it measures, at any size.

Each job runs in a fresh interpreter so that first imports, the BLAS
thread count and peak RSS belong to that job alone.  The output checks
run here too, not in run.py: a child's peak RSS counts the memory of the
process that started it, so run.py stays small.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import check_corpus_kernel, digest, from_spec, sha256, verify_with_library


def blas_threads():
    """Thread count in effect in the OpenBLAS that numpy loaded, or None if not found."""
    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def corpus_kernels(gm, workload, seed: int) -> list:
    """The seeded corpus as (kernel, center) pairs, after a warm-up on its first two kernels."""
    kernels = [(gm.affinity_matrix(v), c) for _, v, c in workload.make(seed)]
    for kernel, center in kernels[:2]:
        verify_with_library(gm, kernel, center)
    return kernels


def setup(workload, seed: int, work: str) -> None:
    """First import, input generation and warm-up for one workload."""
    if workload.kind == "cli":
        from graphmetrize import cli

        argv = workload.setup_argv(Path(work))
        if argv and cli.main(argv) != 0:
            sys.exit("input generation failed")
    else:
        import graphmetrize as gm

        corpus_kernels(gm, workload, seed)


def cli_traced(spans: str, argv: list) -> int:
    tracer = Tracer()
    tracer.install()
    from graphmetrize import cli

    tracer.op = argv[0]
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans, blas_threads=blas_threads())


def check(workload, params: dict, work: Path, out: str) -> None:
    """Check one pass of a CLI workload's outputs against the oracles, command by command."""
    problems = {}
    for name, check_outputs in workload.checks(work, params, workload.oracle()).items():
        try:
            problems[name] = check_outputs()
        except Exception as exc:  # a missing or corrupted output is a failed check, not a crash
            problems[name] = [f"output check raised {type(exc).__name__}: {exc}"]
    hashes = {name: sha256(work / name) for name in workload.hashed if (work / name).exists()}
    with open(out, "w") as handle:
        json.dump({"problems": problems, "hashes": hashes}, handle)


def peak_rss_mb() -> float:
    """This process's own peak RSS; ru_maxrss would also count the parent's at start-up."""
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024.0
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def corpus(args) -> None:
    """Verify the corpus pass after pass for the given seconds, then check the first pass.

    Only a digest of each output is kept, with the clock stopped, so the
    timed passes hold one kernel's matrices at a time and the peak RSS
    taken before the checks is the library's own.
    """
    import graphmetrize as gm

    kernels = corpus_kernels(gm, from_spec(args.spec), args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    walls, failed, problems = [], 0, []
    first = [None] * len(kernels)
    while True:
        wall = 0.0
        for index, (kernel, center) in enumerate(kernels):
            if tracer is not None:
                tracer.op = f"kernel{index}"
            start = time.perf_counter()
            try:
                out = verify_with_library(gm, kernel, center)
            except Exception as exc:  # one kernel's failure must not stop the run
                wall += time.perf_counter() - start
                failed += 1
                problems.append(f"kernel {index}: {type(exc).__name__}: {exc}")
                continue
            wall += time.perf_counter() - start
            if not walls:
                first[index] = dict(out, delta=digest(out["delta"]), chain=digest(out["chain"]))
            elif not out["passed"]:
                failed += 1
                problems.append(f"kernel {index}: library checks did not all pass")
        walls.append(wall)
        if tracer is not None or sum(walls) >= args.seconds:
            break
    peak = peak_rss_mb()

    for index, ((kernel, center), out) in enumerate(zip(kernels, first)):
        found = [] if out is None else check_corpus_kernel(kernel.values, center, out)
        if found:
            failed += 1
            problems += [f"kernel {index} (n={kernel.n}): {p}" for p in found]
    result = {
        "pass_walls": walls,
        "kernels": len(kernels),
        "attempted": len(kernels) * len(walls),
        "failed": failed,
        "problems": problems,
        "peak_rss_mb": peak,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(args.out, "w") as handle:
        json.dump(result, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="job", required=True)
    p = sub.add_parser("env")
    p.add_argument("out")
    p = sub.add_parser("setup")
    p.add_argument("spec")
    p.add_argument("seed", type=int)
    p.add_argument("dir")
    p = sub.add_parser("cli")
    p.add_argument("spans")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    p = sub.add_parser("check")
    p.add_argument("spec")
    p.add_argument("params")
    p.add_argument("dir")
    p.add_argument("out")
    p = sub.add_parser("corpus")
    p.add_argument("spec")
    p.add_argument("seed", type=int)
    p.add_argument("seconds", type=float)
    p.add_argument("out")
    p.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    if args.job == "env":
        with open(args.out, "w") as handle:
            json.dump(environment(), handle)
    elif args.job == "setup":
        setup(from_spec(args.spec), args.seed, args.dir)
    elif args.job == "cli":
        argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        return cli_traced(args.spans, argv)
    elif args.job == "check":
        check(from_spec(args.spec), json.loads(args.params), Path(args.dir), args.out)
    else:
        corpus(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
