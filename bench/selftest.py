"""Self-test of the benchmark at tiny sizes: python3 bench/selftest.py

Runs every workload small (n = 60, a corpus of 5 kernels) through
run.main, with and without tracing, and checks that every metric named in
BENCHMARK.json is printed with its unit and that no operation fails.
It then corrupts two output files of the path workload between the
commands and their check, and checks that each counts as a failed
operation and that the run exits 1.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

import run
from workloads import CorpusWorkload, PathWorkload, SpectralWorkload

SEED = 3


def tiny_spectral() -> SpectralWorkload:
    """n = 60, with radii between distinct reference distances so every band is non-empty."""
    small = SpectralWorkload(n=60)
    row = small.oracle()["distances"][small.params(SEED)["center"]]
    levels = np.unique(row[row > 0])
    picks = [len(levels) * q // 5 for q in (1, 2, 3, 4)]
    return SpectralWorkload(n=60, radii=tuple(float((levels[i] + levels[i + 1]) / 2) for i in picks))


def corrupting(check_outputs):
    """Wraps run.check_outputs to damage two outputs after the commands ran, before the check."""

    def wrapper(workload, runner, work, params, procs, out):
        chain = work / "chain.csv"
        rows = chain.read_text().splitlines()
        cells = rows[0].split(",")
        cells[1] = repr(float(cells[1]) * 2)
        rows[0] = ",".join(cells)
        chain.write_text("\n".join(rows) + "\n")
        lam = work / "lambda.json"
        lam.write_text(lam.read_text()[:-10])
        return check_outputs(workload, runner, work, params, procs, out)

    return wrapper


def invoke(workloads: dict, name: str, trace: int) -> tuple:
    """run.main on stand-in workloads; returns (exit code, printed lines, result line)."""
    saved = run.WORKLOADS
    run.WORKLOADS = workloads
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", name, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)])
    finally:
        run.WORKLOADS = saved
    lines = out.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
                1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    failures = []

    def expect(ok: bool, message: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {message}")
        if not ok:
            failures.append(message)

    expect(expected[0] == run.END_TO_END and expected[1] == run.PER_LAYER,
           "BENCHMARK.json lists the metrics run.py reports")
    expect([w["name"] for w in declared["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json lists the workloads run.py knows")

    tiny = {w.name: w for w in (PathWorkload(n=60), tiny_spectral(),
                                CorpusWorkload(size=5, n_low=20, n_high=40))}
    for name, workload in tiny.items():
        for trace in (0, 1):
            code, lines, result = invoke(tiny, name, trace)
            label = f"{name} trace={trace}"
            expect(code == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{label}: every operation passes its checks")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == expected[trace], f"{label}: result line has every metric with its unit")
            printed = {line.split(" = ")[0]: line.rsplit(" ", 1)[-1] for line in lines if " = " in line}
            expect(all(printed.get(k) == unit for k, unit in expected[trace].items()),
                   f"{label}: every metric is printed by name with its unit")
            if trace == 0:
                steps = [f"cli.{cmd}_s" for cmd, _ in workload.commands(Path("."), workload.params(SEED))] \
                    if workload.kind == "cli" else []
                expect(all(k in printed for k in steps + ["fail_ratio"]),
                       f"{label}: fail_ratio and the per-command times are printed")

    check_outputs = run.check_outputs
    run.check_outputs = corrupting(check_outputs)
    try:
        code, lines, result = invoke(tiny, "path-cli-800", 0)
    finally:
        run.check_outputs = check_outputs
    failed_ops = sorted(line.split()[1] for line in lines if line.startswith("FAILED"))
    expect(code == 1 and not result["correct"] and result["failed"] == 2 and result["attempted"] == 7,
           "two corrupted outputs count as two failed operations and exit 1")
    expect(failed_ops == ["chain:", "lambda:"], "the failures name the commands whose outputs were corrupted")
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
