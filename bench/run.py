"""Benchmark of graphmetrize: end-to-end metrics per workload, per-layer metrics from a traced run.

    python3 bench/run.py --workload path-cli-800 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

With --trace 0 the workload runs untraced, pass after pass, until
--seconds of measured work have been done, and the end-to-end metrics
are reported.  With --trace 1 it runs one untraced pass, one traced pass
and one traced pass with OPENBLAS_NUM_THREADS=1, and the per-layer
metrics are reported.  Every pass's outputs are checked against the
oracles in workloads.py outside the measured time; a nonzero exit or a
failed check counts as a failed operation and makes this script exit 1.

The lines printed first give every metric by name and unit, the
environment and the path of the full JSON report under .bench_work/.
The last line is one JSON object with the keys correct, attempted,
failed and metrics.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, to_spec  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "kernels_per_s": "kernels/s"}
CLI_COMMANDS = ("gen", "lambda", "delta", "chain", "verify", "balls", "compare", "diffusion")

# Per-layer time metrics: the inclusive time of the spans with these names.
LAYER_TIMES = {
    "kernels.load_affinity_s": ("kernels.load_affinity",),
    "kernels.save_affinity_s": ("kernels.save_affinity",),
    "kernels.write_matrix_csv_s": ("kernels.write_matrix_csv",),
    "kernels.validate_kernel_s": ("kernels.validate_kernel",),
    "relations.compose_s": ("relations.compose",),
    "relations.level_set_s": ("relations.level_set",),
    "metrize.sweep_s": ("metrize.compute_lambda_sequence",),
    "metrize.delta_s": ("metrize.delta_matrix",),
    "metrize.chain_s": ("metrize.chain_metric",),
    "metrize.sandwich_s": ("metrize.verify_sandwich",),
    "metrize.equivalence_s": ("metrize.verify_equivalence",),
    "metrize.qtri_s": ("metrize.quasi_triangle_constant",),
    "metrize.level_relations_s": ("metrize.level_relations",),
    "diffusion.laplacian_s": ("diffusion.graph_laplacian",),
    "diffusion.eig_s": ("diffusion.eig_symmetric",),
    "diffusion.distance_s": ("diffusion.diffusion_distance_matrix",),
    "balls.bands_s": ("balls.affinity_bands", "balls.annuli"),
    "balls.dot_s": ("balls.bands_to_dot",),
    "balls.json_s": ("balls.bands_to_json", "balls.ball_to_json"),
    "cli.main_s": ("cli.main",),
}
# Per-layer counts: (span name, recorded field, how to combine, unit).
LAYER_COUNTS = {
    "kernels.csv_bytes_read": ("kernels.read_matrix_csv", "bytes", sum, "bytes"),
    "kernels.csv_bytes_written": ("kernels.write_matrix_csv", "bytes", sum, "bytes"),
    "relations.compose_calls": ("relations.compose", None, len, "count"),
    "relations.compose_flops": ("relations.compose", "flops", sum, "flop"),
    "metrize.sweep_rounds": ("metrize.compute_lambda_sequence", "rounds", sum, "count"),
    "metrize.levels": ("metrize.compute_lambda_sequence", "levels", sum, "count"),
    "diffusion.eig_residual": ("diffusion.eig_symmetric", "residual", lambda v: max(v, default=0.0), "abs"),
    "diffusion.distance_bytes": ("diffusion.diffusion_distance_matrix", "bytes", sum, "bytes"),
    "balls.dot_bytes": ("balls.bands_to_dot", "bytes", sum, "bytes"),
}
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: spec[3] for name, spec in LAYER_COUNTS.items()},
    "relations.compose_s.blas1": "s",
    "metrize.sweep_s.blas1": "s",
    "cli.import_s": "s",
    "cli.overhead_s": "s",
    **{f"cli.{cmd}_s": "s" for cmd in CLI_COMMANDS},
    "trace.overhead_s": "s",
}

SETUP_REPEATS = 5
IMPORT_REPEATS = 3
DEADLINE_S = 170.0


@dataclass
class Proc:
    wall_s: float
    code: int
    rss_mb: float
    stderr: str


class Runner:
    """Starts python child processes with the checkout's src on the path, within one deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def run(self, args: list, extra_env: dict | None = None) -> Proc:
        env = {**self.env, **(extra_env or {})}
        with open(self.work / "stderr.txt", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            tail = err.read()[-600:].decode(errors="replace")
        return Proc(wall, proc.returncode, usage.ru_maxrss / 1024.0, tail)


@dataclass
class Measured:
    """What one measurement mode produced: pass times, operations, spans."""

    pass_walls: list = field(default_factory=list)
    op_walls: dict = field(default_factory=lambda: defaultdict(list))
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    spans: list = field(default_factory=list)
    blas_threads: int | None = None
    kernels_per_pass: int = 1
    hashes: dict = field(default_factory=dict)


def run_commands(workload, runner: Runner, work: Path, params: dict, mode: str, out: Measured) -> dict:
    """Run the workload's commands once, each a subprocess; returns each command's Proc."""
    env = {"OPENBLAS_NUM_THREADS": "1"} if mode == "blas1" else None
    spans_file = work / "spans.json"
    procs = {}
    start = time.perf_counter()
    for name, argv in workload.commands(work, params):
        if mode == "plain":
            proc = runner.run(["-m", "graphmetrize.cli", *argv], env)
        else:
            proc = runner.run([str(CHILD), "cli", str(spans_file), "--", *argv], env)
        out.op_walls[name].append(proc.wall_s)
        out.peak_rss_mb = max(out.peak_rss_mb, proc.rss_mb)
        procs[name] = proc
        if mode != "plain" and spans_file.exists():
            data = json.loads(spans_file.read_text())
            spans_file.unlink()
            offset = len(out.spans)
            for span in data["spans"]:
                span["id"] += offset
                span["parent"] = None if span["parent"] is None else span["parent"] + offset
            out.spans += data["spans"]
            out.blas_threads = data["blas_threads"]
    out.pass_walls.append(time.perf_counter() - start)
    return procs


def check_outputs(workload, runner: Runner, work: Path, params: dict, procs: dict, out: Measured) -> None:
    """Check the pass's outputs in a child process; a command fails on a nonzero exit or a failed check."""
    result_file = work / "check.json"
    result_file.unlink(missing_ok=True)
    checker = runner.run([str(CHILD), "check", to_spec(workload), json.dumps(params), str(work), str(result_file)])
    checked = json.loads(result_file.read_text()) if checker.code == 0 and result_file.exists() else None
    for name, proc in procs.items():
        if proc.code != 0:
            found = [f"exit {proc.code}: {proc.stderr.strip()}"]
        elif checked is None:
            found = [f"output checker exit {checker.code}: {checker.stderr.strip()}"]
        else:
            found = checked["problems"][name]
        out.attempted += 1
        if found:
            out.failed += 1
            out.problems += [f"{name}: {message}" for message in found]
    if checked is not None:
        out.hashes = checked["hashes"]


def corpus_run(workload, runner: Runner, work: Path, seed: int, seconds: float, mode: str, out: Measured) -> None:
    """Verify the corpus in one child process, which times its passes and checks the first."""
    env = {"OPENBLAS_NUM_THREADS": "1"} if mode == "blas1" else None
    result_file = work / "corpus.json"
    args = [str(CHILD), "corpus", to_spec(workload), str(seed), repr(seconds), str(result_file)]
    proc = runner.run(args + ([] if mode == "plain" else ["--trace"]), env)
    out.kernels_per_pass = workload.size
    if proc.code != 0 or not result_file.exists():
        out.peak_rss_mb = max(out.peak_rss_mb, proc.rss_mb)
        out.pass_walls.append(proc.wall_s)
        out.attempted += workload.size
        out.failed += workload.size
        out.problems.append(f"corpus child exit {proc.code}: {proc.stderr.strip()}")
        return
    data = json.loads(result_file.read_text())
    result_file.unlink()
    out.pass_walls += data["pass_walls"]
    out.attempted += data["attempted"]
    out.failed += data["failed"]
    out.problems += data["problems"]
    out.peak_rss_mb = max(out.peak_rss_mb, data["peak_rss_mb"])
    out.spans += data.get("spans", [])
    out.blas_threads = data["blas_threads"]


def measure(workload, runner, work, params, seed, seconds, mode) -> Measured:
    """Plain mode repeats passes until `seconds` of measured work; traced modes make one pass."""
    out = Measured()
    if workload.kind == "corpus":
        corpus_run(workload, runner, work, seed, seconds, mode, out)
        return out
    while True:
        procs = run_commands(workload, runner, work, params, mode, out)
        check_outputs(workload, runner, work, params, procs, out)
        if mode != "plain" or sum(out.pass_walls) >= seconds:
            return out


def span_metrics(spans: list) -> dict:
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    metrics = {name: sum(s["end"] - s["start"] for n in names for s in by_name[n])
               for name, names in LAYER_TIMES.items()}
    for name, (span_name, key, combine, _) in LAYER_COUNTS.items():
        records = by_name[span_name]
        metrics[name] = combine(records) if key is None else combine([s[key] for s in records])
    return metrics


def self_times(spans: list) -> dict:
    """Per span name: calls, inclusive seconds, and self seconds (minus direct children)."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span in spans:
        row = table[span["name"]]
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += span["end"] - span["start"] - child_time[span["id"]]
    return dict(sorted(table.items(), key=lambda item: -item[1]["self_s"]))


def by_command(plain: Measured, traced: Measured) -> dict:
    """Per CLI command: subprocess wall, in-process main time, and layer times inside it."""
    table = {}
    for name, walls in plain.op_walls.items():
        spans = [s for s in traced.spans if s["op"] == name]
        layers = {k: v for k, v in span_metrics(spans).items() if k in LAYER_TIMES and v}
        table[name] = {"wall_s": walls[0], "main_s": layers.get("cli.main_s", 0.0), "layers_s": layers}
    return table


def median(values) -> float:
    return float(statistics.median(values))


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple:
    """Set up, measure and check one workload; returns (result line dict, report dict)."""
    work_root = ROOT / ".bench_work"
    work = work_root / f"run-{workload.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, time.monotonic() + DEADLINE_S)
    try:
        env_file = work / "env.json"
        runner.run([str(CHILD), "env", str(env_file)])
        environment = json.loads(env_file.read_text()) if env_file.exists() else {}
        params = workload.params(seed) if workload.kind == "cli" else {}
        setup = []
        for _ in range(SETUP_REPEATS):
            proc = runner.run([str(CHILD), "setup", to_spec(workload), str(seed), str(work)])
            if proc.code != 0:
                raise SystemExit(f"set-up of {workload.name} failed: {proc.stderr.strip()}")
            setup.append(proc.wall_s)

        report = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "environment": environment, "params": params, "setup_s_samples": setup}
        if not trace:
            plain = measure(workload, runner, work, params, seed, seconds, "plain")
            runs = [plain]
            wall = median(plain.pass_walls)
            metrics = {"setup_s": median(setup), "wall_s": wall, "peak_rss_mb": plain.peak_rss_mb,
                       "kernels_per_s": plain.kernels_per_pass / wall}
            units = dict(END_TO_END)
            steps = {f"cli.{name}_s": median(walls) for name, walls in plain.op_walls.items()}
            report.update(pass_walls=plain.pass_walls, cli_steps_s=steps, output_sha256=plain.hashes)
        else:
            imports = [runner.run(["-c", "import graphmetrize.cli"]).wall_s for _ in range(IMPORT_REPEATS)]
            plain, traced, blas1 = (measure(workload, runner, work, params, seed, 0.0, mode)
                                    for mode in ("plain", "traced", "blas1"))
            runs = [plain, traced, blas1]
            metrics = span_metrics(traced.spans)
            one_thread = span_metrics(blas1.spans)
            traced_cli = sum(walls[0] for walls in traced.op_walls.values())
            metrics.update({
                "relations.compose_s.blas1": one_thread["relations.compose_s"],
                "metrize.sweep_s.blas1": one_thread["metrize.sweep_s"],
                "cli.import_s": median(imports),
                "cli.overhead_s": traced_cli - metrics["cli.main_s"] if traced_cli else 0.0,
                **{f"cli.{cmd}_s": plain.op_walls[cmd][0] if cmd in plain.op_walls else 0.0
                   for cmd in CLI_COMMANDS},
                "trace.overhead_s": traced.pass_walls[0] - plain.pass_walls[0],
            })
            units = dict(PER_LAYER)
            report.update(blas_threads={"traced": traced.blas_threads, "blas1": blas1.blas_threads},
                          self_times=self_times(traced.spans), by_command=by_command(plain, traced),
                          output_sha256=plain.hashes)
            spans_path = work_root / f"spans-{workload.name}-seed{seed}.json"
            spans_path.write_text(json.dumps({"traced": traced.spans, "blas1": blas1.spans}))
            report["spans_file"] = str(spans_path.relative_to(ROOT))

        attempted = sum(r.attempted for r in runs)
        failed = sum(r.failed for r in runs)
        problems = [p for r in runs for p in r.problems]
        line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
        report.update(ops=attempted, failed=failed, problems=problems, metrics=dict(line["metrics"]))
        if not trace:
            report["metrics"].update({name: {"value": value, "unit": "s"} for name, value in steps.items()})
        report["metrics"]["fail_ratio"] = {"value": failed / attempted, "unit": "ratio", "ops": attempted}
        report_path = work_root / f"report-{workload.name}-seed{seed}-trace{int(trace)}.json"
        report["report_file"] = str(report_path.relative_to(ROOT))
        report_path.write_text(json.dumps(report, indent=1) + "\n")
        return line, report
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_report(report: dict) -> None:
    print(f"# {report['workload']}  seed={report['seed']}  trace={report['trace']}")
    for name, metric in report["metrics"].items():
        extra = f"  ({report['failed']} failed of {metric['ops']} ops)" if "ops" in metric else ""
        print(f"{name} = {metric['value']!r} {metric['unit']}{extra}")
    for problem in report["problems"][:20]:
        print(f"FAILED {problem}")
    print(f"environment: {json.dumps(report['environment'], sort_keys=True)}")
    print(f"report: {report['report_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "graphmetrize" / "cli.py").is_file():
        print(f"graphmetrize sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        line, report = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print_report(report)
        lines[name] = line
    if len(lines) == 1:
        result = lines[names[0]]
    else:
        result = {"correct": all(line["correct"] for line in lines.values()),
                  "attempted": sum(line["attempted"] for line in lines.values()),
                  "failed": sum(line["failed"] for line in lines.values()),
                  "metrics": {f"{wl}/{k}": v for wl, line in lines.items() for k, v in line["metrics"].items()}}
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
