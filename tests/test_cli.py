import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import graphmetrize.cli as cli
from graphmetrize import (
    LambdaSequence,
    NumericError,
    compute_lambda_sequence,
    decomposition_from_json,
    graph_laplacian,
    lambda_to_json,
    load_affinity,
    newtonian_kernel,
    read_matrix_csv,
    write_matrix_csv,
)
from graphmetrize.cli import jaccard, main

from conftest import brute_power3, metrizable_kernels, tensor_diffusion_distances, traced_peak


def run(*args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def k60_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "k60.csv"
    assert run("gen", "--n", 60, "--alpha", 1, "--diag", 2, "-o", path) == 0
    return path


# sha256 of each 60-vertex pipeline output, pinned so that a refactor
# keeps the CLI's files byte-identical.  diffusion is left out: its
# output depends on the LAPACK build.
GOLDEN_60 = {
    "k60.csv": "d19ca854b5a2ea9b9edadd1982f8eba1c8c5df212db246e92e20faa42a0c0c72",
    "l.json": "358e13b80721aa4559153f7fb8569c54ed9bf10a64fc6c8112732404b4270dff",
    "delta_script.csv": "c7c8f91470f569b6e82cfa4914d1a27f96f3d8ec5ab966007d11c9596ed78b3a",
    "delta_upper.csv": "5a79ff44a37832ca78f185faffbae605c1068a8de0fb409c98f5e32e193a1644",
    "delta_lower.csv": "ed8587e9affae57d5694b7ff0562a42b0dbb842aa3cd7b2600be8e6410223f86",
    "chain.csv": "aa5cc5ef98ee44b721f5130378df4d7026d8031097a0d684118c81baa4b378c8",
    "weights.csv": "c7c8f91470f569b6e82cfa4914d1a27f96f3d8ec5ab966007d11c9596ed78b3a",
    "verify.json": "6c442b8a00cb4643e524de62cddea53dbe1e7e9c3d6e4bdac0a86fe8de933d7a",
    "balls_f.json": "f929a16609be3907b0a79b63a659b3ca99524e16c84194225a7c8dfa8ee4cbca",
    "balls_f.dot": "60e582d3ffc804dd0b9ef97d24b835cb9e829fdc12c1eb13d482d11b85921e6a",
    "balls_e.json": "c336bae18cd0d09f1c12eab8923436beffd60a776414f628350cf53ae2244178",
    "compare.json": "06b2bbe088fa568c2fb739368186093f3cbf88a016f3f4ce66b69d3f780098d7",
}


def test_pipeline_60_outputs_byte_identical(tmp_path):
    k = tmp_path / "k60.csv"
    lam = tmp_path / "l.json"
    commands = [
        ("gen", "--n", 60, "--alpha", 1, "--diag", 2, "-o", k),
        ("lambda", "-i", k, "-o", lam),
        *(("delta", "-i", k, "--lambda", lam, "--variant", v, "-o", tmp_path / f"delta_{v}.csv")
          for v in ("script", "upper", "lower")),
        ("chain", "-i", k, "--lambda", lam, "-o", tmp_path / "chain.csv",
         "--weights-output", tmp_path / "weights.csv"),
        ("verify", "-i", k, "-o", tmp_path / "verify.json"),
        ("balls", "-i", k, "--lambda", lam, "--center", 50, "--metric", "F",
         "-o", tmp_path / "balls_f.json", "--dot", tmp_path / "balls_f.dot"),
        ("balls", "-i", k, "--center", 25, "--metric", "E", "--radii", "1,3,27,59",
         "-o", tmp_path / "balls_e.json"),
        ("compare", "-i", k, "--center", 25, "--radius-f", 0.125, "--radius-e", 4,
         "-o", tmp_path / "compare.json"),
    ]
    for command in commands:
        assert run(*command) == 0, command
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_60}
    assert digests == GOLDEN_60


def test_gen_round_trip_and_value(tmp_path):
    out = tmp_path / "k.csv"
    assert run("gen", "--n", 60, "--alpha", 1, "--diag", 2, "-o", out) == 0
    kernel = load_affinity(out)
    assert abs(kernel.values[0, 59] - 0.0169492) < 5e-8
    assert np.array_equal(kernel.values, newtonian_kernel(60, 1.0, 2.0).values)


def test_gen_two_vertex_matrix(tmp_path):
    out = tmp_path / "k2.csv"
    assert run("gen", "--n", 2, "--alpha", 1, "--diag", 2, "-o", out) == 0
    assert read_matrix_csv(out).tolist() == [[2.0, 1.0], [1.0, 2.0]]


def test_gen_rejects_n_one(tmp_path):
    assert run("gen", "--n", 1, "--alpha", 1, "-o", tmp_path / "x.csv") == 2


def test_lambda_command_reproduces_caption(k60_csv, tmp_path):
    out = tmp_path / "l.json"
    assert run("lambda", "-i", k60_csv, "-o", out) == 0
    payload = json.loads(out.read_text())
    assert np.allclose(
        payload["values"],
        [0.0169492, 0.037037, 0.111111, 0.333333, 1.0],
        rtol=0,
        atol=5e-7,
    )
    assert payload["iterations"] == 4


def test_lambda_command_deterministic(k60_csv, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert run("lambda", "-i", k60_csv, "-o", first) == 0
    assert run("lambda", "-i", k60_csv, "-o", second) == 0
    assert first.read_bytes() == second.read_bytes()


def test_delta_chain_diffusion_outputs(k60_csv, tmp_path):
    for command, extra in (("delta", ()), ("chain", ()), ("diffusion", ("--t", "0.005"))):
        out = tmp_path / f"{command}.csv"
        assert run(command, "-i", k60_csv, "-o", out, *extra) == 0
        matrix = read_matrix_csv(out)
        assert matrix.shape == (60, 60)
        assert np.array_equal(matrix, matrix.T)
        assert (np.diagonal(matrix) == 0).all()


def test_chain_reuses_lambda_file_and_writes_weights(k60_csv, tmp_path):
    lam = tmp_path / "l.json"
    assert run("lambda", "-i", k60_csv, "-o", lam) == 0
    out = tmp_path / "d.csv"
    weights = tmp_path / "f.csv"
    assert run("chain", "-i", k60_csv, "--lambda", lam, "-o", out,
               "--weights-output", weights) == 0
    d = read_matrix_csv(out)
    f = read_matrix_csv(weights)
    assert (d <= f).all()


def test_lambda_round_trip_with_zero_affinities(tmp_path):
    values = newtonian_kernel(10, 1.0, 2.0).values.copy()
    values[0, 9] = values[9, 0] = 0.0
    kernel = tmp_path / "k.csv"
    write_matrix_csv(values, kernel)
    lam = tmp_path / "l.json"
    assert run("lambda", "-i", kernel, "-o", lam) == 0
    assert json.loads(lam.read_text())["values"][0] == 0.0
    fresh, reused = tmp_path / "fresh.csv", tmp_path / "reused.csv"
    assert run("delta", "-i", kernel, "-o", fresh) == 0
    assert run("delta", "-i", kernel, "--lambda", lam, "-o", reused) == 0
    assert reused.read_bytes() == fresh.read_bytes()


def test_lambda_from_other_kernel_exits_two(k60_csv, tmp_path):
    kernel = tmp_path / "k40.csv"
    assert run("gen", "--n", 40, "--alpha", 2, "-o", kernel) == 0
    lam = tmp_path / "l60.json"
    assert run("lambda", "-i", k60_csv, "-o", lam) == 0
    too_high = tmp_path / "high.json"
    too_high.write_text(json.dumps({"values": [0.25, 1.5], "iterations": 1}))
    for path in (lam, too_high):
        assert run("delta", "-i", kernel, "--lambda", path, "-o", tmp_path / "d.csv") == 2
        assert run("verify", "-i", kernel, "--lambda", path) == 2
        assert run("balls", "-i", kernel, "--lambda", path, "--center", 3, "-o", tmp_path / "b.json") == 2
    seeded = tmp_path / "seeded.json"
    assert run("lambda", "-i", kernel, "--lambda0", 0.75, "-o", seeded) == 0
    assert run("delta", "-i", kernel, "--lambda", seeded, "-o", tmp_path / "d.csv") == 0


def test_chain_over_sixty_levels_exits_two(tmp_path):
    # 66 distinct entries off the tridiagonal give a --lambda file of up to k = 66 levels.
    n = 13
    rows, cols = np.triu_indices(n, 2)
    values = np.zeros((n, n))
    values[rows, cols] = np.arange(1, rows.size + 1) / 100
    values += values.T
    gaps = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    values[gaps == 1] = 1.0
    np.fill_diagonal(values, 2.0)
    kernel = tmp_path / "k.csv"
    write_matrix_csv(values, kernel)
    entries = sorted(values[rows, cols].tolist())
    lam = tmp_path / "l.json"
    lam.write_text(json.dumps({"values": entries + [1.0], "iterations": 1}))
    assert run("chain", "-i", kernel, "--lambda", lam, "-o", tmp_path / "d.csv") == 2
    lam.write_text(json.dumps({"values": entries[6:] + [1.0], "iterations": 1}))
    assert run("chain", "-i", kernel, "--lambda", lam, "-o", tmp_path / "d.csv") == 0


def test_diffusion_eig_output(k60_csv, tmp_path):
    out = tmp_path / "dt.csv"
    eig = tmp_path / "eig.json"
    assert run("diffusion", "-i", k60_csv, "-o", out, "--eig-output", eig) == 0
    payload = json.loads(eig.read_text())
    assert len(payload["eigenvalues"]) == 60
    assert max(payload["eigenvalues"]) <= 1e-10
    decomp = decomposition_from_json(eig.read_text())
    rebuilt = decomp.eigenvectors @ np.diag(decomp.eigenvalues) @ decomp.eigenvectors.T
    assert np.abs(rebuilt - graph_laplacian(load_affinity(k60_csv))).max() <= 1e-8
    oracle = tensor_diffusion_distances(decomp, 0.005)
    assert np.abs(read_matrix_csv(out) - oracle).max() <= 1e-12


def test_balls_f_matches_figure_bands(k60_csv, tmp_path):
    out = tmp_path / "b.json"
    dot = tmp_path / "b.dot"
    lam = tmp_path / "l.json"
    assert run("lambda", "-i", k60_csv, "-o", lam) == 0
    assert run("balls", "-i", k60_csv, "--lambda", lam, "--center", 50,
               "--metric", "F", "-o", out, "--dot", dot) == 0
    payload = json.loads(out.read_text())
    band_of = payload["band_of"]
    assert [v for v, b in enumerate(band_of) if b == 0] == [50]
    assert [v for v, b in enumerate(band_of) if b == 1] == [48, 49, 51, 52]
    assert payload["palette"][0] == "yellow"
    assert payload["palette"][1] == "green"
    text = dot.read_text()
    assert "50 [fillcolor=yellow];" in text
    assert "48 [fillcolor=green];" in text


def test_balls_f_rejects_radii(k60_csv, tmp_path):
    assert run("balls", "-i", k60_csv, "--center", 50, "--metric", "F",
               "--radii", "1,2", "-o", tmp_path / "b.json") == 2


def test_balls_euclidean_bands(k60_csv, tmp_path):
    out = tmp_path / "e.json"
    assert run("balls", "-i", k60_csv, "--center", 25, "--metric", "E",
               "--radii", "1,3,27,59", "-o", out) == 0
    payload = json.loads(out.read_text())
    sizes = [payload["band_of"].count(b) for b in range(5)]
    assert sizes == [1, 4, 47, 8, 0]


def test_balls_diffusion_bands(k60_csv, tmp_path):
    out = tmp_path / "d.json"
    assert run("balls", "-i", k60_csv, "--center", 25, "--metric", "D",
               "--t", "0.005", "--radii", "0.5,1.0,1.4", "-o", out) == 0
    payload = json.loads(out.read_text())
    assert payload["band_of"][25] == 0
    assert len(payload["band_of"]) == 60


def test_balls_d_requires_radii(k60_csv, tmp_path):
    assert run("balls", "-i", k60_csv, "--center", 25, "--metric", "D",
               "-o", tmp_path / "d.json") == 2


def test_verify_passes_on_newtonian(k60_csv, tmp_path):
    report = tmp_path / "report.json"
    assert run("verify", "-i", k60_csv, "-o", report) == 0
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    assert payload["checks"]["sandwich"] is True
    assert payload["quasi_triangle_constant"] <= 2.0


def test_verify_memory_is_quadratic(tmp_path):
    n = 300
    kernel, report = tmp_path / "k.csv", tmp_path / "report.json"
    assert run("gen", "--n", n, "-o", kernel) == 0
    peak = traced_peak(run, "verify", "-i", kernel, "-o", report)
    assert json.loads(report.read_text())["passed"] is True
    assert peak < 30 * n * n


def test_chain_with_weights_memory_is_quadratic(tmp_path):
    n = 300
    kernel = tmp_path / "k.csv"
    assert run("gen", "--n", n, "-o", kernel) == 0
    peak = traced_peak(run, "chain", "-i", kernel, "-o", tmp_path / "d.csv", "--weights-output", tmp_path / "w.csv")
    assert peak < 21 * n * n


def test_verify_checks_nesting_only_for_a_lambda_file(k60_csv, tmp_path, monkeypatch):
    calls = []
    level_nesting = cli.level_nesting
    monkeypatch.setattr(cli, "level_nesting", lambda kernel, seq: calls.append(seq) or level_nesting(kernel, seq))
    lam, report = tmp_path / "l.json", tmp_path / "report.json"
    assert run("lambda", "-i", k60_csv, "-o", lam) == 0
    for extra, expected_calls in (((), 0), (("--lambda", lam), 1)):
        calls.clear()
        assert run("verify", "-i", k60_csv, *extra, "-o", report) == 0
        assert len(calls) == expected_calls
        assert json.loads(report.read_text())["checks"]["level_nesting"] is True


def test_verify_fails_on_bad_kernel(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,0\n0,1\n")
    report = tmp_path / "report.json"
    assert run("verify", "-i", bad, "-o", report) == 1
    payload = json.loads(report.read_text())
    assert payload["passed"] is False
    assert payload["flags"]["tridiagonal_positive"] is False


def brute_nesting(kernel, values):
    """U(i) o U(i) o U(i) inside U(i - 1) at every level, by the triple-loop cube."""
    levels = [kernel.values >= t for t in values]
    return all((levels[i - 1] | ~brute_power3(levels[i])).all() for i in range(1, len(values)))


def verify_with_thresholds(kernel, values, directory):
    """Exit code and report of verify run on kernel with the given --lambda thresholds."""
    k = directory / "k.csv"
    lam = directory / "l.json"
    report = directory / "report.json"
    write_matrix_csv(kernel.values, k)
    lam.write_text(lambda_to_json(LambdaSequence(values=np.asarray(values, dtype=float), iterations=0)))
    code = run("verify", "-i", k, "--lambda", lam, "-o", report)
    return code, json.loads(report.read_text())


def test_verify_reports_failed_nesting(tmp_path):
    # {K >= 1} is the tridiagonal, whose cube reaches |i - j| = 3 with K = 1/3 < 1/2.
    kernel = newtonian_kernel(10, 1.0, 2.0)
    values = [1 / 9, 1 / 2, 1.0]
    code, payload = verify_with_thresholds(kernel, values, tmp_path)
    assert code == 1
    assert payload["checks"]["level_nesting"] is False
    assert payload["passed"] is False
    assert brute_nesting(kernel, values) is False


@st.composite
def nesting_cases(draw):
    """A metrizable or power-law kernel with its own sequence, that sequence
    without its bottom threshold, or a sorted subset of its entries at or
    below the tridiagonal band minimum (which may fail to nest)."""
    n = draw(st.integers(2, 10))
    if draw(st.booleans()):
        kernel = draw(metrizable_kernels(n))
    else:
        kernel = newtonian_kernel(n, draw(st.sampled_from((0.5, 1.0, 2.0))), 2.0)
    values = compute_lambda_sequence(kernel, draw(st.sampled_from((3, 5)))).values.tolist()
    source = draw(st.sampled_from(("own", "truncated", "subset")))
    if source == "truncated" and len(values) > 1:
        values = values[1:]
    elif source == "subset":
        band_min = cli._band_min(kernel, 1)
        entries = sorted(set(kernel.values[kernel.values <= band_min].tolist()))
        subset = st.lists(st.sampled_from(entries), min_size=min(2, len(entries)), max_size=6, unique=True)
        values = sorted(draw(subset))
    return kernel, values


@seed(7)
@given(nesting_cases())
@settings(max_examples=150, deadline=None)
def test_verify_nesting_matches_brute_force(case):
    kernel, values = case
    with tempfile.TemporaryDirectory() as directory:
        code, payload = verify_with_thresholds(kernel, values, Path(directory))
    expected = brute_nesting(kernel, values)
    assert payload["checks"]["level_nesting"] is expected
    assert code == (0 if payload["passed"] else 1)
    assert expected or code == 1


def test_compare_f_vs_e_matched_interval(k60_csv, tmp_path):
    out = tmp_path / "cmp.json"
    assert run("compare", "-i", k60_csv, "--center", 25,
               "--radius-f", 0.125, "--radius-e", 4, "-o", out) == 0
    payload = json.loads(out.read_text())
    assert payload["jaccard"]["E|F"] == 1.0
    assert payload["members"]["F"] == payload["members"]["E"]


def test_compare_includes_diffusion(k60_csv, tmp_path):
    out = tmp_path / "cmp.json"
    assert run("compare", "-i", k60_csv, "--center", 25, "--t", "0.005",
               "--radius-f", 0.125, "--radius-d", 1.4, "--radius-e", 4, "-o", out) == 0
    payload = json.loads(out.read_text())
    assert set(payload["jaccard"]) == {"D|E", "D|F", "E|F"}
    assert all(0.0 <= v <= 1.0 for v in payload["jaccard"].values())


def test_compare_needs_two_metrics(k60_csv, tmp_path):
    assert run("compare", "-i", k60_csv, "--center", 25,
               "--radius-f", 0.125, "-o", tmp_path / "c.json") == 2


def test_jaccard_helper():
    assert jaccard(frozenset({1, 2}), frozenset({1, 2})) == 1.0
    assert jaccard(frozenset({1}), frozenset({2})) == 0.0
    assert jaccard(frozenset(), frozenset()) == 1.0
    assert jaccard(frozenset({1, 2, 3}), frozenset({3, 4})) == 0.25


def test_missing_input_exits_two(tmp_path):
    assert run("lambda", "-i", tmp_path / "absent.csv", "-o", tmp_path / "l.json") == 2


def test_malformed_csv_exits_two(tmp_path):
    bad = tmp_path / "bad.csv"
    for text in ("1,2\n3,4\n", "", " \n"):
        bad.write_text(text)
        assert run("lambda", "-i", bad, "-o", tmp_path / "l.json") == 2


def test_malformed_lambda_file_exits_two(k60_csv, tmp_path):
    lam = tmp_path / "l.json"
    for payload in ({"values": ["x", 1.0]}, {"values": [[0.1], [0.2, 1.0]]},
                    {"values": [0.1, 1.0], "iterations": "many"}):
        lam.write_text(json.dumps(payload))
        assert run("delta", "-i", k60_csv, "--lambda", lam, "-o", tmp_path / "d.csv") == 2


def test_malformed_kernel_json_exits_two(tmp_path):
    bad = tmp_path / "k.json"
    bad.write_text(json.dumps({"n": 2, "values": 5}))
    assert run("lambda", "-i", bad, "-o", tmp_path / "l.json") == 2


def test_kernel_file_is_csv_whatever_its_suffix(tmp_path):
    for name in ("k.csv", "k.json"):
        assert run("gen", "--n", 12, "--alpha", 1, "-o", tmp_path / name) == 0
    assert (tmp_path / "k.json").read_bytes() == (tmp_path / "k.csv").read_bytes()
    assert run("lambda", "-i", tmp_path / "k.json", "-o", tmp_path / "l.json") == 0


def test_out_of_range_center_exits_two(k60_csv, tmp_path):
    for metric in ("D", "E"):
        assert run("balls", "-i", k60_csv, "--center", 60, "--metric", metric,
                   "--radii", "1", "-o", tmp_path / "b.json") == 2
    assert run("compare", "-i", k60_csv, "--center", 60, "--radius-d", 1.0,
               "--radius-e", 4, "-o", tmp_path / "c.json") == 2


def test_numeric_failure_exits_three(k60_csv, tmp_path, monkeypatch):
    def explode(kernel):
        raise NumericError("synthetic non-convergence")

    monkeypatch.setattr(cli, "spectral_decomposition", explode)
    assert run("diffusion", "-i", k60_csv, "-o", tmp_path / "dt.csv") == 3


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
