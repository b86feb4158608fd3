import hashlib
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import graphmetrize.cli as cli
import graphmetrize.kernels as kernels
import graphmetrize.metrize as metrize
from graphmetrize import (
    LambdaSequence,
    NumericError,
    SpectralDecomposition,
    compute_lambda_sequence,
    diffusion_distance_matrix,
    graph_laplacian,
    lambda_to_json,
    load_affinity,
    newtonian_kernel,
    read_matrix_csv,
    spectral_decomposition,
    write_matrix_csv,
)
from graphmetrize.cli import jaccard, main

from conftest import brute_power3, metrizable_kernels, random_kernel, rank_transform, tensor_diffusion_distances, traced_peak


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
        ("delta", "-i", k, "--lambda", lam, "-o", tmp_path / "delta_script.csv"),
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


# sha256 of the pipeline's outputs on the 300-vertex power-law kernel, where the
# sweep and the quasi-triangle products run in several 128-wide tiles and the
# delta and chain CSVs are written a row block at a time.  They are the bytes
# the untiled products and whole-matrix writes gave.
GOLDEN_300 = {
    "k300.csv": "a7327b5fc87b6c231ab56b6ac0de8a006e6f70a0dbe210fa035a9b368d221160",
    "l.json": "4bb2b9c9c7de415982975d2e65f51963a90e6d9e252b629dea4a55f790fd8820",
    "delta.csv": "a4af6c59f16f6d7a628b7ffc2d33fc1f50a7eaf300caa30024443115f43f1422",
    "chain.csv": "5a1a43b150594ba7805441deab4db1182cf98a4b7895df9d4187e94ef8c38024",
    "weights.csv": "a4af6c59f16f6d7a628b7ffc2d33fc1f50a7eaf300caa30024443115f43f1422",
    "verify.json": "e652965f33a7734d3ccc4b75729b88da02ead71ba291cc0e1181a591f4658f83",
    "verify_lambda.json": "e652965f33a7734d3ccc4b75729b88da02ead71ba291cc0e1181a591f4658f83",
    "balls_f.json": "cd73c673f57803360b1a8d092a5c27744b810b8e206f2222e3a835cffb5897e1",
    "balls_f.dot": "5c9d0f29b3e9e4cb5ed2524061caaf75ce1d2b57bae1818f1633f5da27489cd0",
    "compare.json": "5ccbce10c9c683454407c11b6928b8418e66e460a24a21fababd6110bb5b1387",
}


def test_pipeline_300_outputs_byte_identical(tmp_path):
    k = tmp_path / "k300.csv"
    lam = tmp_path / "l.json"
    commands = [
        ("gen", "--n", 300, "--alpha", 1, "-o", k),
        ("lambda", "-i", k, "-o", lam),
        ("delta", "-i", k, "--lambda", lam, "-o", tmp_path / "delta.csv"),
        ("chain", "-i", k, "--lambda", lam, "-o", tmp_path / "chain.csv", "--weights-output", tmp_path / "weights.csv"),
        ("verify", "-i", k, "-o", tmp_path / "verify.json"),
        ("verify", "-i", k, "--lambda", lam, "-o", tmp_path / "verify_lambda.json"),
        ("balls", "-i", k, "--lambda", lam, "--center", 250, "-o", tmp_path / "balls_f.json", "--dot", tmp_path / "balls_f.dot"),
        ("compare", "-i", k, "--center", 125, "--radius-f", 0.0625, "--radius-e", 9, "-o", tmp_path / "compare.json"),
    ]
    for command in commands:
        assert run(*command) == 0, command
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_300}
    assert digests == GOLDEN_300


# sha256 of each consumer's output for a sequence that lambda seeds with
# --diagonal-band 5 or --lambda0 0.3 and hands on through --lambda.  They
# are the bytes that the one-step commands (verify --diagonal-band 5)
# wrote when every consumer still took those options itself.
SEEDED_60 = {
    ("--diagonal-band", "5"): {
        "delta.csv": "e3fbcf8d2d0e182fbe3d67b0a570fe9fd559dce018442de0c9fa17b2c9d3239c",
        "chain.csv": "a427ac3ef45ff86c1f49a7c079727283d2847c891ce9b08a1cd6a03e83af660d",
        "balls.json": "b8370f10d2442e83581b33f9ca15e57b14c1835dcadb6cdc1620a8d79a280cd1",
        "balls.dot": "0fbe30a34ce58de3163d459e49283988f8e7281cfb41f94a67e1a5638dcb3920",
        "verify.json": "c85d03c1baf473a96e6a0e6f8eefb5ca0a6519bb6483aa49c86fb57b342bb0aa",
        "compare.json": "44ee0ac59cd2ac0d877616b8796a359dda85f91f4ba6f57e4e906c5a95f0c916",
    },
    ("--lambda0", "0.3"): {
        "delta.csv": "a37a64f9d1e5ea1face7e599bcb2029ef6e8261fc827aa65f2d9d4c4db53b90e",
        "chain.csv": "b8ecd9ed9f81c66fc1265e9eb4e263f400a55348b2cb4820385eb9392d277fe8",
        "balls.json": "7360633ccfd6939549eb9a7b5be240c4b4107cc5e0b5df7b9395b586dc2ce4ff",
        "balls.dot": "4d28af052c5714cd69950de1aa3d7f08a2584c7c03a33a8be6cd75f6f3d2765d",
        "verify.json": "e5abd67302cb17c2ad9b789824e14d75cada2437168850122a589589f1892a72",
        "compare.json": "d7dfaa39e969a25f6d185d3a736a8d9fc321dc3e377902b4026748deb33f5426",
    },
}


@pytest.mark.parametrize("seeding", list(SEEDED_60))
def test_seeded_sequence_travels_through_a_lambda_file(k60_csv, tmp_path, seeding):
    lam = tmp_path / "l.json"
    assert run("lambda", "-i", k60_csv, *seeding, "-o", lam) == 0
    commands = [
        ("delta", "-o", tmp_path / "delta.csv"),
        ("chain", "-o", tmp_path / "chain.csv"),
        ("balls", "--center", 50, "--metric", "F", "-o", tmp_path / "balls.json", "--dot", tmp_path / "balls.dot"),
        ("verify", "-o", tmp_path / "verify.json"),
        ("compare", "--center", 25, "--radius-f", 0.0625, "--radius-e", 4, "-o", tmp_path / "compare.json"),
    ]
    for command, *rest in commands:
        assert run(command, "-i", k60_csv, "--lambda", lam, *rest) == 0, command
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in SEEDED_60[seeding]}
    assert digests == SEEDED_60[seeding]


def test_only_lambda_sets_the_sweep(k60_csv, tmp_path):
    consumers = [
        ("delta",),
        ("chain",),
        ("balls", "--center", 50),
        ("verify",),
        ("compare", "--center", 25, "--radius-f", 0.125, "--radius-e", 4),
    ]
    for command, *rest in consumers:
        for option in (("--diagonal-band", 5), ("--lambda0", 0.5)):
            with pytest.raises(SystemExit) as exc:
                run(command, "-i", k60_csv, *option, *rest, "-o", tmp_path / "out")
            assert exc.value.code == 2, (command, option)
    lam = tmp_path / "l.json"
    assert run("lambda", "-i", k60_csv, "-o", lam) == 0
    with pytest.raises(SystemExit) as exc:
        run("lambda", "-i", k60_csv, "--lambda", lam, "-o", tmp_path / "again.json")
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists() and not (tmp_path / "again.json").exists()


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


GEN_PARAMETERS = st.floats() | st.sampled_from((np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, 5e-324, -5e-324, 1.0))


@seed(10)
@example(4, np.nan, 2.0)
@given(st.integers(2, 12), GEN_PARAMETERS, GEN_PARAMETERS)
@settings(max_examples=200, deadline=None)
def test_gen_output_always_reads_back(n, alpha, diag):
    """gen either refuses its parameters and writes nothing, or writes a kernel that lambda and verify read."""
    with tempfile.TemporaryDirectory() as directory:
        k = Path(directory) / "k.csv"
        code = run("gen", "--n", n, f"--alpha={alpha!r}", f"--diag={diag!r}", "-o", k)
        if code == 2:
            assert not k.exists()
            return
        assert code == 0
        assert run("lambda", "-i", k, "-o", Path(directory) / "l.json") in (0, 1)
        assert run("verify", "-i", k, "-o", Path(directory) / "v.json") in (0, 1)


def test_refused_allocation_exits_two(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 65.5 EiB for an array with shape (3000000000, 3000000000)")

    monkeypatch.setattr(np, "empty", refuse)
    out = tmp_path / "k.csv"
    assert run("gen", "--n", 4, "-o", out) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error: out of memory: Unable to allocate")


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


def test_chain_over_sixty_levels_exits_two(tmp_path, monkeypatch):
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
    # k > 60 is refused before the load: no empty CSV or report is left behind, and verify checks no nesting.
    calls = []
    for name in ("load_affinity", "level_nesting"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, spied=getattr(cli, name): calls.append(name) or spied(*args))
    out, weights, report = tmp_path / "d.csv", tmp_path / "w.csv", tmp_path / "v.json"
    assert run("chain", "-i", kernel, "--lambda", lam, "-o", out, "--weights-output", weights) == 2
    assert run("verify", "-i", kernel, "--lambda", lam, "-o", report) == 2
    assert calls == []
    assert not out.exists() and not weights.exists() and not report.exists()
    lam.write_text(json.dumps({"values": entries[6:] + [1.0], "iterations": 1}))
    assert run("chain", "-i", kernel, "--lambda", lam, "-o", out) == 0


def test_diffusion_eig_output(k60_csv, tmp_path):
    out = tmp_path / "dt.csv"
    eig = tmp_path / "eig.json"
    assert run("diffusion", "-i", k60_csv, "-o", out, "--eig-output", eig) == 0
    payload = json.loads(eig.read_text())
    assert len(payload["eigenvalues"]) == 60
    assert max(payload["eigenvalues"]) <= 1e-10
    decomp = SpectralDecomposition(np.array(payload["eigenvalues"]), np.array(payload["eigenvectors"]))
    rebuilt = decomp.eigenvectors @ np.diag(decomp.eigenvalues) @ decomp.eigenvectors.T
    assert np.abs(rebuilt - graph_laplacian(load_affinity(k60_csv))).max() <= 1e-8
    oracle = tensor_diffusion_distances(decomp, 0.005)
    assert np.abs(read_matrix_csv(out) - oracle).max() <= 1e-12


def test_diffusion_bad_time_writes_nothing(k60_csv, tmp_path):
    out, eig = tmp_path / "dt.csv", tmp_path / "eig.json"
    assert run("diffusion", "-i", k60_csv, "--t", 0, "-o", out, "--eig-output", eig) == 2
    assert not out.exists() and not eig.exists()


@pytest.mark.parametrize("command", [
    ("diffusion", "--t", "nan"),
    ("diffusion", "--t", "inf"),
    ("balls", "--center", 25, "--metric", "D", "--t", "nan", "--radii", "0.5,1.4"),
    ("balls", "--center", 25, "--metric", "E", "--radii", "nan"),
    ("compare", "--center", 25, "--radius-d", "nan", "--radius-e", 4),
    ("compare", "--center", 25, "--radius-e", "nan", "--radius-f", 0.125),
])
def test_non_finite_time_or_nan_radius_exits_two(k60_csv, tmp_path, command):
    out = tmp_path / "out"
    assert run(command[0], "-i", k60_csv, *command[1:], "-o", out) == 2
    assert not out.exists()


def test_infinite_radius_is_legal(k60_csv, tmp_path):
    out = tmp_path / "b.json"
    assert run("balls", "-i", k60_csv, "--center", 25, "--metric", "E", "--radii", "1,inf", "-o", out) == 0
    assert json.loads(out.read_text())["band_of"][59] == 1
    assert run("compare", "-i", k60_csv, "--center", 25, "--radius-f", 0.125, "--radius-e", "inf", "-o", out) == 0
    assert len(json.loads(out.read_text())["members"]["E"]) == 60


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


def test_lambda_is_rejected_where_no_threshold_is_read(k60_csv, tmp_path, capsys):
    lam = tmp_path / "l.json"
    assert run("lambda", "-i", k60_csv, "-o", lam) == 0
    out = tmp_path / "out.json"
    unread = [
        ("balls", "--metric", "D", "--center", 25, "--radii", "0.5,1.0"),
        ("balls", "--metric", "E", "--center", 25, "--radii", "1,3"),
        ("compare", "--center", 25, "--radius-d", 1.4, "--radius-e", 4),
    ]
    for command, *rest in unread:
        capsys.readouterr()
        assert run(command, "-i", k60_csv, "--lambda", lam, *rest, "-o", out) == 2, rest
        assert "--lambda" in capsys.readouterr().err, rest
        assert not out.exists(), rest


def test_delta_has_one_inverse_map(k60_csv, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("delta", "-i", k60_csv, "--variant", "upper", "-o", tmp_path / "d.csv")
    assert exc.value.code == 2


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
    assert peak < 21 * n * n


def test_verify_memory_holds_one_square_array_beside_the_kernel(tmp_path):
    """At n = 600 the sweep's tiles, the one-byte index and the closure stay under 4 n**2 beside the 8 n**2 kernel."""
    n = 600
    kernel, report = tmp_path / "k.csv", tmp_path / "report.json"
    assert run("gen", "--n", n, "-o", kernel) == 0
    peak = traced_peak(run, "verify", "-i", kernel, "-o", report)
    assert json.loads(report.read_text())["passed"] is True
    assert peak < 12 * n * n


def test_diffusion_frees_the_kernel_before_eigh(tmp_path):
    """At n = 600 the eigenvectors, the scaled coordinates and the distances peak at 24 n**2: the 8 n**2 kernel is gone by then."""
    n = 600
    kernel = tmp_path / "k.csv"
    assert run("gen", "--n", n, "-o", kernel) == 0
    peak = traced_peak(run, "diffusion", "-i", kernel, "-o", tmp_path / "dt.csv")
    assert peak < 28 * n * n


def test_balls_dot_memory_streams_the_text(tmp_path):
    n = 300
    kernel, dot = tmp_path / "k.csv", tmp_path / "b.dot"
    assert run("gen", "--n", n, "-o", kernel) == 0
    peak = traced_peak(run, "balls", "-i", kernel, "--center", 0, "-o", tmp_path / "b.json", "--dot", dot)
    assert dot.read_text().count(" -- ") == n * (n - 1) // 2
    assert peak < 19 * n * n


def test_delta_and_chain_csv_unchanged_by_a_rank_transform(tmp_path):
    """The CLI reads the kernel only through comparisons: a strictly increasing map of it writes the same bytes."""
    kernel = newtonian_kernel(40, 2.0)
    outputs = []
    for name, k in (("kernel", kernel), ("ranked", rank_transform(kernel)[0])):
        path = tmp_path / f"{name}.csv"
        write_matrix_csv(k.values, path)
        for command in ("delta", "chain"):
            assert run(command, "-i", path, "-o", tmp_path / f"{name}_{command}.csv") == 0
        outputs.append([(tmp_path / f"{name}_{c}.csv").read_bytes() for c in ("delta", "chain")])
    assert outputs[0] == outputs[1]


def test_chain_with_weights_memory_is_quadratic(tmp_path):
    """d and the one-step weights are written a row block at a time, from the closure and the kernel: no float64 n x n array."""
    n = 600
    kernel = tmp_path / "k.csv"
    assert run("gen", "--n", n, "-o", kernel) == 0
    peak = traced_peak(run, "chain", "-i", kernel, "-o", tmp_path / "d.csv", "--weights-output", tmp_path / "w.csv")
    assert peak < 12 * n * n


def test_delta_memory_is_the_kernel_load(tmp_path):
    """With a --lambda file, delta holds the kernel and one row block of delta: its peak is the load's."""
    n = 600
    kernel, lam = tmp_path / "k.csv", tmp_path / "l.json"
    assert run("gen", "--n", n, "-o", kernel) == 0
    assert run("lambda", "-i", kernel, "-o", lam) == 0
    peak = traced_peak(run, "delta", "-i", kernel, "--lambda", lam, "-o", tmp_path / "d.csv")
    assert peak < 10 * n * n


@pytest.mark.parametrize("argv", (
    ("balls", "--metric", "D", "--radii", "0.5,1"),
    ("compare", "--radius-d", "0.5", "--radius-e", "3"),
    ("balls", "--metric", "D", "--radii", "0.5,1", "--dot", "out.dot"),
))
def test_diffusion_rows_free_the_kernel_before_eigh(tmp_path, monkeypatch, argv):
    """At n = 600 the generator and eigh's eigenvectors, then the eigenvectors and the scaled coordinates, peak at 16 n**2: the 8 n**2 kernel is gone by then.

    --dot keeps only the kernel's one-byte edge pattern.
    """
    monkeypatch.chdir(tmp_path)
    n = 600
    kernel = tmp_path / "k.csv"
    assert run("gen", "--n", n, "-o", kernel) == 0
    peak = traced_peak(run, *argv, "-i", kernel, "--center", 0, "-o", tmp_path / "out.json")
    assert json.loads((tmp_path / "out.json").read_text())["center"] == 0
    assert peak < 20 * n * n


@pytest.mark.parametrize("command", ("delta", "chain"))
def test_a_failing_command_leaves_no_partial_output(tmp_path, monkeypatch, command):
    """delta writes n = 200 in several row blocks, and chain --weights-output writes d first; a MemoryError after the first block of delta leaves neither output nor a temporary sibling."""
    kernel = tmp_path / "k.csv"
    assert run("gen", "--n", 200, "-o", kernel) == 0
    delta_block, calls = metrize._delta_block, []

    def refuse_after_the_first(*args):
        calls.append(args)
        if len(calls) > 1:
            raise MemoryError("refused")
        return delta_block(*args)

    monkeypatch.setattr(metrize, "_delta_block", refuse_after_the_first)
    weights = ("--weights-output", tmp_path / "w.csv") if command == "chain" else ()
    assert run(command, "-i", kernel, "-o", tmp_path / "d.csv", *weights) == 2
    assert len(calls) == 2
    assert sorted(path.name for path in tmp_path.iterdir()) == ["k.csv"]


def test_an_output_onto_a_directory_exits_two_and_leaves_no_sibling(k60_csv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for output in (tmp_path, "."):
        assert run("lambda", "-i", k60_csv, "-o", output) == 2
    assert list(tmp_path.iterdir()) == []


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


def test_verify_compares_the_kernel_with_its_transpose_once(k60_csv, tmp_path, monkeypatch):
    """Loading checks the kernel's symmetry once, by kernels._symmetric; validate_kernel and the sweep trust the type."""
    checked = []
    symmetric = kernels._symmetric

    def spy(arr, *args):
        checked.append(arr)
        return symmetric(arr, *args)

    monkeypatch.setattr(kernels, "_symmetric", spy)
    assert run("verify", "-i", k60_csv, "-o", tmp_path / "report.json") == 0
    assert len(checked) == 1
    assert not checked[0].flags.writeable  # the array that became the kernel
    assert np.array_equal(checked[0], read_matrix_csv(k60_csv))


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
    if expected:
        # A nested sequence meets the metrization lemma's sharp bounds, not only the paper's limits.
        assert payload["c_lo"] >= 0.5 and payload["c_hi"] <= 1.0
        assert payload["quasi_triangle_constant"] <= 2.0
        assert payload["tightest_shift"] is None or payload["tightest_shift"] >= -1  # None: a single level


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


def test_diffusion_ball_outputs_match_the_distance_matrix_row(k60_csv, tmp_path, monkeypatch):
    """balls --metric D and compare --radius-d write what the center's row of the all-pairs matrix gives."""
    kernel = tmp_path / "random.csv"
    write_matrix_csv(random_kernel(np.random.default_rng(7), 40).values, kernel)
    cases = [(k60_csv, 25, "0.005", "0.5,1.0,1.4", 1.4), (k60_csv, 3, "1.0", "0.3,0.9", 0.9), (kernel, 17, "0.005", "1.3,1.4", 1.4)]
    outputs = []
    for use_matrix in (False, True):
        if use_matrix:
            monkeypatch.setattr(cli, "_diffusion_distance_row", lambda decomp, t, center: diffusion_distance_matrix(decomp, t)[center])
        written = []
        for i, (path, center, t, radii, radius) in enumerate(cases):
            balls, compare = tmp_path / f"b{i}.json", tmp_path / f"c{i}.json"
            assert run("balls", "-i", path, "--metric", "D", "--center", center, "--t", t, "--radii", radii, "-o", balls) == 0
            assert run("compare", "-i", path, "--center", center, "--t", t, "--radius-d", radius, "--radius-e", 4, "-o", compare) == 0
            written += [balls.read_bytes(), compare.read_bytes()]
        outputs.append(written)
    assert outputs[0] == outputs[1]


def test_huge_diffusion_time_gives_the_limit_distances(tmp_path):
    """At t = 1e20 and t = 1e300 only the null eigenvector v survives: every distance is |v(x) - v(y)|, the same at both times.

    LAPACK returns the top eigenvalue as round-off: above 0 at n = 30,
    whose exp overflowed before the spectrum was clamped, and below 0 at
    n = 10 and 60, where every distance read 0 before it was set to 0.
    """
    for n, limit in ((10, 0.042559), (30, 0.031376), (60, 0.024226)):
        kernel = tmp_path / f"k{n}.csv"
        assert run("gen", "--n", n, "--alpha", 1, "-o", kernel) == 0
        v = spectral_decomposition(newtonian_kernel(n, 1.0)).eigenvectors[:, -1]
        outputs = []
        for t in ("1e20", "1e300"):
            dt, balls, compare = (tmp_path / f"{name}{n}-{t}" for name in ("dt", "b", "c"))
            assert run("diffusion", "-i", kernel, "--t", t, "-o", dt) == 0
            assert run("balls", "-i", kernel, "--metric", "D", "--radii", "1,1.4", "--center", 3, "--t", t, "-o", balls) == 0
            assert run("compare", "-i", kernel, "--radius-d", 0.5, "--radius-e", 4, "--center", 3, "--t", t, "-o", compare) == 0
            distances = read_matrix_csv(dt)
            assert np.abs(distances - np.abs(np.subtract.outer(v, v))).max() <= 1e-8  # the Gram identity's round-off near 0
            assert distances.max() == pytest.approx(limit, abs=1e-6)
            assert json.loads(balls.read_text())["band_of"].count(0) == n
            assert len(json.loads(compare.read_text())["members"]["D"]) == n
            outputs.append([path.read_bytes() for path in (dt, balls, compare)])
        assert outputs[0] == outputs[1]


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


def test_malformed_lambda_file_exits_two(k60_csv, tmp_path, monkeypatch):
    """A --lambda file that holds no threshold sequence is refused before the load; a NaN one passed verify with exit 0."""
    calls = []
    monkeypatch.setattr(cli, "load_affinity", lambda path, spied=cli.load_affinity: calls.append(path) or spied(path))
    lam, out = tmp_path / "l.json", tmp_path / "out"
    texts = [json.dumps(payload) for payload in (
        {"values": ["x", 1.0]}, {"values": [[0.1], [0.2, 1.0]]}, {"values": [0.1, 1.0], "iterations": "many"},
        {"values": [float("nan")]}, {"values": [0.1, float("inf")]}, {"values": [0.1, 1.0], "iterations": True},
    )]
    for text in [*texts, b"{\x80}"]:  # the last is no UTF-8, which raised UnicodeDecodeError (exit 1)
        lam.write_bytes(text if isinstance(text, bytes) else text.encode())
        for command in (("delta",), ("verify",), ("balls", "--center", 3)):
            assert run(*command, "-i", k60_csv, "--lambda", lam, "-o", out) == 2, (command, text)
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("command", (
    ("chain", "--weights-output", "{same}"),
    ("chain", "--weights-output", "{other}"),
    ("diffusion", "--eig-output", "{same}"),
    ("balls", "--center", 3, "--dot", "{same}"),
    ("balls", "--center", 3, "--dot", "{other}"),
))
def test_two_outputs_naming_one_file_exit_two_and_write_nothing(k60_csv, tmp_path, monkeypatch, command):
    """chain -o X --weights-output X exited 0 with X holding delta: the second output replaced the first."""
    calls = []
    monkeypatch.setattr(cli, "load_affinity", lambda path, spied=cli.load_affinity: calls.append(path) or spied(path))
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    spellings = {"same": out, "other": Path("sub", "..", "out")}  # the same file through another directory
    argv = [str(arg).format(**spellings) for arg in command]
    assert run(*argv, "-i", k60_csv, "-o", out) == 2
    assert calls == [] and sorted(path.name for path in tmp_path.iterdir()) == ["sub"]


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


@pytest.mark.parametrize("command", [
    ("diffusion", "--t", "nan"),
    ("balls", "--metric", "D", "--center", 25, "--t", "nan", "--radii", "0.5,1.4"),
    ("balls", "--metric", "D", "--center", 60, "--radii", "0.5,1.4"),
    ("balls", "--metric", "D", "--center", 25, "--radii", "1.4,nan"),
    ("compare", "--center", 60, "--radius-d", 1.0, "--radius-e", 4),
    ("compare", "--center", 25, "--radius-d", "nan", "--radius-e", 4),
    ("compare", "--center", 25, "--radius-d", 1.0, "--radius-e", "nan"),
    ("compare", "--center", 25, "--t", "nan", "--radius-d", 1.0, "--radius-e", 4),
    ("compare", "--center", 25, "--radius-d", 0.5),
    ("compare", "--center", 25, "--radius-f", 0.25),
    ("compare", "--center", 25, "--radius-f", 2, "--radius-e", 4),
    ("compare", "--center", 60, "--radius-f", 0.25, "--radius-e", 4),
    ("balls", "--center", 60),
    ("balls", "--metric", "D", "--center", 25, "--t", 0, "--radii", "0.5,1.4"),
    ("balls", "--metric", "E", "--center", 25, "--radii", "3,1"),
    ("balls", "--metric", "D", "--center", 25, "--radii", "0.5,1.4", "--lambda", "l.json"),
    ("compare", "--center", 25, "--radius-d", 1.0, "--radius-e", 4, "--lambda", "l.json"),
    ("balls", "--center", 25, "--t", "0.005"),
    ("balls", "--metric", "E", "--center", 25, "--radii", "1,3", "--t", "nan"),
    ("compare", "--center", 25, "--radius-f", 0.125, "--radius-e", 4, "--t", "0.005"),
])
def test_bad_parameters_exit_before_the_eigendecomposition(k60_csv, tmp_path, monkeypatch, command):
    """Every option is checked before the kernel is loaded, and the center (60 is out of range) before the sweep or eigh."""
    calls = []
    for name in ("load_affinity", "compute_lambda_sequence", "spectral_decomposition"):
        monkeypatch.setattr(cli, name, lambda *args, name=name, spied=getattr(cli, name): calls.append(name) or spied(*args))
    out = tmp_path / "out"
    assert run(command[0], "-i", k60_csv, *command[1:], "-o", out) == 2
    assert calls == (["load_affinity"] if 60 in command else []) and not out.exists()


BAD_TIME = st.sampled_from(("nan", "inf")) | st.floats(max_value=0.0).map(repr)
BAD_RADIUS = st.just("nan") | st.floats(max_value=0.0).map(repr)


@st.composite
def bad_arguments(draw):
    """A metrizable kernel of n <= 12 vertices, argv of one subcommand with one bad value, the --lambda file's text, and whether it is malformed.

    The bad values: a NaN, infinite or nonpositive --t or --lambda0; a NaN
    or nonpositive radius, or a --radius-f outside (0, 1] (other radii may
    be infinite); a center outside 0 .. n - 1; a --lambda file of k > 60
    (at n <= 12 not all its thresholds can be kernel entries), with a
    threshold below the top one that is no kernel entry, or malformed
    (malformed_lambda).  "{lam}" and "{extra}" stand for the --lambda
    file and a second output path.
    """
    n = draw(st.integers(2, 12))
    kernel = draw(metrizable_kernels(n))
    values = compute_lambda_sequence(kernel).values.tolist()
    entries = set(kernel.values.ravel().tolist())
    foreign = draw(st.floats(0.0, values[-1], exclude_max=True).filter(lambda x: x not in entries))
    deep = np.linspace(0.0, values[-1], draw(st.integers(62, 70))).tolist()
    thresholds = draw(st.sampled_from((deep, sorted(set(values[:-1]) | {foreign}) + values[-1:])))
    malformed = draw(st.booleans())
    text = draw(malformed_lambda(values)) if malformed else json.dumps({"values": thresholds, "iterations": 0})
    time, radius = draw(BAD_TIME), draw(BAD_RADIUS)
    radius_f = draw(BAD_RADIUS | st.floats(min_value=1.0, exclude_min=True).map(repr))
    good = sorted(draw(st.lists(st.floats(0.01, 100.0), min_size=1, max_size=3, unique=True)))
    at = draw(st.integers(0, len(good)))
    radii, bad_radii = ",".join(map(repr, good)), ",".join(map(repr, good[:at])) + f",{radius}," + ",".join(map(repr, good[at:]))
    metric = draw(st.sampled_from("DE"))
    center, bad_center = f"--center={draw(st.integers(0, n - 1))}", f"--center={draw(st.integers(-1000, -1) | st.integers(n, n + 1000))}"
    argv = draw(st.sampled_from([
        ["lambda", f"--lambda0={time}"],
        ["delta", "--lambda={lam}"],
        ["chain", "--lambda={lam}", "--weights-output={extra}"],
        ["diffusion", f"--t={time}", "--eig-output={extra}"],
        ["balls", bad_center, "--dot={extra}"],
        ["balls", center, "--lambda={lam}", "--dot={extra}"],
        ["balls", "--metric=D", center, f"--t={time}", f"--radii={radii}", "--dot={extra}"],
        ["balls", f"--metric={metric}", center, f"--radii={bad_radii.strip(',')}", "--dot={extra}"],
        ["balls", f"--metric={metric}", bad_center, f"--radii={radii}"],
        ["verify", "--lambda={lam}"],
        ["compare", bad_center, "--radius-f=0.5", f"--radius-{metric.lower()}=1.0"],
        ["compare", center, "--lambda={lam}", "--radius-f=0.5", "--radius-e=1.0"],
        ["compare", center, f"--radius-f={radius_f}", "--radius-e=1.0"],
        ["compare", center, f"--radius-{metric.lower()}={radius}", "--radius-f=0.5"],
        ["compare", center, f"--t={time}", "--radius-d=1.0", "--radius-e=1.0"],
    ]))
    return kernel, argv, text, malformed and "--lambda={lam}" in argv


@st.composite
def malformed_lambda(draw, values):
    """The text of a threshold JSON that no LambdaSequence accepts, from a valid list of values.

    One value made NaN, infinite or negative; a repeated value, in
    ascending or descending order; no values; or an iterations count
    that is a bool, a float or negative.
    """
    values, iterations = list(values), 0
    flaw = draw(st.sampled_from(("value", "order", "empty", "iterations")))
    if flaw == "value":
        values[draw(st.integers(0, len(values) - 1))] = draw(
            st.sampled_from((math.nan, math.inf, -math.inf)) | st.floats(max_value=-math.ulp(0.0))
        )
    elif flaw == "order":
        values = sorted([*values, draw(st.sampled_from(values))], reverse=draw(st.booleans()))
    elif flaw == "empty":
        values = []
    else:
        iterations = draw(st.booleans() | st.floats() | st.integers(max_value=-1))
    return json.dumps({"values": values, "iterations": iterations})


@seed(11)
@given(bad_arguments())
@example((newtonian_kernel(4, 1.0, 2.0), ["balls", "--metric=E", "--center=0", "--radii=-1.0,2.0"], '{"values": [1.0]}', False))
@example((newtonian_kernel(4, 1.0, 2.0), ["verify", "--lambda={lam}"], '{"values": [NaN]}', True))
@settings(max_examples=200, deadline=None)
def test_bad_arguments_exit_two_or_three_and_write_nothing(case):
    """Every subcommand refuses a bad value with exit 2 or 3 and leaves none of its output paths behind; a malformed --lambda file before the load."""
    kernel, argv, text, malformed = case
    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        paths = {"lam": directory / "l.json", "extra": directory / "extra", "out": directory / "out"}
        write_matrix_csv(kernel.values, directory / "k.csv")
        paths["lam"].write_text(text)
        argv = [arg.format(**paths) for arg in argv] + ["-i", str(directory / "k.csv"), "-o", str(paths["out"])]
        with mock.patch.object(cli, "load_affinity", wraps=cli.load_affinity) as load:
            assert main(argv) in (2, 3)
        assert not (malformed and load.called)
        assert not paths["out"].exists() and not paths["extra"].exists()


def test_numeric_failure_exits_three(k60_csv, tmp_path, monkeypatch):
    def explode(kernel):
        raise NumericError("synthetic non-convergence")

    monkeypatch.setattr(cli, "spectral_decomposition", explode)
    assert run("diffusion", "-i", k60_csv, "-o", tmp_path / "dt.csv") == 3


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
