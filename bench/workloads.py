"""The benchmark's workloads: inputs made from a seed, and the oracles that check outputs.

Every oracle here is written without the library's own code paths: the
power-law kernel and its thresholds come from their closed form, shortest
paths come from scipy, compositions use integer matrix products, and the
spectral reference uses LAPACK through numpy.linalg.eigh.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PALETTE = ("yellow", "green", "turquoise", "lavender", "purple")


# ---------------------------------------------------------------- helpers


def read_csv(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def read_json(path):
    return json.loads(Path(path).read_text())


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digest(matrix) -> str:
    return hashlib.sha256(np.ascontiguousarray(matrix, dtype=np.float64).tobytes()).hexdigest()


def power_law(n: int) -> np.ndarray:
    """|i - j| ** -1 with diagonal 2: the paper's kernel at alpha = 1."""
    idx = np.arange(n)
    gaps = np.abs(idx[:, None] - idx[None, :]).astype(np.float64)
    with np.errstate(divide="ignore"):
        vals = 1.0 / gaps
    np.fill_diagonal(vals, 2.0)
    return vals


def power_law_thresholds(n: int) -> list:
    """Closed form of the sweep on the power-law kernel: 1/(n-1) and the powers 3**-j."""
    values = {1.0 / (n - 1)}
    power = 1
    while power <= n - 1:
        values.add(1.0 / power)
        power *= 3
    return sorted(values)


def dyadic(kernel: np.ndarray, thresholds) -> np.ndarray:
    """2 ** -(number of thresholds at or below K), zero on the diagonal."""
    depth = (kernel[:, :, None] >= np.asarray(thresholds)[None, None, :]).sum(axis=2)
    out = np.ldexp(1.0, -depth)
    np.fill_diagonal(out, 0.0)
    return out


def level_bands(thresholds, row) -> list:
    """Band of each vertex in affinity_bands: the count of thresholds at or above its affinity."""
    return (np.asarray(thresholds)[None, :] >= np.asarray(row)[:, None]).sum(axis=1).tolist()


def shortest_paths(weights: np.ndarray) -> np.ndarray:
    from scipy.sparse.csgraph import shortest_path

    return shortest_path(weights, method="FW", directed=False)


def expected_dot(kernel: np.ndarray, band_of) -> str:
    n = kernel.shape[0]
    palette = [PALETTE[b % len(PALETTE)] for b in range(max(band_of) + 1)]
    lines = ["graph affinity {", "  node [style=filled];"]
    lines += [f"  {v} [fillcolor={palette[band_of[v]]}];" for v in range(n)]
    rows, cols = np.nonzero(np.triu(kernel > 0, 1))
    lines += [f"  {i} -- {j};" for i, j in zip(rows.tolist(), cols.tolist())]
    lines.append("}")
    return "\n".join(lines) + "\n"


def mismatch(name: str, got, want) -> list:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    bad = int(np.count_nonzero(got != want))
    return [f"{name}: {bad} entries differ from the oracle"] if bad else []


# ---------------------------------------------------------------- CLI workloads


@dataclass(frozen=True)
class PathWorkload:
    """The power-law kernel through the whole metric pipeline of the CLI."""

    name: str = "path-cli-800"
    n: int = 800
    kind: str = "cli"
    hashed: tuple = ("kernel.csv", "lambda.json", "delta.csv", "weights.csv", "chain.csv",
                     "verify.json", "bands.json", "bands.dot", "compare.json")

    def params(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        margin = self.n // 8
        return {
            "center": int(rng.integers(margin, self.n - margin)),
            "radius_f": 2.0 ** -int(rng.integers(2, 5)),
            "radius_e": float(rng.integers(2, 21)),
        }

    def setup_argv(self, work: Path) -> list:
        return []

    def commands(self, work: Path, p: dict) -> list:
        k, lam = str(work / "kernel.csv"), str(work / "lambda.json")

        def out(name):
            return str(work / name)

        return [
            ("gen", ["gen", "--n", str(self.n), "--alpha", "1", "-o", k]),
            ("lambda", ["lambda", "-i", k, "-o", lam]),
            ("delta", ["delta", "-i", k, "--lambda", lam, "-o", out("delta.csv")]),
            ("chain", ["chain", "-i", k, "--lambda", lam, "-o", out("chain.csv"),
                       "--weights-output", out("weights.csv")]),
            ("verify", ["verify", "-i", k, "-o", out("verify.json")]),
            ("balls", ["balls", "-i", k, "--lambda", lam, "--metric", "F", "--center", str(p["center"]),
                       "-o", out("bands.json"), "--dot", out("bands.dot")]),
            ("compare", ["compare", "-i", k, "--center", str(p["center"]), "--radius-f", repr(p["radius_f"]),
                         "--radius-e", repr(p["radius_e"]), "-o", out("compare.json")]),
        ]

    def oracle(self) -> dict:
        kernel = power_law(self.n)
        thresholds = power_law_thresholds(self.n)
        return {"kernel": kernel, "thresholds": thresholds, "delta": dyadic(kernel, thresholds)}

    def checks(self, work: Path, p: dict, ref: dict) -> dict:
        kernel, thresholds, delta = ref["kernel"], ref["thresholds"], ref["delta"]
        center = p["center"]

        def gen():
            return mismatch("kernel.csv", read_csv(work / "kernel.csv"), kernel)

        def lam():
            got = read_json(work / "lambda.json")["values"]
            return [] if got == thresholds else [f"lambda.json thresholds {got} != {thresholds}"]

        def delta_check():
            return mismatch("delta.csv", read_csv(work / "delta.csv"), delta)

        def chain():
            weights = read_csv(work / "weights.csv")
            return (mismatch("weights.csv", weights, delta)
                    + mismatch("chain.csv", read_csv(work / "chain.csv"), shortest_paths(weights)))

        def verify():
            report = read_json(work / "verify.json")
            problems = [f"verify check {name} failed" for name, ok in report["checks"].items() if not ok]
            if not report["passed"] or report["thresholds"] != thresholds:
                problems.append("verify.json: not passed or thresholds differ")
            return problems

        def balls():
            bands = read_json(work / "bands.json")
            band_of = level_bands(thresholds, kernel[center])
            problems = mismatch("bands.json band_of", bands["band_of"], band_of)
            if bands["center"] != center or bands["radii"] != thresholds:
                problems.append("bands.json: center or radii differ")
            if (work / "bands.dot").read_text() != expected_dot(kernel, band_of):
                problems.append("bands.dot differs from the expected coloring")
            return problems

        def compare():
            got = read_json(work / "compare.json")
            members_f = {int(v) for v in np.nonzero(delta[center] < p["radius_f"])[0]} | {center}
            members_e = {v for v in range(self.n) if abs(v - center) < p["radius_e"]}
            jaccard = len(members_f & members_e) / len(members_f | members_e)
            want = {"F": sorted(members_f), "E": sorted(members_e)}
            if got["members"] != want or got["jaccard"] != {"E|F": jaccard} or got["center"] != center:
                return ["compare.json: balls or jaccard differ from the oracle"]
            return []

        return {"gen": gen, "lambda": lam, "delta": delta_check, "chain": chain,
                "verify": verify, "balls": balls, "compare": compare}


@dataclass(frozen=True)
class SpectralWorkload:
    """The power-law kernel through the diffusion layer of the CLI."""

    name: str = "spectral-cli-200"
    n: int = 200
    t: float = 0.005
    # Every band is non-empty for centers 4..195 on the n = 200 reference.
    radii: tuple = (1.408, 1.40822, 1.40829, 1.40832)
    kind: str = "cli"
    hashed: tuple = ()

    def params(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        margin = self.n // 10
        return {"center": int(rng.integers(margin, self.n - margin))}

    def setup_argv(self, work: Path) -> list:
        return ["gen", "--n", str(self.n), "--alpha", "1", "-o", str(work / "kernel.csv")]

    def commands(self, work: Path, p: dict) -> list:
        k = str(work / "kernel.csv")
        radii = ",".join(repr(r) for r in self.radii)
        return [
            ("diffusion", ["diffusion", "-i", k, "--t", repr(self.t), "-o", str(work / "diffusion.csv"),
                           "--eig-output", str(work / "eig.json")]),
            ("balls", ["balls", "-i", k, "--metric", "D", "--center", str(p["center"]), "--radii", radii,
                       "--t", repr(self.t), "-o", str(work / "bands.json"), "--dot", str(work / "bands.dot")]),
        ]

    def oracle(self) -> dict:
        kernel = power_law(self.n)
        inv_sqrt = 1.0 / np.sqrt(kernel.sum(axis=1))
        generator = kernel * np.outer(inv_sqrt, inv_sqrt) - np.eye(self.n)
        eigenvalues, vectors = np.linalg.eigh(generator)
        coords = vectors * np.exp(self.t * eigenvalues)[None, :]
        distances = np.stack([np.sqrt(((coords - row) ** 2).sum(axis=1)) for row in coords])
        np.fill_diagonal(distances, 0.0)
        return {"kernel": kernel, "generator": generator, "distances": distances}

    def checks(self, work: Path, p: dict, ref: dict) -> dict:
        center = p["center"]

        def diffusion():
            got = read_csv(work / "diffusion.csv")
            problems = []
            if got.shape != ref["distances"].shape or np.abs(got - ref["distances"]).max() > 1e-9:
                problems.append("diffusion.csv differs from the eigh reference by more than 1e-9")
            eig = read_json(work / "eig.json")
            values = np.asarray(eig["eigenvalues"])
            vectors = np.asarray(eig["eigenvectors"])
            rebuilt = (vectors * values[None, :]) @ vectors.T
            if not (np.diff(values) >= 0).all() or np.abs(rebuilt - ref["generator"]).max() > 1e-8:
                problems.append("eig.json does not reconstruct the generator to 1e-8")
            return problems

        def balls():
            bands = read_json(work / "bands.json")
            row = ref["distances"][center]
            want = np.searchsorted(self.radii, row, side="right")
            near_edge = np.abs(row[:, None] - np.asarray(self.radii)[None, :]).min(axis=1) <= 1e-9
            got = np.asarray(bands["band_of"])
            problems = []
            if got.shape != want.shape or ((got != want) & ~near_edge).any():
                problems.append("bands.json band_of differs from the eigh reference")
            elif np.bincount(got, minlength=len(self.radii) + 1).min() == 0:
                problems.append("bands.json has an empty band")
            if bands["center"] != center or bands["radii"] != list(self.radii):
                problems.append("bands.json: center or radii differ")
            if (work / "bands.dot").read_text() != expected_dot(ref["kernel"], bands["band_of"]):
                problems.append("bands.dot differs from the expected coloring")
            return problems

        return {"diffusion": diffusion, "balls": balls}


# ---------------------------------------------------------------- corpus workload


@dataclass(frozen=True)
class CorpusWorkload:
    """Many small kernels verified in-process: half shallow, half deep."""

    name: str = "corpus-lib-mixed"
    size: int = 200
    n_low: int = 20
    n_high: int = 200
    kind: str = "corpus"
    hashed: tuple = ()

    def make(self, seed: int) -> list:
        """(kind, values, center) per kernel; n is stratified over [n_low, n_high] per kind.

        Stratifying n keeps the total cubic work of a corpus nearly the same
        for every seed, so the seed changes the kernels and not the load.
        """
        rng = np.random.default_rng(seed)
        items = []
        for kind, count in (("uniform", self.size // 2), ("power", self.size - self.size // 2)):
            span = self.n_high - self.n_low + 1
            sizes = self.n_low + ((np.arange(count) + rng.random(count)) * span / count).astype(int)
            for n in sizes.tolist():
                if kind == "uniform":
                    upper = np.triu(rng.random((n, n)), 1)
                    vals = upper + upper.T
                    np.fill_diagonal(vals, 2.0)
                else:
                    noise = np.triu(rng.uniform(0.9, 1.1, (n, n)), 1)
                    noise = noise + noise.T
                    np.fill_diagonal(noise, 1.0)
                    vals = power_law(n) * noise
                items.append((kind, vals, int(rng.integers(n))))
        return [items[i] for i in rng.permutation(len(items))]


def verify_with_library(gm, kernel, center) -> dict:
    """The verify command's full set of checks plus affinity bands, through the library API."""
    gm.validate_kernel(kernel)
    seq = gm.compute_lambda_sequence(kernel)
    levels = gm.level_relations(kernel, seq)
    nesting = all(gm.is_subset(gm.power3(levels[i]), levels[i - 1]) for i in range(1, seq.k + 1))
    delta = gm.delta_matrix(kernel, seq)
    chain = gm.chain_metric(kernel, seq)
    sandwich = gm.verify_sandwich(kernel, seq, chain)
    equivalence = gm.verify_equivalence(delta, chain)
    qtri = gm.quasi_triangle_constant(delta)
    bands = gm.affinity_bands(kernel, seq, center)
    return {
        "thresholds": seq.values, "delta": delta.values, "chain": chain.values,
        "qtri": qtri, "band_of": bands.band_of,
        "passed": nesting and sandwich.passed and equivalence.passed and qtri <= 8.0,
    }


def sweep_oracle(kernel: np.ndarray) -> list:
    """The descending threshold sweep, composing with integer matrix products."""
    idx = np.arange(kernel.shape[0])
    descending = [float(kernel[np.abs(idx[:, None] - idx[None, :]) <= 1].min())]
    floor = float(kernel.min())
    while True:
        level = (kernel >= descending[-1]).astype(np.int32)
        square = ((level @ level) > 0).astype(np.int32)
        nxt = float(kernel[(square @ level) > 0].min())
        if nxt >= descending[-1]:
            break
        descending.append(nxt)
        if nxt <= floor:
            break
    return descending[::-1]


def qtri_oracle(delta: np.ndarray) -> float:
    """max over x != z of delta(x, z) / min over y not in {x, z} of delta(x, y) + delta(y, z)."""
    n = delta.shape[0]
    worst = 0.0
    for x in range(n):
        through = delta[x][:, None] + delta
        through[x, :] = np.inf
        through[np.arange(n), np.arange(n)] = np.inf
        best = through.min(axis=0)
        best[x] = np.inf
        worst = max(worst, float((delta[x] / best).max()))
    return worst


def check_corpus_kernel(values: np.ndarray, center: int, out: dict) -> list:
    """Oracle checks of one kernel's outputs: nesting, sandwich, equivalence, qtri, bands.

    out["delta"] and out["chain"] are digests of the library's matrices;
    they must equal the digests of the oracle's, bit for bit.
    """
    thresholds = sweep_oracle(values)
    problems = []
    if not out["passed"]:
        problems.append("library checks did not all pass")
    if [float(x) for x in out["thresholds"]] != thresholds:
        return problems + ["thresholds differ from the sweep oracle"]
    levels = [(values >= t).astype(np.int32) for t in thresholds]
    for i in range(1, len(levels)):
        cube = ((levels[i] @ levels[i]) > 0).astype(np.int32) @ levels[i]
        if ((cube > 0) & (levels[i - 1] == 0)).any():
            problems.append(f"nesting fails at level {i}")
    delta = dyadic(values, thresholds)
    chain = shortest_paths(delta)
    problems += [f"{name} differs from the oracle" for name, matrix in (("delta", delta), ("chain", chain))
                 if digest(matrix) != out[name]]
    for i in range(1, len(levels)):
        ball = chain < 2.0 ** -i
        if ((levels[i] > 0) & ~ball).any() or (ball & (levels[i - 1] == 0)).any():
            problems.append(f"sandwich fails at level {i}")
    off = chain > 0
    ratios = chain[off] / delta[off]
    if ratios.size and (ratios.min() < 0.125 or ratios.max() > 2.0):
        problems.append("equivalence band [1/8, 2] violated")
    qtri = qtri_oracle(delta)
    if qtri > 8.0 or not math.isclose(out["qtri"], qtri, rel_tol=1e-12):
        problems.append(f"quasi-triangle constant {out['qtri']} (oracle {qtri})")
    problems += mismatch("band_of", out["band_of"], level_bands(thresholds, values[center]))
    return problems


WORKLOADS = {w.name: w for w in (PathWorkload(), SpectralWorkload(), CorpusWorkload())}


def to_spec(workload) -> str:
    return json.dumps(dataclasses.asdict(workload))


def from_spec(spec: str):
    fields = json.loads(spec)
    cls = type(WORKLOADS[fields["name"]])
    return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})
