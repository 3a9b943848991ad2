"""Byte-level goldens: selection documents, metrics reports and sweep rows.

Each digest is the SHA-256 of the outputs of a fixed run of commands, so
any change to a selected index, a figure or the formatting of a document
shows up here.  The inputs are both fixtures and a small hand-built graph
whose second component the central concept cannot reach, which pins depth
relaxation and the disconnected fallback too.  The metrics digests also
cover a recovered text read from a file, case-insensitive matching and
both ends of the phi range.  ``random`` has digests of its own: selection
documents and their metrics replays over several seeds, one past 2**64,
and ``sweep`` tables with their per-run dumps.  They were generated with
numpy 2.4.6's ``default_rng`` and ``SeedSequence``.  ``budget`` has one
digest over the README example, zero power (nothing transmittable), an
infinite capacity and a quadruple wider than the capacity.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

import kgsqueeze as kq
from kgsqueeze.cli import main

from conftest import FIXTURE_DIR

STRATEGIES = tuple(s for s in kq.STRATEGIES if s != "random")
RATIOS = ("0.05", "0.3", "0.5", "0.9", "1.0")
DEPTHS = ("0", "1", "2", "9")
RANDOM_DEPTHS = ("0", "2")
RANDOM_SEEDS = ("0", "7", "123456789", str(2**64 + 1))
METRICS_RATIOS = ("0.05", "0.5", "1.0")
METRICS_FLAGS = (
    ["--recovered", "RECOVERED"],
    ["--case-insensitive"],
    ["--recovered", "RECOVERED", "--case-insensitive"],
    ["--phi", "0"],
    ["--phi", "1"],
)


def stranded_graph() -> kq.ProbabilityGraph:
    """A five-entity component around ``a`` plus an unreachable ``x-y-z`` path."""
    names = [("a", "Ada"), ("b", "Bob"), ("c", "Cy"), ("d", "Dee"), ("e", "Eve"),
             ("x", "Xan"), ("y", "Yul"), ("z", "Zed")]
    entities = [kq.Entity(i, s, n) for n, (i, s) in enumerate(names)]
    text = ("Ada met Bob. Bob knew Cy and Ada. Cy saw Dee. Dee wrote to Eve. "
            "Xan met Yul. Yul and Zed and Yul. Ada, Ada.")
    candidates = [
        ("a", "b", {"r1": 0.9, "r2": 0.1}),
        ("b", "c", {"r1": 0.6, "r2": 0.4}),
        ("c", "d", {"r1": 1.0}),
        ("a", "b", {"r2": 0.7, "r3": 0.3}),
        ("x", "y", {"r1": 0.5, "r2": 0.5}),
        ("d", "e", {"r1": 0.8, "r2": 0.2}),
        ("y", "z", {"r3": 1.0}),
        ("a", "c", {"r1": 0.3, "r2": 0.3, "r3": 0.4}),
    ]
    return kq.build_graph(text, ("r1", "r2", "r3"), entities, candidates)


def load(name: str) -> kq.ProbabilityGraph:
    if name == "stranded":
        return stranded_graph()
    return kq.parse_graph_document((FIXTURE_DIR / f"{name}.json").read_bytes())


def run(argv: list[str]) -> bytes:
    """Exit code, stdout and stderr of one in-process CLI call."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    return b"%d\n" % code + out.buffer.getvalue() + err.getvalue().encode()


def select_and_metrics_digest(name: str, strategy: str, directory) -> str:
    graph_path = directory / "graph.json"
    graph_path.write_bytes(kq.serialize_graph(load(name)))
    digest = hashlib.sha256()
    for ratio in RATIOS:
        for depth in DEPTHS:
            selection = directory / "selection.json"
            digest.update(run(["select", "--input", str(graph_path), "--k", ratio,
                               "--depth", depth, "--strategy", strategy,
                               "--output", str(selection)]))
            digest.update(selection.read_bytes())
            digest.update(run(["metrics", "--input", str(graph_path),
                               "--selection", str(selection)]))
    return digest.hexdigest()


def random_select_digest(name: str, directory) -> str:
    graph_path = directory / "graph.json"
    graph_path.write_bytes(kq.serialize_graph(load(name)))
    selection = directory / "selection.json"
    digest = hashlib.sha256()
    for ratio in RATIOS:
        for depth in RANDOM_DEPTHS:
            for seed in RANDOM_SEEDS:
                digest.update(run(["select", "--input", str(graph_path), "--k", ratio,
                                   "--depth", depth, "--strategy", "random",
                                   "--seed", seed, "--output", str(selection)]))
                digest.update(selection.read_bytes())
                digest.update(run(["metrics", "--input", str(graph_path),
                                   "--selection", str(selection)]))
    return digest.hexdigest()


def random_sweep_digest(name: str, directory) -> str:
    """``sweep --seed 1 --runs 3 --dump-runs``: every strategy's row, the
    random baseline's included, and each random run."""
    graph_path = directory / "graph.json"
    graph_path.write_bytes(kq.serialize_graph(load(name)))
    table, runs = directory / "table.csv", directory / "runs.csv"
    digest = hashlib.sha256(run(["sweep", "--input", str(graph_path), "--seed", "1",
                                 "--runs", "3", "--output", str(table),
                                 "--dump-runs", str(runs)]))
    digest.update(table.read_bytes())
    digest.update(runs.read_bytes())
    return digest.hexdigest()


def recovered_text(graph: kq.ProbabilityGraph) -> str:
    """The first two thirds of the graph's words plus its first five again,
    every third word upper-cased, separated by alternating whitespace runs."""
    words = graph.text.split()
    words = words[: 2 * len(words) // 3] + words[:5]
    return "".join(
        (w.upper() if i % 3 == 0 else w) + (" \n\t " if i % 2 else " ")
        for i, w in enumerate(words)
    )


def metrics_flags_digest(name: str, strategy: str, directory) -> str:
    graph = load(name)
    graph_path = directory / "graph.json"
    graph_path.write_bytes(kq.serialize_graph(graph))
    recovered = directory / "recovered.txt"
    recovered.write_text(recovered_text(graph), encoding="utf-8")
    selection = directory / "selection.json"
    digest = hashlib.sha256()
    for ratio in METRICS_RATIOS:
        digest.update(run(["select", "--input", str(graph_path), "--k", ratio,
                           "--depth", "2", "--strategy", strategy,
                           "--output", str(selection)]))
        for flags in METRICS_FLAGS:
            flags = [str(recovered) if f == "RECOVERED" else f for f in flags]
            digest.update(run(["metrics", "--input", str(graph_path),
                               "--selection", str(selection), *flags]))
    return digest.hexdigest()


def sweep_digest(name: str, depth: int) -> str:
    rows, _ = kq.run_sweep(load(name), depth=depth, runs=1, seed=0)
    table = kq.emit_sweep_table([r for r in rows if r.strategy != "random"])
    return hashlib.sha256(table).hexdigest()


BUDGET_BASE = ["budget", "--time", "1", "--bandwidth", "1000", "--power", "3",
               "--gain", "1", "--noise", "1", "--bits-per-quad", "400",
               "--graph-size", "10"]


def with_flags(argv: list[str], **flags: str) -> list[str]:
    argv = list(argv)
    for flag, value in flags.items():
        argv[argv.index("--" + flag.replace("_", "-")) + 1] = value
    return argv


BUDGET_CASES = (
    BUDGET_BASE,
    with_flags(BUDGET_BASE, power="0"),
    with_flags(BUDGET_BASE, time="1e308", bandwidth="1e308", power="1e308",
               gain="1e308", noise="1e308"),
    with_flags(BUDGET_BASE, bits_per_quad="2001"),
)


def budget_digest() -> str:
    digest = hashlib.sha256()
    for argv in BUDGET_CASES:
        digest.update(run(argv))
    return digest.hexdigest()


SELECT_DIGESTS = {
    ("bruce", "proposed"):
        "799981c578c3f9e6d7626e6cfcaa92f4ced4694a5ce8c03616e0d0470d311278",
    ("bruce", "entity_freq_desc"):
        "b6a6e2a049d74355d053e9450e7133a8a0cee77a5c7c1daa1737d3900ce7c7ac",
    ("bruce", "entity_freq_asc"):
        "a33a995d71e72bfd64e8a2e0274ebb91e0f4706eec891518f810477b5c863a11",
    ("bruce", "order_front"):
        "8f1bc8d0892e76c2020b8be4f565f807c198541b0d7fd1c2da2b4fe99f7269ca",
    ("bruce", "order_back"):
        "17bb257ffd1c3956d5dd5bc2f3631c70c32223d83f8a9cb2ee7a1e0fdab53b73",
    ("hangzhou", "proposed"):
        "6d90f79eeb927503f2574a91047c38cfddc9e1d05e0c825157a2ed9f777dbe54",
    ("hangzhou", "entity_freq_desc"):
        "f3e62f57c810f353eba243951dc5869d6dfa2be80dbdd50994cbab4018a4c7ae",
    ("hangzhou", "entity_freq_asc"):
        "590e15341470de7beb8bfdb09d7851cb1ff2ef6983a01278fe235a8017a11b30",
    ("hangzhou", "order_front"):
        "ae25e73953a159fda290f899c91e22340998ec2799efe7586f3d5c2265039a59",
    ("hangzhou", "order_back"):
        "3965b0632ddf74fb6c02fc74483b55ea40af95f1304efe66dce7242b6923c94f",
    ("stranded", "proposed"):
        "6d662fd6b3f7e3522bd3c5f1917d99b19408a76eb223bfbc0567b0778f4d9bcb",
    ("stranded", "entity_freq_desc"):
        "9bc3cb258ab69344bb65f837721d7ae6b4dc0d4c936080c96e22c4263e9879ca",
    ("stranded", "entity_freq_asc"):
        "8d1c0e7adb508eddf1c50ba48931e504d3cc2fc961e0ea1ced2791e4b7aa8971",
    ("stranded", "order_front"):
        "4567b0ba2597285ee95c1f728435fe7d6a3c360f65f05889785fa4c043419f47",
    ("stranded", "order_back"):
        "e58b74185d2786d62825f9961c338de086b03401924b35d453042bd7d455730d",
}

METRICS_FLAGS_DIGESTS = {
    ("bruce", "proposed"):
        "85fdeee02fd7f5d79b57287af3e149a9264b638cba3bb4e864b06339c9fb2ce0",
    ("bruce", "entity_freq_desc"):
        "2dab787c57d05afe993cab2c96af1c644323b147f74dccc3b7e938345820d21f",
    ("bruce", "entity_freq_asc"):
        "39503502948e40c481593c99416abf1c997bd66ee80fb500976ab4e61e09bcdb",
    ("bruce", "order_front"):
        "85fdeee02fd7f5d79b57287af3e149a9264b638cba3bb4e864b06339c9fb2ce0",
    ("bruce", "order_back"):
        "7eacf06b12d71da0f2e349e98d002dbc5c3996449295b945da0d2354b39caedc",
    ("hangzhou", "proposed"):
        "30af278764d01fcb8cd289d195aa9c4270402f7f4813527ef0ffc63b100b92b4",
    ("hangzhou", "entity_freq_desc"):
        "9b0e488d4dfa20d23c30ecdf625cb090829ed1e7576ac19b01e4c947958df545",
    ("hangzhou", "entity_freq_asc"):
        "63d125832c2e842ff07bcf0343585e7f60b16765c5d02e3abd0be8f316f7d549",
    ("hangzhou", "order_front"):
        "26512473895e9bf2b8d7a6f6ec63cffdb4ab647645b12c7071e3dc08c3a199aa",
    ("hangzhou", "order_back"):
        "9650c96332ae2613bd8abab6d3e3816d9aea1afc19c5b4f4b3cbb47ae921a115",
    ("stranded", "proposed"):
        "dbbdc593f2d39022c84980b1fac0a532f684274048bb89eb201f5ed7cc7d58d1",
    ("stranded", "entity_freq_desc"):
        "7430285902f64eee856815ff8d4bcb80f5a733b5f747a5e32e5688939109695e",
    ("stranded", "entity_freq_asc"):
        "bef3f583d25ca7caca88b40c1602470888ff98b1caa9860f386ddbad34d9fc0f",
    ("stranded", "order_front"):
        "891e5c99c4ff793ae02f4f12d2e3569a824486ed144bbb1d263b0d1092a61301",
    ("stranded", "order_back"):
        "9a0997a499ba2066198689603ff7b87f1f50c2c533576867a7aa3fd3fb31ac07",
}

RANDOM_SELECT_DIGESTS = {
    "bruce": "9a134f7b838202eb5d37d01d1d6f93379bfbc1ff651deaced124e1bae419b4ed",
    "hangzhou": "bf741615e4d0d0eec23fdf83d0b73538f617ca64aa17718fd0af2648b321f536",
    "stranded": "6371bc321f4184bcf1a7771e0e35eda375adf9aa3acd0982c624f075c5fbeb25",
}

RANDOM_SWEEP_DIGESTS = {
    "bruce": "63436eacf39f2d84413a60048f477f7f86620105326698d5dea8a7846177fe4f",
    "hangzhou": "a75307fe74fee4db54b2f686596edf3f262108e45dad5dd5cd9ddcba846172ac",
    "stranded": "6822283d22967f8a4a06a157fd73169c3c93d0e8ae513ded05824d9590052a58",
}

BUDGET_DIGEST = "591fd3a22657bddb3ba6bd5b3d9ccb915e3da59d421be111687c9ec14346cc5f"

SWEEP_DIGESTS = {
    ("bruce", 0): "0189538eb9c638d96348c343864220fba600275f5978db639a6e5b487526dc7b",
    ("bruce", 2): "463ccf4e0dc6b3498a32fbcc53cbe892e571dd8bdda22c3211f7d6cb3ba848d6",
    ("hangzhou", 0): "529ce9707b69aa64466c06eb7e1c73d2a28013179134095ed76031967d3a9179",
    ("hangzhou", 2): "11d2cc622d7c91bed6682a82410318e19af30a213137c4cf2579d14498665339",
    ("stranded", 0): "34f082e5a6c3b89d894f0b4238251b05a56aecd8ec10eaf50202df014fd3c11a",
    ("stranded", 2): "bf0a806ef01ad554236b520bf1bc6f04b4188fdb7624ecc07acda93470ecc30f",
}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", ["bruce", "hangzhou", "stranded"])
def test_select_and_metrics_bytes(name, strategy, tmp_path):
    assert select_and_metrics_digest(name, strategy, tmp_path) == (
        SELECT_DIGESTS[name, strategy]
    )


@pytest.mark.parametrize("name", ["bruce", "hangzhou", "stranded"])
def test_random_select_and_metrics_bytes(name, tmp_path):
    assert random_select_digest(name, tmp_path) == RANDOM_SELECT_DIGESTS[name]


@pytest.mark.parametrize("name", ["bruce", "hangzhou", "stranded"])
def test_random_sweep_bytes(name, tmp_path):
    assert random_sweep_digest(name, tmp_path) == RANDOM_SWEEP_DIGESTS[name]


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("name", ["bruce", "hangzhou", "stranded"])
def test_sweep_rows_bytes(name, depth):
    assert sweep_digest(name, depth) == SWEEP_DIGESTS[name, depth]


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", ["bruce", "hangzhou", "stranded"])
def test_metrics_flags_bytes(name, strategy, tmp_path):
    assert metrics_flags_digest(name, strategy, tmp_path) == (
        METRICS_FLAGS_DIGESTS[name, strategy]
    )


def test_budget_bytes():
    assert budget_digest() == BUDGET_DIGEST
