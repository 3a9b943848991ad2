"""Byte-level goldens: selection documents, metrics reports and sweep rows.

Each digest is the SHA-256 of the outputs of a fixed run of commands, so
any change to a selected index, a figure or the formatting of a document
shows up here.  The inputs are both fixtures and a small hand-built graph
whose second component the central concept cannot reach, which pins depth
relaxation and the disconnected fallback too.  ``random`` is left out: its
stream belongs to the installed numpy.
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


def sweep_digest(name: str, depth: int) -> str:
    rows, _ = kq.run_sweep(load(name), depth=depth, runs=1, seed=0)
    table = kq.emit_sweep_table([r for r in rows if r.strategy != "random"])
    return hashlib.sha256(table).hexdigest()


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


@pytest.mark.parametrize("depth", [0, 2])
@pytest.mark.parametrize("name", ["bruce", "hangzhou", "stranded"])
def test_sweep_rows_bytes(name, depth):
    assert sweep_digest(name, depth) == SWEEP_DIGESTS[name, depth]
