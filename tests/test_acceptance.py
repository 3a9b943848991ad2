"""Acceptance gate: ten checks, one printed verdict line per criterion.

Each test exercises one guarantee end to end and emits
``[criterion N] PASS/FAIL detail`` through the terminal reporter, so a
plain ``pytest -v`` run shows the whole scorecard.  Criterion 7 scores
recovered text from the built-in verbalizer, not a generative model.
"""

import itertools
import json
import time
from math import fsum, isinf

import mpmath
import numpy as np
import pytest

import kgsqueeze as kq
from kgsqueeze.cli import main

from conftest import FIXTURE_DIR, bfs_distances, random_confidences, random_graph

BASELINES = tuple(s for s in kq.STRATEGIES if s != "proposed")
K_GRID = [0.1 + 0.1 * i for i in range(10)]


@pytest.fixture(scope="session")
def verdict(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(number, ok, detail):
        line = f"[criterion {number}] {'PASS' if ok else 'FAIL'} {detail}"
        if reporter is not None:
            reporter.write_line("")
            reporter.write_line(line)
        else:
            print(line)
        assert ok, line

    return emit


def all_fixtures():
    return [
        kq.parse_graph_document(path.read_bytes())
        for path in sorted(FIXTURE_DIR.glob("*.json"))
    ]


def oracle_entropy(probabilities):
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for p in probabilities:
            if p > 0.0:
                mp = mpmath.mpf(p)
                total -= mp * mpmath.log(mp) / mpmath.log(2)
        return float(total)


def test_criterion_01_entropy_correctness(verdict):
    start = time.perf_counter()
    uniform = kq.RelationDistribution(
        tuple(f"r{i}" for i in range(16)), (1.0 / 16,) * 16
    )
    uniform_error = abs(kq.relation_entropy(uniform) - 4.0)
    one_hot = kq.RelationDistribution(("r0", "r1", "r2"), (0.0, 1.0, 0.0))
    one_hot_value = kq.relation_entropy(one_hot)

    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(1000):
        size = int(rng.integers(2, 33))
        labels = tuple(f"r{i}" for i in range(size))
        conf = random_confidences(rng, labels)
        values = tuple(conf.get(label, 0.0) for label in labels)
        got = kq.relation_entropy(kq.RelationDistribution(labels, values))
        worst = max(worst, abs(got - oracle_entropy(values)))
    elapsed = time.perf_counter() - start

    ok = (
        uniform_error <= 1e-12
        and one_hot_value == 0.0
        and worst <= 1e-9
        and elapsed < 1.0
    )
    verdict(
        1,
        ok,
        f"uniform err {uniform_error:.1e}, one-hot {one_hot_value}, "
        f"1000 random max err {worst:.2e} vs 50-digit oracle, {elapsed:.2f}s",
    )


def test_criterion_02_distance_correctness(verdict, hangzhou):
    start = time.perf_counter()
    rng = np.random.default_rng(31337)
    tables = 0
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 51))
        entities = [kq.Entity(f"e{i}", f"e{i}", i) for i in range(n)]
        pairs = [
            (int(u), int(v))
            for u, v in rng.integers(0, n, size=(int(rng.integers(1, 2 * n)), 2))
            if u != v
        ] or [(0, n - 1)]
        graph = kq.build_graph(
            " ".join(f"e{i}" for i in range(n)),
            ("r0", "r1"),
            entities,
            [(f"e{u}", f"e{v}", {"r0": 1.0}) for u, v in pairs],
        )
        for entity in graph.entities:
            if kq.all_distances(graph, entity.id).distance != bfs_distances(
                graph, entity.id
            ):
                mismatches += 1
            tables += 1

    centre = kq.select_initial_node(hangzhou)
    table = kq.all_distances(hangzhou, centre)
    fixture_ok = (
        centre == "hangzhou"
        and table.distance["west_lake"] == 1
        and table.distance["birth_date"] == 3
    )
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and fixture_ok and elapsed < 5.0
    verdict(
        2,
        ok,
        f"{tables} single-source tables over 200 random graphs match BFS, "
        f"d(centre, West Lake)=1 and d(centre, 1890.3.7)=3, {elapsed:.2f}s",
    )


def test_criterion_03_selection_optimality(verdict):
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    instances = 0
    largest_pool = 0
    exact = True
    attempts = 0
    while instances < 200 and attempts < 2000:
        attempts += 1
        graph = random_graph(rng, max_entities=8, max_quadruples=12)
        config = kq.SelectionConfig(
            float(rng.uniform(0.05, 1.0)), int(rng.integers(0, 4))
        )
        result = kq.select(graph, config)
        if result.disconnected_fallback:
            continue
        distances = kq.all_distances(graph, kq.select_initial_node(graph))
        pool = kq.eligible(graph, distances, result.effective_depth)
        if len(pool) > 20:
            continue
        largest_pool = max(largest_pool, len(pool))
        entropies = [graph.quadruples[i].entropy for i in pool]
        best = min(
            fsum(combo)
            for combo in itertools.combinations(entropies, result.quota)
        )
        if result.semantic_uncertainty != best:
            exact = False
        instances += 1
    elapsed = time.perf_counter() - start
    ok = exact and instances == 200 and elapsed < 30.0
    verdict(
        3,
        ok,
        f"{instances} instances (pool <= {largest_pool}): proposed SU equals "
        f"the exhaustive H-subset minimum exactly, {elapsed:.2f}s",
    )


def test_criterion_04_dominance(verdict):
    start = time.perf_counter()
    rng = np.random.default_rng(4242)
    graphs = all_fixtures() + [random_graph(rng) for _ in range(100)]
    violations = 0
    comparisons = 0
    for graph in graphs:
        for k in K_GRID:
            proposed = kq.select(graph, kq.SelectionConfig(k, 2))
            rivals = []
            for strategy in BASELINES:
                seeds = (1, 2, 3) if strategy == "random" else (None,)
                for seed in seeds:
                    rivals.append(
                        kq.select(graph, kq.SelectionConfig(k, 2, strategy, seed))
                    )
            for rival in rivals:
                comparisons += 1
                if proposed.semantic_uncertainty > rival.semantic_uncertainty:
                    violations += 1
                if k == K_GRID[-1] and (
                    rival.semantic_uncertainty != proposed.semantic_uncertainty
                ):
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0
    verdict(
        4,
        ok,
        f"SU(proposed) <= SU(baseline) in all {comparisons} comparisons "
        f"(102 graphs x 10 ratios x 5 baselines, D=2), all strategies equal "
        f"at K=1, {violations} violations, {elapsed:.2f}s",
    )


def test_criterion_05_monotonicity_and_nesting(verdict):
    start = time.perf_counter()
    rng = np.random.default_rng(5150)
    cases = []
    for graph in all_fixtures():
        cases.append((graph, 2))
    for _ in range(100):
        graph = random_graph(rng, connected=True)
        depth = kq.all_distances(graph, kq.select_initial_node(graph)).max_finite()
        cases.append((graph, depth))

    violations = 0
    fallbacks = 0
    for graph, depth in cases:
        total = len(graph.quadruples)
        previous: set = set()
        previous_su = 0.0
        for h in range(1, total + 1):
            ratio = 1.0 if h == total else (h + 0.4) / total
            result = kq.select(graph, kq.SelectionConfig(ratio, depth))
            if result.disconnected_fallback:
                fallbacks += 1
            if result.quota != h:
                violations += 1
            current = set(result.selected)
            if not previous <= current:
                violations += 1
            if result.semantic_uncertainty < previous_su:
                violations += 1
            previous, previous_su = current, result.semantic_uncertainty
    elapsed = time.perf_counter() - start
    ok = violations == 0 and fallbacks == 0
    verdict(
        5,
        ok,
        f"selections nested and SU non-decreasing over {len(cases)} "
        f"no-fallback instances at every quota, {violations} violations, "
        f"{elapsed:.2f}s",
    )


def test_criterion_06_metrics_algebra(verdict, bruce):
    start = time.perf_counter()
    rng = np.random.default_rng(66)
    surfaces = ["alpha", "beta", "gamma", "delta"]
    entities = [kq.Entity(s, s, None) for s in surfaces]
    candidates = [
        ("alpha", "beta", {"r1": 1.0}),
        ("beta", "gamma", {"r2": 1.0}),
        ("gamma", "delta", {"r1": 0.5, "r2": 0.5}),
    ]

    def graph_with(text):
        return kq.build_graph(text, ("r1", "r2"), entities, candidates)

    swap_exact = True
    full = kq.selection.SelectionResult(
        selected=(0, 1, 2), quota=3, effective_depth=0,
        semantic_uncertainty=0.0, relaxation_steps=0,
        disconnected_fallback=False, ratio=1.0, strategy="proposed", seed=None,
    )
    for _ in range(50):
        text_a = " ".join(rng.choice(surfaces, size=int(rng.integers(1, 12))))
        text_b = " ".join(rng.choice(surfaces, size=int(rng.integers(1, 12))))
        g_a, g_b = graph_with(text_a), graph_with(text_b)
        if kq.accuracy(g_a, full, text_b) != kq.completeness(g_b, full, text_a):
            swap_exact = False
        if kq.completeness(g_a, full, text_b) != kq.accuracy(g_b, full, text_a):
            swap_exact = False

    result = kq.select(bruce, kq.SelectionConfig(0.5, 9))
    recovered = kq.verbalize(result, bruce)
    at_zero = kq.similarity(bruce, result, recovered, phi=0.0)
    at_one = kq.similarity(bruce, result, recovered, phi=1.0)
    zero_err = abs(at_zero.similarity - at_zero.theta * at_zero.accuracy)
    one_err = abs(at_one.similarity - at_one.theta * at_one.completeness)

    one_hot = graph_with("alpha beta gamma delta")
    all_of_it = kq.select(one_hot, kq.SelectionConfig(1.0, 3))
    # restrict to the two one-hot quadruples so theta is exactly H
    two = kq.selection.SelectionResult(
        selected=(0, 1), quota=2, effective_depth=0, semantic_uncertainty=0.0,
        relaxation_steps=0, disconnected_fallback=False, ratio=1.0,
        strategy="proposed", seed=None,
    )
    report = kq.similarity(one_hot, two, "alpha beta gamma")
    ss_equals_quota = (
        report.accuracy == 1.0
        and report.completeness == 1.0
        and report.similarity == float(two.quota)
    )
    elapsed = time.perf_counter() - start
    ok = (
        swap_exact
        and zero_err <= 1e-12
        and one_err <= 1e-12
        and ss_equals_quota
        and all_of_it.quota == 3
    )
    verdict(
        6,
        ok,
        f"A/C swap exact over 50 text pairs, phi limits within "
        f"{max(zero_err, one_err):.1e} of theta*A and theta*C, one-hot "
        f"A=C=1 gives SS == H, {elapsed:.2f}s",
    )


def test_criterion_07_similarity_trend(verdict, bruce):
    start = time.perf_counter()
    rows, _ = kq.run_sweep(bruce, depth=2, runs=100, seed=0)
    score = {}
    for row in rows:
        score.setdefault(row.strategy, {})[row.K] = row.SS
    proposed = score["proposed"]
    grid = sorted(proposed)
    endpoints_rise = proposed[grid[-1]] > proposed[grid[0]]
    losses = sum(
        1
        for strategy in BASELINES
        for k in grid
        if proposed[k] < score[strategy][k]
    )
    elapsed = time.perf_counter() - start
    ok = endpoints_rise and losses == 0
    verdict(
        7,
        ok,
        f"built-in verbalizer: SS(K=1.0)={proposed[grid[-1]]:.3f} > "
        f"SS(K=0.1)={proposed[grid[0]]:.3f} and proposed >= all baselines "
        f"at every K (random averaged over 100 runs), {elapsed:.2f}s",
    )


def test_criterion_08_budget_formula(verdict):
    zero_power = kq.ChannelBudget(1.0, 1000.0, 0.0, 1.0, 1.0, 400)
    textbook = kq.ChannelBudget(1.0, 1000.0, 3.0, 1.0, 1.0, 400)
    roomy = kq.ChannelBudget(100.0, 1000.0, 3.0, 1.0, 1.0, 400)
    h_zero = kq.budget_to_quota(zero_power, 10)
    h_five = kq.budget_to_quota(textbook, 10)
    h_clamped = kq.budget_to_quota(roomy, 10)
    ok = (
        h_zero == 0
        and textbook.capacity_bits() == 2000.0
        and h_five == 5
        and h_clamped == 10
        and all(isinstance(h, int) for h in (h_zero, h_five, h_clamped))
    )
    verdict(
        8,
        ok,
        f"P=0 -> H={h_zero}; 2000-bit capacity at 400 bits/quadruple -> "
        f"H={h_five}; oversized budget clamps at G ({h_clamped}/10)",
    )


JUNK = [None, True, False, 0, -3, 2.5, float("nan"), "", "zzz", [], {}, [1, 2]]


def _mutate(doc, rng):
    """One structural mutation of a graph document dict, in place."""
    roll = int(rng.integers(0, 8))
    keys = list(doc)
    if roll == 0:
        doc.pop(keys[int(rng.integers(0, len(keys)))], None)
    elif roll == 1:
        doc[keys[int(rng.integers(0, len(keys)))]] = JUNK[
            int(rng.integers(0, len(JUNK)))
        ]
    elif roll == 2 and isinstance(doc.get("entities"), list) and doc["entities"]:
        entity = doc["entities"][int(rng.integers(0, len(doc["entities"])))]
        if isinstance(entity, dict) and entity:
            field = list(entity)[int(rng.integers(0, len(entity)))]
            entity[field] = JUNK[int(rng.integers(0, len(JUNK)))]
    elif roll == 3 and isinstance(doc.get("candidates"), list) and doc["candidates"]:
        cand = doc["candidates"][int(rng.integers(0, len(doc["candidates"])))]
        if isinstance(cand, dict):
            pick = int(rng.integers(0, 4))
            if pick == 0:
                cand["head"] = "ghost-entity"
            elif pick == 1:
                cand["confidences"] = JUNK[int(rng.integers(0, len(JUNK)))]
            elif pick == 2 and isinstance(cand.get("confidences"), dict):
                cand["confidences"]["r0"] = float(rng.uniform(-5, 5))
            else:
                cand.pop("tail", None)
    elif roll == 4:
        doc["schema_version"] = JUNK[int(rng.integers(0, len(JUNK)))]
    elif roll == 5:
        doc["relation_set"] = JUNK[int(rng.integers(0, len(JUNK)))]
    elif roll == 6 and isinstance(doc.get("entities"), list) and doc["entities"]:
        doc["entities"].append(doc["entities"][0])
    else:
        existing = doc.get("candidates")
        doc["candidates"] = [
            {"head": "e0", "tail": "e0", "confidences": {"r0": 1.0}}
        ] + (existing if isinstance(existing, list) else [])


def test_criterion_09_robustness(verdict):
    start = time.perf_counter()
    rng = np.random.default_rng(999)

    def fresh_doc():
        n = int(rng.integers(1, 6))
        return {
            "schema_version": 1,
            "text": "e0 " * n,
            "relation_set": ["r0", "r1", "r2"],
            "entities": [
                {"id": f"e{i}", "surface": f"e{i}", "first_token_index": i}
                for i in range(n)
            ],
            "candidates": [
                {
                    "head": f"e{int(rng.integers(0, n))}",
                    "tail": f"e{int(rng.integers(0, n))}",
                    "confidences": {"r0": 0.5, "r1": 0.5},
                }
                for _ in range(int(rng.integers(0, 5)))
            ],
        }

    crashes = 0
    structured = 0
    parsed_ok = 0
    for i in range(10_000):
        doc = fresh_doc()
        for _ in range(int(rng.integers(1, 4))):
            _mutate(doc, rng)
        blob = json.dumps(doc).encode("utf-8")
        style = int(rng.integers(0, 10))
        if style == 0:
            blob = blob[: int(rng.integers(0, len(blob) + 1))]
        elif style == 1:
            cut = int(rng.integers(0, len(blob) + 1))
            blob = blob[:cut] + b"\xff\xfe" + blob[cut:]
        elif style == 2:
            blob = bytes(rng.integers(0, 256, size=int(rng.integers(1, 64))))
        try:
            kq.parse_graph_document(blob)
            parsed_ok += 1
        except kq.KgsqueezeError:
            structured += 1
        except Exception:
            crashes += 1

    round_trip_ok = all(
        kq.serialize_graph(kq.parse_graph_document(path.read_bytes()))
        == path.read_bytes()
        for path in sorted(FIXTURE_DIR.glob("*.json"))
    )

    # Selection documents edited by hand: each edit must be caught against
    # the graph, while every document select emits must pass.
    def entropy_to(value):
        return lambda doc: doc["selected"][0].__setitem__("entropy", value)

    def drop_last(doc):
        dropped = doc["selected"].pop()
        doc["H"] -= 1
        doc["SU"] -= dropped["entropy"]

    edits = [
        lambda doc: doc.__setitem__("K", 1.0),  # H no longer quota(K, G)
        drop_last,  # consistent H and SU, but H is not quota(K, G)
        lambda doc: doc.__setitem__("SU", doc["SU"] + 5),
        lambda doc: doc.__setitem__("SU", doc["SU"] * (1 + 1e-6)),
        entropy_to([1]),
        entropy_to("0.5"),
        entropy_to(None),
    ]
    emitted_rejected = 0
    edits_caught = 0
    edits_missed = 0
    for graph in all_fixtures():
        for strategy, ratio in itertools.product(kq.STRATEGIES, (0.3, 0.5)):
            result = kq.select(graph, kq.SelectionConfig(ratio, 2, strategy, 5))
            blob = kq.emit_selection(result, graph)
            try:
                kq.parse_selection_document(blob, graph)
            except Exception:
                emitted_rejected += 1
            for edit in edits:
                doc = json.loads(blob)
                edit(doc)
                try:
                    kq.parse_selection_document(json.dumps(doc), graph)
                    edits_missed += 1
                except kq.KgsqueezeError:
                    edits_caught += 1
                except Exception:
                    crashes += 1
    elapsed = time.perf_counter() - start
    ok = (
        crashes == 0
        and round_trip_ok
        and structured > 5000
        and edits_missed == 0
        and emitted_rejected == 0
    )
    verdict(
        9,
        ok,
        f"10000 malformed documents: {structured} structured errors, "
        f"{parsed_ok} benign mutations parsed, {crashes} crashes; fixture "
        f"round-trips byte-identical; {edits_caught} edited selection "
        f"documents caught, {edits_missed} missed, {emitted_rejected} emitted "
        f"ones rejected, {elapsed:.2f}s",
    )


def test_criterion_10_end_to_end_determinism(verdict, tmp_path):
    start = time.perf_counter()
    graph = str(FIXTURE_DIR / "bruce.json")
    outputs = []
    dumps = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / f"{name}.csv"
        dump = tmp_path / f"{name}-runs.csv"
        code = main([
            "sweep", "--input", graph, "--runs", "50", "--seed", "123",
            "--jobs", jobs, "--dump-runs", str(dump), "--output", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
        dumps.append(dump.read_bytes())
    elapsed = time.perf_counter() - start
    ok = (
        outputs[0] == outputs[1] == outputs[2]
        and dumps[0] == dumps[1] == dumps[2]
        and len(outputs[0]) > 0
    )
    verdict(
        10,
        ok,
        f"sweep CSV ({len(outputs[0])} bytes) and per-run dump byte-identical "
        f"across two runs and across --jobs 1/4, {elapsed:.2f}s",
    )
