"""Acceptance gate: one test per headline guarantee of the package.

Each test asserts an exact value, a stated tolerance, or a wall-clock
budget, so `pytest -v` prints a single pass or fail line per guarantee.
Expected constants were computed independently and frozen here; the
tests never derive them from the code under test.
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time

from conftest import (
    benzoic_acid,
    build,
    child_env,
    decode_signature,
    oracle_cuts,
    permute_graph,
    phenylethyl_pyridine,
    random_connected_graph,
    random_labeled_graph,
    random_molecule_record,
    record_line,
)
from test_align import POOL, feature_pairs, pool_table, sse

from functools import partial

from molspace import cli
from molspace.align import apply, fit
from molspace.coverage import (
    complement_types,
    expansion_subsets,
    ingest,
    kl_matrix,
    known_types,
    record_levels,
    record_type_counts,
    structure_complement,
    type_total,
)
from molspace.descriptors import OrbitalRecord, binding_energy, e_gcn0
from molspace.gcn import count_gcn2, enumerate_gcn0, enumerate_gcn1
from molspace.molgraph import validate
from molspace.nbg import canonical_signature, cut_decomposition, nbg0_generate

# Frozen oracle: the closed table of admissible level-0 codes, 12 carbon,
# 12 nitrogen, 4 oxygen and 2 fluorine entries in table order.
EXPECTED_GCN0 = [
    "C40", "C30", "C31", "C20", "C21", "C22",
    "C10", "C11", "C12", "C13", "C04", "C02",
    "N40", "N30", "N31", "N20", "N21", "N22",
    "N10", "N11", "N12", "N13", "N03", "N01",
    "O20", "O10", "O11", "O02",
    "F10", "F01",
]

EXPECTED_GCN1_TOTAL = 47_870
EXPECTED_GCN1_BARE = {"C04", "C02", "N03", "N01", "O02", "F01"}
EXPECTED_GCN2_TOTAL = 156_452_410_979_895
# Checked only when an external curated level-1 list is supplied through
# the MOLSPACE_GCN1_LIST environment variable (path, one code per line).
EXPECTED_GCN2_CURATED = 1_067_046_693_723


def close_rel(got, want, rel=1e-6):
    return abs(got - want) <= rel * max(1.0, abs(want))


def test_acceptance_01_gcn0_table_exact():
    t0 = time.perf_counter()
    codes = enumerate_gcn0()
    elapsed = time.perf_counter() - t0
    assert list(codes) == EXPECTED_GCN0
    by_element = {el: sum(1 for c in codes if c[0] == el) for el in "CNOF"}
    assert by_element == {"C": 12, "N": 12, "O": 4, "F": 2}
    assert elapsed < 1.0


def test_acceptance_02_gcn1_enumeration_total():
    t0 = time.perf_counter()
    codes = enumerate_gcn1()
    elapsed = time.perf_counter() - t0
    assert len(codes) == EXPECTED_GCN1_TOTAL
    assert len(set(codes)) == EXPECTED_GCN1_TOTAL
    bare = [c for c in codes if "(" not in c]
    assert set(bare) == EXPECTED_GCN1_BARE
    assert len(codes) - len(bare) == EXPECTED_GCN1_TOTAL - 6
    assert elapsed < 5.0


def test_acceptance_03_gcn2_exact_count():
    t0 = time.perf_counter()
    total = count_gcn2(enumerate_gcn1())
    elapsed = time.perf_counter() - t0
    assert total == EXPECTED_GCN2_TOTAL
    assert elapsed < 30.0
    path = os.environ.get("MOLSPACE_GCN1_LIST")
    if path:
        with open(path, encoding="utf-8") as fh:
            curated = [
                ln.strip() for ln in fh
                if ln.strip() and not ln.startswith("#")
            ]
        assert count_gcn2(curated) == EXPECTED_GCN2_CURATED


def test_acceptance_04_worked_cut_decompositions():
    cd = cut_decomposition(benzoic_acid())
    assert (len(cd.cut_vertices), len(cd.bridges)) == (2, 3)
    cd = cut_decomposition(phenylethyl_pyridine())
    assert (len(cd.cut_vertices), len(cd.bridges)) == (3, 3)


def test_acceptance_05_cut_oracle_equivalence():
    rng = random.Random(501)
    t0 = time.perf_counter()
    for _ in range(1000):
        n, edges = random_connected_graph(rng, max_n=10)
        g = build(["C"] * n, [(a + 1, b + 1, 1) for a, b in edges], h=[0] * n)
        got = cut_decomposition(g)
        want_cv, want_br = oracle_cuts(n, edges)
        assert got.cut_vertices == frozenset(want_cv)
        assert got.bridges == frozenset(want_br)
    assert time.perf_counter() - t0 < 10.0


def _cycle(n, order=1):
    return ("C",) * n, [(i, (i + 1) % n, order) for i in range(n)]


def _structured_corpus():
    """Ten symmetric graphs that stress the canonical labeling search."""
    cycle6 = _cycle(6)
    cycle8 = _cycle(8)
    k4 = ("C",) * 4, [(a, b, 1) for a in range(4) for b in range(a + 1, 4)]
    k33 = ("C",) * 6, [(a, b, 1) for a in range(3) for b in range(3, 6)]
    prism3 = ("C",) * 6, [
        (0, 1, 1), (1, 2, 1), (0, 2, 1),
        (3, 4, 1), (4, 5, 1), (3, 5, 1),
        (0, 3, 1), (1, 4, 1), (2, 5, 1),
    ]
    pentaprism = ("C",) * 10, (
        [(i, (i + 1) % 5, 1) for i in range(5)]
        + [(5 + i, 5 + (i + 1) % 5, 1) for i in range(5)]
        + [(i, i + 5, 1) for i in range(5)]
    )
    petersen = ("C",) * 10, (
        [(i, (i + 1) % 5, 1) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5, 1) for i in range(5)]
        + [(i, i + 5, 1) for i in range(5)]
    )
    cube = ("C",) * 8, [
        (a, b, 1)
        for a in range(8) for b in range(a + 1, 8)
        if bin(a ^ b).count("1") == 1
    ]
    mobius8 = ("C",) * 8, (
        [(i, (i + 1) % 8, 1) for i in range(8)]
        + [(i, i + 4, 1) for i in range(4)]
    )
    wheel6 = ("C",) * 6, (
        [(0, 1 + i, 1) for i in range(5)]
        + [(1 + i, 1 + (i + 1) % 5, 1) for i in range(5)]
    )
    return [
        cycle6, cycle8, k4, k33, prism3,
        pentaprism, petersen, cube, mobius8, wheel6,
    ]


def _nonisomorphic_pairs():
    """Curated pairs that agree on every cheap invariant yet differ."""
    structured = _structured_corpus()
    cycle6, _, k4, k33, prism3, pentaprism, petersen, cube, mobius8, _ = (
        structured
    )
    two_triangles = ("C",) * 6, [
        (0, 1, 1), (1, 2, 1), (0, 2, 1),
        (3, 4, 1), (4, 5, 1), (3, 5, 1),
    ]
    path_cnof = ("C", "N", "O", "F"), [(0, 1, 1), (1, 2, 1), (2, 3, 1)]
    path_conf = ("C", "O", "N", "F"), [(0, 1, 1), (1, 2, 1), (2, 3, 1)]
    tri_112 = ("C",) * 3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)]
    tri_122 = ("C",) * 3, [(0, 1, 1), (1, 2, 2), (0, 2, 2)]
    c4_alt = ("C", "N", "C", "N"), [(i, (i + 1) % 4, 1) for i in range(4)]
    c4_adj = ("C", "C", "N", "N"), [(i, (i + 1) % 4, 1) for i in range(4)]
    c6_alt = ("C",) * 6, [(i, (i + 1) % 6, 1 + i % 2) for i in range(6)]
    c6_blocks = ("C",) * 6, [
        (0, 1, 1), (1, 2, 1), (2, 3, 2), (3, 4, 1), (4, 5, 2), (5, 0, 2),
    ]
    star_nnoo = ("C", "N", "N", "O", "O"), [(0, k, 1) for k in range(1, 5)]
    path_nocno = ("N", "O", "C", "N", "O"), [
        (0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1),
    ]
    k4_matching = ("C",) * 4, [
        (0, 1, 2), (2, 3, 2), (0, 2, 1), (0, 3, 1), (1, 2, 1), (1, 3, 1),
    ]
    k4_adjacent = ("C",) * 4, [
        (0, 1, 2), (0, 2, 2), (0, 3, 1), (1, 2, 1), (1, 3, 1), (2, 3, 1),
    ]
    return [
        (k33, prism3),
        (petersen, pentaprism),
        (cube, mobius8),
        (cycle6, two_triangles),
        (path_cnof, path_conf),
        (tri_112, tri_122),
        (c4_alt, c4_adj),
        (c6_alt, c6_blocks),
        (star_nnoo, path_nocno),
        (k4_matching, k4_adjacent),
    ]


def test_acceptance_06_signature_invariance_and_separation():
    rng = random.Random(601)
    corpus = _structured_corpus()
    while len(corpus) < 50:
        corpus.append(random_labeled_graph(rng, max_n=8))
    t0 = time.perf_counter()
    for labels, edges in corpus:
        base = canonical_signature(labels, edges)
        for _ in range(1000):
            pl, pe = permute_graph(rng, labels, edges)
            assert canonical_signature(pl, pe) == base
    for (la, ea), (lb, eb) in _nonisomorphic_pairs():
        assert canonical_signature(la, ea) != canonical_signature(lb, eb)
    assert time.perf_counter() - t0 < 30.0


def test_acceptance_07_topology_generator():
    # The five smallest bridgeless all-carbon topologies are the triangles
    # with bond-order multisets 111, 112, 122, 222 and 113.
    oracle = {
        canonical_signature(("C", "C", "C"), [(0, 1, a), (1, 2, b), (0, 2, c)])
        for a, b, c in [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 1, 3)]
    }
    got = nbg0_generate(3)
    assert set(got) == oracle
    assert len(got) == 5

    for sig in nbg0_generate(6):
        labels, edges = decode_signature(sig)
        assert 3 <= len(labels) <= 6
        _, bridges = oracle_cuts(len(labels), [(a, b) for a, b, _ in edges])
        assert bridges == set()
        g = build(
            list(labels), [(a + 1, b + 1, c) for a, b, c in edges], h="auto"
        )
        assert validate(g) == []

    assert sorted(nbg0_generate(6)) == sorted(nbg0_generate(6))
    # Hash-seed independence across interpreters: identical bytes out.
    outs = []
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "molspace", "generate-nbg0",
             "--max-heavy", "5"],
            capture_output=True, env=child_env(PYTHONHASHSEED=seed), check=True,
        )
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_acceptance_08_alignment_recovery_and_nesting():
    rng = random.Random(801)
    model = fit(
        feature_pairs(
            pool_table(rng, target=lambda k, e0: 2.0 * e0 + 3.0),
            "e0", "plain", "e1",
        ),
        "plain",
        ridge=0.0,
    )
    assert close_rel(model.c0, 2.0)
    assert close_rel(model.b0, 3.0)

    truth = {"C": 2.5, "H": -1.25, "N": 4.0, "O": 0.5, "F": -3.0}
    comps = [
        build(elements, bonds, h="auto").composition()
        for _, elements, bonds in POOL
    ]

    def comp_target(k, e0):
        return 1.75 * e0 - 6.0 + sum(
            truth[el] * n for el, n in comps[k].items()
        )

    model = fit(
        feature_pairs(
            pool_table(rng, target=comp_target), "e0", "composition", "e1",
        ),
        "composition",
        ridge=0.0,
    )
    assert close_rel(model.c0, 1.75)
    assert close_rel(model.b0, -6.0)
    for el, want in truth.items():
        assert close_rel(model.coefficients[el], want)

    # Finer count features can never fit training data worse: residual
    # sums nest as gcn1 <= composition <= plain on exact solves.
    for trial in range(100):
        rng = random.Random(8100 + trial)
        table = pool_table(rng)
        sses = []
        for mode in ("plain", "composition", "gcn1"):
            pairs = feature_pairs(table, "e0", mode, "e1")
            m = fit(pairs, mode, ridge=0.0)
            sses.append(sse(m, pairs))
        slack = 1e-9 * (1.0 + sses[0])
        assert sses[2] <= sses[1] + slack
        assert sses[1] <= sses[0] + slack


def test_acceptance_09_kl_guarantees():
    lines_a = [record_line("methane", ["C"], [])]
    lines_b = [
        record_line("methane", ["C"], []),
        record_line("water", ["O"], []),
    ]
    lines_c = [
        record_line("benzene", ["C"] * 6,
                    [(1, 2, 2), (2, 3, 1), (3, 4, 2), (4, 5, 1),
                     (5, 6, 2), (6, 1, 1)]),
        record_line("ethane", ["C", "C"], [(1, 2, 1)]),
    ]
    totals, rejects = ingest(
        ["\n".join(lines) for lines in (lines_a, lines_b, lines_c)],
        partial(record_type_counts, feature="gcn0"), [type_total] * 3,
    )
    assert rejects == []
    tables = list(zip("abc", totals))
    matrix = kl_matrix(tables, "gcn0", epsilon=1e-9)
    n = len(tables)
    assert [len(row) for row in matrix] == [n] * n
    for i in range(n):
        assert matrix[i][i] < 1e-12
        for j in range(n):
            assert matrix[i][j] >= 0.0
    # P = (1, 0) against Q = (0.5, 0.5) tends to ln 2 as epsilon shrinks;
    # rows and columns follow the order of the tables a, b, c.
    assert abs(matrix[1][0] - math.log(2.0)) < 1e-4


def test_acceptance_10_descriptor_identities():
    rng = random.Random(1001)
    for _ in range(10_000):
        n = rng.randint(1, 8)
        records = [
            OrbitalRecord(occupancy=rng.uniform(0.1, 2.0),
                          energy=rng.uniform(-60.0, 20.0))
            for _ in range(n)
        ]
        value = e_gcn0(records)
        energies = [r.energy for r in records]
        assert min(energies) - 1e-9 <= value <= max(energies) + 1e-9
        lam = rng.uniform(0.1, 10.0)
        scaled = [
            OrbitalRecord(occupancy=lam * r.occupancy, energy=r.energy)
            for r in records
        ]
        assert math.isclose(
            e_gcn0(scaled), value, rel_tol=1e-12, abs_tol=1e-12
        )
    for _ in range(1000):
        comp = {
            el: rng.randint(0, 9)
            for el in ("C", "H", "N", "O", "F")
            if rng.random() < 0.8
        }
        refs = {el: rng.uniform(-100.0, 0.0) for el in comp}
        e_tot = rng.uniform(-500.0, 0.0)
        eb = binding_energy(e_tot, comp, refs)
        back = eb + sum(refs[el] * n for el, n in comp.items())
        assert abs(back - e_tot) < 1e-12


def test_acceptance_11_encode_throughput_and_digests():
    rng = random.Random(1101)
    tasks = [
        json.dumps(random_molecule_record(rng, i, max_heavy=32))
        for i in range(100_000)
    ]
    encode = partial(cli._encode_record, mode="skeleton")
    t0 = time.perf_counter()
    (serial,), rejects = ingest(["\n".join(tasks)], encode, [list], workers=1)
    elapsed = time.perf_counter() - t0
    assert rejects == [] and len(serial) == len(tasks)
    assert elapsed < 60.0
    digest = hashlib.sha256("\n".join(serial).encode()).hexdigest()
    (parallel,), rejects = ingest(["\n".join(tasks)], encode, [list], workers=4)
    assert rejects == []
    other = hashlib.sha256("\n".join(parallel).encode()).hexdigest()
    assert other == digest


def test_acceptance_12_expansion_subset_logic():
    lines = [
        record_line("methane", ["C"], []),
        record_line("benzene", ["C"] * 6,
                    [(1, 2, 2), (2, 3, 1), (3, 4, 2), (4, 5, 1),
                     (5, 6, 2), (6, 1, 1)]),
        record_line("toluene", ["C"] * 7,
                    [(1, 2, 2), (2, 3, 1), (3, 4, 2), (4, 5, 1),
                     (5, 6, 2), (6, 1, 1), (1, 7, 1)]),
    ]
    (table,), rejects = ingest(["\n".join(lines)], record_levels, [list])
    assert rejects == []
    assert expansion_subsets(table, 0, 0) == {"methane"}
    assert expansion_subsets(table, 5, 0) == {"methane", "benzene"}
    assert expansion_subsets(table, 16, 22) == {"methane", "benzene", "toluene"}
    rng = random.Random(1201)
    for _ in range(200):
        g1, g2 = sorted(rng.randint(0, 17) for _ in range(2))
        n1, n2 = sorted(rng.randint(0, 23) for _ in range(2))
        assert expansion_subsets(table, g1, n1) <= expansion_subsets(
            table, g2, n2
        )
    for feature in ("gcn1", "nbg_plus", "scaffold"):
        (known, types), _ = ingest(
            ["\n".join(lines)] * 2, partial(complement_types, feature=feature),
            [known_types, list])
        assert structure_complement(known, types) == set()
