"""Oracles for the core generator.

``nbg0_generate`` builds skeletons by ear operations and assigns their
bond orders up to automorphism. Three references check it:

- the 83 bridgeless all-carbon cores of 3 to 5 atoms, found by brute force
  over bond-order matrices (``data/cores_le5.jsonl``, written by
  ``bench/bruteforce.py``), and prismane and cubane (``data/cages.jsonl``);
- the breadth-first closure that the generator replaced, with the chord
  step added, kept below as it was;
- automorphism groups counted by trying every vertex permutation.
"""

import json
from itertools import combinations, permutations
from pathlib import Path

import pytest

from molspace import nbg
from molspace.nbg import canonical_signature, nbg0_generate

from conftest import decode_signature, oracle_cuts

DATA = Path(__file__).parent / "data"


def load_cores(name):
    """{name: signature} of the cores in a data file."""
    out = {}
    for line in (DATA / name).read_text().splitlines():
        rec = json.loads(line)
        edges = [tuple(e) for e in rec["edges"]]
        out[rec["name"]] = canonical_signature(("C",) * rec["n"], edges)
    return out


def closure_expansions(n, edges, max_heavy):
    """All single-operation successors of an all-carbon core: spiro
    expansion, triangle expansion, methylene insertion, promotion of a
    bond order by one, and a new single bond between two non-adjacent
    atoms (the chord)."""
    slack = [4] * n
    for (i, j), order in edges.items():
        slack[i] -= order
        slack[j] -= order
    out = []
    for v in range(n):
        if slack[v] >= 2 and n + 2 <= max_heavy:
            new = dict(edges)
            new[(v, n)] = new[(v, n + 1)] = new[(n, n + 1)] = 1
            out.append((n + 2, new))
    for (a, b), order in edges.items():
        if order == 1 and n + 1 <= max_heavy and slack[a] >= 1 and slack[b] >= 1:
            new = dict(edges)
            new[(a, n)] = new[(b, n)] = 1
            out.append((n + 1, new))
        if order == 1 and n + 1 <= max_heavy:
            new = dict(edges)
            del new[(a, b)]
            new[(a, n)] = new[(b, n)] = 1
            out.append((n + 1, new))
        if order in (1, 2) and slack[a] >= 1 and slack[b] >= 1:
            new = dict(edges)
            new[(a, b)] = order + 1
            out.append((n, new))
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in edges and slack[a] >= 1 and slack[b] >= 1:
                new = dict(edges)
                new[(a, b)] = 1
                out.append((n, new))
    return out


def closure_generate(max_heavy):
    """Breadth-first closure of the triangle under the expansions,
    deduplicated by canonical signature."""
    def signature(n, edges):
        return canonical_signature(
            ("C",) * n, [(i, j, o) for (i, j), o in edges.items()]
        )

    seed = {(0, 1): 1, (0, 2): 1, (1, 2): 1}
    seen = {signature(3, seed)}
    frontier = [(3, seed)]
    while frontier:
        next_frontier = []
        for n, edges in frontier:
            for n2, edges2 in closure_expansions(n, edges, max_heavy):
                sig = signature(n2, edges2)
                if sig not in seen:
                    seen.add(sig)
                    next_frontier.append((n2, edges2))
        frontier = next_frontier
    return seen


def test_generator_equals_brute_force_cores_up_to_five_atoms():
    brute = load_cores("cores_le5.jsonl")
    assert len(set(brute.values())) == 83
    assert nbg0_generate(5) == sorted(brute.values())


def test_generator_finds_tetrahedrane_prismane_and_cubane():
    tetrahedrane = canonical_signature(
        ("C",) * 4, [(a, b, 1) for a in range(4) for b in range(a + 1, 4)]
    )
    assert tetrahedrane in load_cores("cores_le5.jsonl").values()
    cages = load_cores("cages.jsonl")
    got = set(nbg0_generate(8))
    for name, sig in [("tetrahedrane", tetrahedrane), *cages.items()]:
        assert sig in got, name


@pytest.mark.parametrize("max_heavy", range(3, 8))
def test_generator_equals_chord_closure(max_heavy):
    got = nbg0_generate(max_heavy)
    assert len(set(got)) == len(got)
    assert set(got) == closure_generate(max_heavy)


def brute_automorphisms(n, edges):
    pairs = {(min(a, b), max(a, b)) for a, b, _ in edges}
    return {
        p for p in permutations(range(n))
        if {(min(p[a], p[b]), max(p[a], p[b])) for a, b in pairs} == pairs
    }


def brute_skeletons(n):
    """Signatures of the connected bridgeless simple graphs on n vertices
    of maximum degree 4, from every edge set."""
    pairs = list(combinations(range(n), 2))
    found = set()
    for mask in range(1 << len(pairs)):
        edges = [pair for k, pair in enumerate(pairs) if mask >> k & 1]
        degree = [0] * n
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        # Bridgeless and connected with n >= 3 needs every degree >= 2.
        if min(degree) >= 2 and max(degree) <= 4:
            found.add(canonical_signature(("C",) * n, [(a, b, 1) for a, b in edges]))
    skeletons = set()
    for sig in found:
        edges = [(a, b) for a, b, _ in decode_signature(sig)[1]]
        reached = {0}
        for _ in range(n):
            reached |= {b for a, b in edges if a in reached}
            reached |= {a for a, b in edges if b in reached}
        if len(reached) == n and oracle_cuts(n, edges)[1] == set():
            skeletons.add(sig)
    return skeletons


def single_bonded(sigs):
    return {sig for sig in sigs if set(sig.split("|")[1]) <= {"0", "1"}}


def test_skeletons_up_to_six_atoms_equal_brute_force():
    got = single_bonded(nbg0_generate(6))
    assert got == set().union(*(brute_skeletons(n) for n in range(3, 7)))


def test_group_from_search_generators_is_the_whole_group():
    # Every skeleton carries the all-single bond orders.
    for sig in single_bonded(nbg0_generate(6)):
        labels, edges = decode_signature(sig)
        n = len(labels)
        group = nbg._group(n, nbg._canonical_search(labels, edges)[1])
        assert len(group) == len(set(group))
        assert set(group) == brute_automorphisms(n, edges), sig
