"""Brute-force isomorphism oracle for the canonical signature.

Signatures must be equal exactly when two graphs are isomorphic. The
oracle decides isomorphism by trying every vertex permutation: a graph's
certificate is the smallest (labels, edge-colour matrix) over all of its
relabellings, so two graphs are isomorphic exactly when their
certificates are equal.
"""

import random
from itertools import combinations, permutations, product

from molspace import nbg
from molspace.nbg import canonical_signature

from conftest import (
    complete_graph,
    k33_graph,
    permute_graph,
    prism_graph,
    random_labeled_graph,
    star_graph,
)


def certificate(labels, edges):
    n = len(labels)
    colour = [[0] * n for _ in range(n)]
    for a, b, c in edges:
        colour[a][b] = colour[b][a] = c
    pairs = list(combinations(range(n), 2))
    return min(
        (tuple(labels[v] for v in p), tuple(colour[p[i]][p[j]] for i, j in pairs))
        for p in permutations(range(n))
    )


def all_graphs(n, labels, colours):
    """Every graph on n vertices with the given labels and edge colours."""
    pairs = list(combinations(range(n), 2))
    for vlabels in product(labels, repeat=n):
        for ecols in product((0,) + colours, repeat=len(pairs)):
            yield vlabels, [(a, b, c) for (a, b), c in zip(pairs, ecols) if c]


def check_against_oracle(graphs, relabellings=0, rng=None):
    """Assert that signature equality matches isomorphism over all pairs
    of graphs; return the number of isomorphism classes.

    Each graph is also canonicalized under ``relabellings[k]`` seeded
    relabellings of itself, which share its certificate.
    """
    cert_of_sig: dict = {}
    sig_of_cert: dict = {}
    for k, (labels, edges) in enumerate(graphs):
        cert = certificate(labels, edges)
        copies = relabellings[k] if relabellings else 0
        for g in [(labels, edges)] + [
            permute_graph(rng, labels, edges) for _ in range(copies)
        ]:
            sig = canonical_signature(*g)
            assert cert_of_sig.setdefault(sig, cert) == cert, (
                f"non-isomorphic graphs share signature {sig}"
            )
            assert sig_of_cert.setdefault(cert, sig) == sig, (
                f"isomorphic graphs get {sig} and {sig_of_cert[cert]}"
            )
    return len(sig_of_cert)


def test_every_graph_up_to_four_vertices():
    graphs = [
        g for n in range(1, 5) for g in all_graphs(n, "CN", (1, 2))
    ]
    assert len(graphs) == 2 + 12 + 216 + 11664
    check_against_oracle(graphs)


def test_every_plain_graph_on_five_vertices():
    # 34 unlabelled graphs on five vertices (OEIS A000088).
    assert check_against_oracle(all_graphs(5, "C", (1,))) == 34


def tert_butyl_x():
    """C(CH3)3-X with X = N: a star whose leaves are not all alike."""
    return ("C", "C", "C", "C", "N"), [(0, k, 1) for k in range(1, 5)]


def cycle_graph(n):
    return ("C",) * n, [(i, (i + 1) % n, 1) for i in range(n)]


def symmetric_small_graphs():
    wheel5 = ("C",) * 6, (
        [(0, k, 1) for k in range(1, 6)]
        + [(k, k % 5 + 1, 1) for k in range(1, 6)]
    )
    octahedron = ("C",) * 6, [
        (a, b, 1) for a in range(6) for b in range(a + 1, 6) if b - a != 3
    ]
    two_triangles = ("C",) * 6, [
        (0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1),
    ]
    # A triangle beside a square, and its complement: refinement splits
    # neither, and pruning with automorphisms that move the search path
    # loses their smallest leaf.
    triangle_square = ("C",) * 7, [
        (0, 1, 1), (1, 2, 1), (0, 2, 1),
        (3, 4, 1), (4, 5, 1), (5, 6, 1), (3, 6, 1),
    ]
    present = {(a, b) for a, b, _ in triangle_square[1]}
    complement = ("C",) * 7, [
        (a, b, 1) for a, b in combinations(range(7), 2) if (a, b) not in present
    ]
    return [
        star_graph(3), star_graph(4), star_graph(5), star_graph(6),
        star_graph(6, "N"), complete_graph(4), complete_graph(5),
        prism_graph(), k33_graph(), tert_butyl_x(), cycle_graph(6),
        cycle_graph(7), wheel5, octahedron, two_triangles, triangle_square,
        complement,
    ]


def variants(labels, edges):
    """The graph, each single-edge recolouring and each single-vertex
    relabelling: some pairs are isomorphic (the edges or vertices lie in
    one orbit), others are not."""
    yield labels, edges
    for k, (a, b, c) in enumerate(edges):
        yield labels, edges[:k] + [(a, b, c + 1)] + edges[k + 1:]
    for v in range(len(labels)):
        yield labels[:v] + ("O",) + labels[v + 1:], edges


def test_symmetric_graphs_and_their_variants():
    pool, relabellings = [], []
    for labels, edges in symmetric_small_graphs():
        # Several relabellings of the symmetric graph itself: a wrong
        # pruning rule loses the smallest leaf only from some start orders.
        for k, variant in enumerate(variants(labels, edges)):
            pool.append(variant)
            relabellings.append(6 if k == 0 else 1)
    check_against_oracle(pool, relabellings, random.Random(907))


def rank(keys):
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def full_refine(adj, color):
    """Refinement as the canonicalizer first did it: every round re-profiles
    every vertex by (its color, the sorted (edge color, neighbour color)
    pairs) and re-ranks all of them, until the color count stays put."""
    ncolors = len(set(color))
    while True:
        new = rank([
            (color[v], tuple(sorted((ec, color[u]) for u, ec in adj[v])))
            for v in range(len(color))
        ])
        if len(set(new)) == ncolors:
            return new
        color, ncolors = new, len(set(new))


def cells_of(color):
    cells = [[] for _ in range(max(color) + 1)]
    for v, c in enumerate(color):
        cells[c].append(v)
    return cells


def incremental_refine(adj, color, splitters):
    packed = [[(u, ec << nbg.COLOR_BITS) for u, ec in nbrs] for nbrs in adj]
    color, cells = list(color), cells_of(color)
    nbg._refine(packed, color, cells, splitters)
    assert cells == cells_of(color)
    return color


def check_refinement(labels, edges):
    """Assert that the incremental refinement gives the oracle's colorings
    at the root and after individualizing each vertex of the first
    non-singleton cell; return how many vertices were individualized."""
    adj = [[] for _ in labels]
    for a, b, ec in edges:
        adj[a].append((b, ec))
        adj[b].append((a, ec))
    start = rank([
        (labels[v], len(adj[v]), tuple(sorted(ec for _, ec in adj[v])))
        for v in range(len(labels))
    ])
    root = full_refine(adj, start)
    assert incremental_refine(adj, start, range(len(labels))) == root
    # Individualize as the search does: the old way by ranking, the new
    # way by shifting.
    cell = next((c for c in cells_of(root) if len(c) > 1), [])
    for v in cell:
        old_split = rank([(root[u], u == v) for u in range(len(root))])
        new_split = [c + 1 if c > root[v] else c for c in root]
        new_split[v] = root[v] + 1
        assert new_split == old_split
        assert incremental_refine(adj, new_split, [v]) == full_refine(
            adj, old_split
        )
    return len(cell)


def test_incremental_refinement_matches_full_recompute():
    rng = random.Random(1931)
    individualized = sum(
        check_refinement(
            *random_labeled_graph(rng, max_n=12, labels="CCN")
        )
        for _ in range(400)
    )
    assert individualized >= 150


def test_refinement_rechecks_cells_next_to_every_later_part():
    # F-C-C and F-C-C-C: the degree-2 carbons split three ways in the
    # first round; the end carbons and the fluorines, whose neighbours lie
    # in two of those parts, split only in the second.
    labels = ("C", "F", "C", "C", "C", "F", "C")
    edges = [(0, 1, 1), (0, 2, 1), (3, 5, 1), (3, 6, 1), (4, 6, 1)]
    check_refinement(labels, edges)


def test_star_search_is_pruned(monkeypatch):
    refinements = [0]
    refine = nbg._refine

    def counting(*args):
        refinements[0] += 1
        return refine(*args)

    monkeypatch.setattr(nbg, "_refine", counting)
    labels, edges = star_graph(6)
    canonical_signature(labels, edges)
    # Without pruning the search individualizes the six leaves in all
    # 6! orders: 1,237 refinements. Orbit pruning needs 41.
    assert refinements[0] < 100


# Alkane constitutional isomers with 1 to 13 carbons (Cayley 1875; OEIS A000602).
ALKANE_ISOMERS = [1, 1, 1, 2, 3, 5, 9, 18, 35, 75, 159, 355, 802]


def test_alkane_counts_match_the_published_isomer_numbers():
    """Grow every tree of maximum degree 4 one leaf at a time, keeping one
    tree per signature: a merge of two non-isomorphic trees would lower a
    count, a missed isomorphism would raise it."""
    trees = [[]]
    counts = [1]
    for n in range(2, len(ALKANE_ISOMERS) + 1):
        grown = {}
        for edges in trees:
            degree = [0] * (n - 1)
            for a, b, _ in edges:
                degree[a] += 1
                degree[b] += 1
            for v in range(n - 1):
                if degree[v] < 4:
                    tree = edges + [(v, n - 1, 1)]
                    grown.setdefault(canonical_signature(("C",) * n, tree), tree)
        trees = list(grown.values())
        counts.append(len(trees))
    assert counts == ALKANE_ISOMERS
