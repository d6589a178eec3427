"""Shared molecule builders, random generators and brute-force oracles."""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import molspace
from molspace.molgraph import DEFAULT_VALENCE, HeavyGraph, heavy_graph, parse_record_obj


def child_env(**overrides):
    """Environment for a child interpreter that imports this checkout's
    molspace: the source directory leads its PYTHONPATH."""
    env = dict(os.environ, **overrides)
    src = str(Path(molspace.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def record(rec_id, elements, bonds, h="auto", props=None, mol=None):
    """Build a record object in the heavy-atom line format (1-indexed bonds)."""
    obj = {"id": rec_id, "elements": list(elements), "bonds": [list(b) for b in bonds], "h": h}
    if props is not None:
        obj["props"] = props
    if mol is not None:
        obj["mol"] = mol
    return obj


def record_line(rec_id, elements, bonds, h="auto", props=None, mol=None):
    return json.dumps(record(rec_id, elements, bonds, h, props, mol))


def build(elements, bonds, h="auto", rec_id="m"):
    """HeavyGraph from the record form; hydrogens inferred unless given."""
    return heavy_graph(parse_record_obj(record(rec_id, elements, bonds, h)))


# Reference molecules. Bond lists are 1-indexed (element order as listed);
# aromatic rings are written as explicit Kekule structures.

RING6 = [(1, 2, 2), (2, 3, 1), (3, 4, 2), (4, 5, 1), (5, 6, 2), (6, 1, 1)]


def methane():
    return build(["C"], [])


def ethane():
    return build(["C", "C"], [(1, 2, 1)])


def propane():
    return build(["C", "C", "C"], [(1, 2, 1), (2, 3, 1)])


def neopentane():
    return build(["C"] * 5, [(1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1)])


def n_hexane():
    return build(["C"] * 6, [(i, i + 1, 1) for i in range(1, 6)])


def benzene():
    return build(["C"] * 6, RING6)


def cyclohexane():
    return build(["C"] * 6, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (6, 1, 1)])


def toluene():
    return build(["C"] * 7, RING6 + [(1, 7, 1)])


def benzoic_acid():
    return build(["C"] * 7 + ["O", "O"], RING6 + [(1, 7, 1), (7, 8, 2), (7, 9, 1)])


def phenylethyl_pyridine():
    """4-(1-phenylethyl)pyridine: phenyl, CH(CH3) link, pyridine."""
    elements = ["C"] * 8 + ["C", "C", "C", "N", "C", "C"]
    bonds = RING6 + [(1, 7, 1), (7, 8, 1), (7, 9, 1)]
    bonds += [(9, 10, 2), (10, 11, 1), (11, 12, 2), (12, 13, 1), (13, 14, 2), (14, 9, 1)]
    return build(elements, bonds)


def biphenyl():
    elements = ["C"] * 12
    ring2 = [(i + 6, j + 6, o) for i, j, o in RING6]
    return build(elements, RING6 + ring2 + [(1, 7, 1)])


def methylhexene():
    """4-methylhex-2-ene."""
    bonds = [(1, 2, 1), (2, 3, 2), (3, 4, 1), (4, 5, 1), (5, 6, 1), (4, 7, 1)]
    return build(["C"] * 7, bonds)


def water():
    return build(["O"], [])


WATER_MOLFILE = "\n".join(
    [
        "water",
        "  test",
        "",
        "  3  2  0  0  0  0  0  0  0  0999 V2000",
        "    0.0000    0.0000    0.0000 O   0  0  0  0  0  0  0  0  0  0  0  0",
        "    0.9600    0.0000    0.0000 H   0  0  0  0  0  0  0  0  0  0  0  0",
        "   -0.2400    0.9300    0.0000 H   0  0  0  0  0  0  0  0  0  0  0  0",
        "  1  2  1  0  0  0  0",
        "  1  3  1  0  0  0  0",
        "M  END",
        "",
    ]
)

def molfile(title, elements, bonds):
    """A V2000 connection table from element symbols and 1-indexed bonds;
    every coordinate is zero."""
    counts = f"{len(elements):3d}{len(bonds):3d}  0  0  0  0  0  0  0  0999 V2000"
    lines = [title, "  test", "", counts]
    lines += [f"    0.0000    0.0000    0.0000 {el:<3} 0  0  0  0  0  0  0  0  0  0  0  0"
              for el in elements]
    lines += [f"{i:3d}{j:3d}{order:3d}  0  0  0  0" for i, j, order in bonds]
    return "\n".join(lines + ["M  END", ""])


# Ethanol with explicit hydrogens listed between its heavy atoms; its
# heavy atoms C, C, O are atoms 1, 5 and 8.
ETHANOL_MOLFILE = molfile(
    "ethanol",
    ["C", "H", "H", "H", "C", "H", "H", "O", "H"],
    [(1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1), (5, 6, 1), (5, 7, 1),
     (5, 8, 1), (8, 9, 1)],
)
ETHANOL_RECORD = record("ethanol", ["C", "C", "O"], [(1, 2, 1), (2, 3, 1)])

METHANE_MOLFILE = "\n".join(
    [
        "methane",
        "  test",
        "",
        "  1  0  0  0  0  0  0  0  0  0999 V2000",
        "    0.0000    0.0000    0.0000 C   0  0  0  0  0  0  0  0  0  0  0  0",
        "M  END",
        "",
    ]
)


# Brute-force oracles. These recompute cut vertices and bridges by
# deleting one element at a time and counting components.


def _components(n, edges):
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            for a, b in edges:
                if a == v and not seen[b]:
                    seen[b] = True
                    stack.append(b)
                elif b == v and not seen[a]:
                    seen[a] = True
                    stack.append(a)
    return count


def oracle_cuts(n, edges):
    """Cut vertices and bridges by exhaustive removal."""
    base = _components(n, edges)
    cut_vertices = set()
    for v in range(n):
        kept = [(a, b) for a, b in edges if a != v and b != v]
        remaining = [u for u in range(n) if u != v]
        relabel = {u: k for k, u in enumerate(remaining)}
        sub = [(relabel[a], relabel[b]) for a, b in kept]
        if _components(n - 1, sub) > base:
            cut_vertices.add(v)
    bridges = set()
    for idx, edge in enumerate(edges):
        kept = edges[:idx] + edges[idx + 1 :]
        if _components(n, kept) > base:
            bridges.add((min(edge), max(edge)))
    return cut_vertices, bridges


def random_connected_graph(rng, max_n=10):
    """Random connected simple graph as (n, edge list)."""
    n = rng.randint(2, max_n)
    edges = []
    for v in range(1, n):
        edges.append((rng.randrange(v), v))
    extra = rng.randint(0, n)
    present = set(edges)
    for _ in range(extra):
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            continue
        e = (min(a, b), max(a, b))
        if e in present:
            continue
        present.add(e)
        edges.append(e)
    return n, edges


def random_labeled_graph(rng, max_n=8, labels="CNO", colors=(1, 2, 3)):
    """Random connected vertex-labeled edge-colored graph for signatures."""
    n, plain_edges = random_connected_graph(rng, max_n)
    vlabels = tuple(rng.choice(labels) for _ in range(n))
    edges = [(a, b, rng.choice(colors)) for a, b in plain_edges]
    return vlabels, edges


def decode_signature(signature):
    """(labels, edges) of a canonical signature: comma-separated labels,
    '|', then the upper triangle of the bond-order matrix, row by row."""
    label_part, tri = signature.split("|")
    labels = tuple(label_part.split(",")) if label_part else ()
    n = len(labels)
    assert len(tri) == n * (n - 1) // 2, signature
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return labels, [(i, j, int(c)) for (i, j), c in zip(pairs, tri) if c != "0"]


def permute_graph(rng, labels, edges):
    """Apply a random vertex permutation; the signature must not change."""
    n = len(labels)
    perm = list(range(n))
    rng.shuffle(perm)
    new_labels = [""] * n
    for old, new in enumerate(perm):
        new_labels[new] = labels[old]
    new_edges = [(perm[a], perm[b], c) for a, b, c in edges]
    rng.shuffle(new_edges)
    return tuple(new_labels), new_edges


def brute_isomorphic(labels_a, edges_a, labels_b, edges_b):
    """Permutation search isomorphism test for small graphs."""
    from itertools import permutations

    n = len(labels_a)
    if n != len(labels_b) or len(edges_a) != len(edges_b):
        return False
    if sorted(labels_a) != sorted(labels_b):
        return False
    set_b = {(min(a, b), max(a, b), c) for a, b, c in edges_b}
    for perm in permutations(range(n)):
        if any(labels_a[v] != labels_b[perm[v]] for v in range(n)):
            continue
        mapped = {(min(perm[a], perm[b]), max(perm[a], perm[b]), c) for a, b, c in edges_a}
        if mapped == set_b:
            return True
    return False


def random_molecule(rng, max_heavy=32, ring_chance=0.3):
    """Valence-respecting random molecule in the heavy-atom record form.

    Every atom keeps its order sum at or below the default valence, so
    hydrogen inference never clamps and every environment is encodable.
    """
    n = rng.randint(1, max_heavy)
    elements = []
    budget = []
    for _ in range(n):
        el = rng.choice("CCCCNNOF")
        elements.append(el)
        budget.append(DEFAULT_VALENCE[el])
    bonds = []
    kept = 1
    for i in range(1, n):
        parents = [j for j in range(kept) if budget[j] >= 1]
        if not parents:
            break
        j = rng.choice(parents)
        order = rng.choice([1, 1, 1, 2, 3])
        order = min(order, budget[j], budget[i])
        bonds.append((j + 1, i + 1, order))
        budget[j] -= order
        budget[i] -= order
        kept += 1
    elements = elements[:kept]
    if kept >= 3 and rng.random() < ring_chance:
        open_atoms = [j for j in range(kept) if budget[j] >= 1]
        rng.shuffle(open_atoms)
        present = {(min(a, b), max(a, b)) for a, b, _ in bonds}
        for a, b in zip(open_atoms[0::2], open_atoms[1::2]):
            key = (min(a, b) + 1, max(a, b) + 1)
            if key in present:
                continue
            bonds.append((key[0], key[1], 1))
            budget[a] -= 1
            budget[b] -= 1
    return elements, bonds


def random_molecule_record(rng, idx, max_heavy=32, props=None):
    elements, bonds = random_molecule(rng, max_heavy)
    return record(f"r{idx}", elements, bonds, props=props)


# Symmetric carbon skeletons as (labels, 0-indexed edges). Their large
# automorphism groups are what the canonical search has to prune.


def _tert_butyl_skeleton(centres, groups_per_centre):
    """Central carbons (bonded in a chain) each carrying tert-butyl groups."""
    labels = ["C"] * centres
    edges = [(c, c + 1, 1) for c in range(centres - 1)]
    for c in range(centres):
        for _ in range(groups_per_centre):
            q = len(labels)
            labels += ["C"] * 4
            edges += [(c, q, 1), (q, q + 1, 1), (q, q + 2, 1), (q, q + 3, 1)]
    return tuple(labels), edges


def tert_butyl_methane(groups):
    """Methane carrying 1..4 tert-butyl groups (17 atoms at 4)."""
    return _tert_butyl_skeleton(1, groups)


def hexa_tert_butyl_ethane():
    """Ethane with three tert-butyl groups on each carbon: 26 atoms."""
    return _tert_butyl_skeleton(2, 3)


def star_graph(leaves, label="C"):
    """A centre bonded to ``leaves`` vertices; neopentane at 4."""
    return (label,) + ("C",) * leaves, [(0, k, 1) for k in range(1, leaves + 1)]


def complete_graph(n):
    return ("C",) * n, [(a, b, 1) for a in range(n) for b in range(a + 1, n)]


def k33_graph():
    return ("C",) * 6, [(a, b, 1) for a in range(3) for b in range(3, 6)]


def prism_graph():
    """Triangular prism."""
    return ("C",) * 6, [
        (0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1),
        (0, 3, 1), (1, 4, 1), (2, 5, 1),
    ]


def cubane_graph():
    return ("C",) * 8, [
        (a, b, 1) for a in range(8) for b in range(a + 1, 8)
        if bin(a ^ b).count("1") == 1
    ]


def adamantane_graph():
    """Bridgeheads 0..3; each CH2 (4..9) joins one pair of bridgeheads."""
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    edges = []
    for k, (a, b) in enumerate(pairs):
        edges += [(a, 4 + k, 1), (b, 4 + k, 1)]
    return ("C",) * 10, edges


def dodecahedrane_graph():
    """Outer pentagon u, spokes v, zig-zag w, inner pentagon z."""
    edges = []
    for i in range(5):
        u, u1, v, v1 = i, (i + 1) % 5, 5 + i, 5 + (i + 1) % 5
        w, z, z1 = 10 + i, 15 + i, 15 + (i + 1) % 5
        edges += [(u, u1, 1), (u, v, 1), (v, w, 1), (w, v1, 1), (w, z, 1),
                  (z, z1, 1)]
    return ("C",) * 20, edges


def petersen_graph():
    return ("C",) * 10, (
        [(i, (i + 1) % 5, 1) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5, 1) for i in range(5)]
        + [(i, i + 5, 1) for i in range(5)]
    )


def dicyano_bis_fluoroformyl_methane():
    """C(C#N)2(C(=O)F)2: N/O/F labels, bond orders 2 and 3, and two pairs
    of swappable arms."""
    labels = ["C"]
    edges = []
    for end, order in (("N", 3), ("N", 3), ("O", 2), ("O", 2)):
        q = len(labels)
        labels += ["C", end]
        edges += [(0, q, 1), (q, q + 1, order)]
        if end == "O":
            labels.append("F")
            edges.append((q, q + 2, 1))
    return tuple(labels), edges


SYMMETRIC_GRAPHS = {
    "tetra-tert-butylmethane": tert_butyl_methane(4),
    "tri-tert-butylmethane": tert_butyl_methane(3),
    "neopentane": star_graph(4),
    "cubane": cubane_graph(),
    "adamantane": adamantane_graph(),
    "dodecahedrane": dodecahedrane_graph(),
    "petersen": petersen_graph(),
    "k33": k33_graph(),
    "prism": prism_graph(),
    "hexa-tert-butylethane": hexa_tert_butyl_ethane(),
    "dicyano-bis(fluoroformyl)methane": dicyano_bis_fluoroformyl_methane(),
}
