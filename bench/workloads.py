"""Seeded inputs of the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain record objects
(heavy-atom line format, 1-indexed bonds, ``h: "auto"``). Nothing here
imports molspace: the inputs, and the expectations the checks derive from
them, are made apart from the program under test.
"""

from __future__ import annotations

import json
import os
from itertools import combinations_with_replacement

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

DEFAULT_VALENCE = {"C": 4, "N": 3, "O": 2, "F": 1}


# ---------------------------------------------------------------------------
# corpus: the make-up of the acceptance corpus
# ---------------------------------------------------------------------------


def random_molecule(rng, max_heavy=32, ring_chance=0.3):
    """Valence-respecting random molecule (copy of the acceptance generator).

    Kept here rather than imported so that a change to the test helpers
    never changes the benchmark's inputs.
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


def record(rec_id, elements, bonds, mol=None):
    obj = {"id": rec_id, "elements": list(elements),
           "bonds": [list(b) for b in bonds], "h": "auto"}
    if mol is not None:
        obj["mol"] = mol
    return obj


def corpus_records(rng, count, prefix="r"):
    out = []
    for i in range(count):
        elements, bonds = random_molecule(rng)
        out.append(record(f"{prefix}{i}", elements, bonds))
    return out


# ---------------------------------------------------------------------------
# symmetric: branched and cage molecules from construction keys
# ---------------------------------------------------------------------------

GROUPS = {
    # name: (elements, bonds within the group, 0-indexed; atom 0 attaches)
    "H": ((), ()),
    "Me": (("C",), ()),
    "tBu": (("C", "C", "C", "C"), ((0, 1), (0, 2), (0, 3))),
    "CF3": (("C", "F", "F", "F"), ((0, 1), (0, 2), (0, 3))),
    "iPr": (("C", "C", "C"), ((0, 1), (0, 2))),
    "neopentyl": (("C", "C", "C", "C", "C"), ((0, 1), (1, 2), (1, 3), (1, 4))),
}


def _ring(n, orders=None):
    orders = orders or [1] * n
    return ["C"] * n, [(i, (i + 1) % n, orders[i]) for i in range(n)]


def _cubane():
    return ["C"] * 8, [
        (a, b, 1) for a in range(8) for b in range(a + 1, 8)
        if bin(a ^ b).count("1") == 1
    ]


def _adamantane():
    # Bridgeheads 0..3; each CH2 (4..9) joins one pair of bridgeheads.
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    bonds = []
    for k, (a, b) in enumerate(pairs):
        bonds.append((a, 4 + k, 1))
        bonds.append((b, 4 + k, 1))
    return ["C"] * 10, bonds


def _dodecahedrane():
    # Outer pentagon u, spokes v, zig-zag w, inner pentagon z.
    u, v, w, z = (lambda i: i % 5), (lambda i: 5 + i % 5), \
        (lambda i: 10 + i % 5), (lambda i: 15 + i % 5)
    bonds = []
    for i in range(5):
        bonds += [(u(i), u(i + 1), 1), (u(i), v(i), 1), (v(i), w(i), 1),
                  (w(i), v(i + 1), 1), (w(i), z(i), 1), (z(i), z(i + 1), 1)]
    return ["C"] * 20, bonds


# Ring parts: (builder, attachment sites by name). Atom 0 of every ring part
# is a representative site; adamantane has two site classes.
RING_PARTS = {
    "benzene": (lambda: _ring(6, [2, 1, 2, 1, 2, 1]), {"": 0}),
    "cyclohexane": (lambda: _ring(6), {"": 0}),
    "cubane": (_cubane, {"": 0}),
    "adamantane": (_adamantane, {"1": 0, "2": 4}),
    "dodecahedrane": (_dodecahedrane, {"": 0}),
}

BRANCH_GROUPS = ("H", "Me", "tBu", "CF3", "iPr", "neopentyl")
BULKY = ("tBu", "CF3", "neopentyl")


def build_key(key):
    """(elements, 0-indexed bonds, ring part or None) of a construction key.

    Keys: ``C[g,g,g,g]`` (groups on a central carbon), ``CC[g,g,g|g,g,g]``
    (groups on the two ethane carbons), ``<ring>`` or ``<ring>-<site>:<g>``
    (a ring part, optionally with one group on one site).
    """
    elements: list[str] = []
    bonds: list[tuple[int, int, int]] = []

    def attach(at, group):
        g_el, g_bonds = GROUPS[group]
        if not g_el:
            return
        base = len(elements)
        elements.extend(g_el)
        bonds.append((at, base, 1))
        bonds.extend((base + a, base + b, 1) for a, b in g_bonds)

    if key.startswith("C[") or key.startswith("CC["):
        centres = 1 if key.startswith("C[") else 2
        slots = key[key.index("[") + 1:-1].split("|")
        elements.extend(["C"] * centres)
        if centres == 2:
            bonds.append((0, 1, 1))
        for c, spec in enumerate(slots):
            for group in spec.split(","):
                attach(c, group)
        return elements, bonds, None
    name, _, sub = key.partition("-")
    builder, sites = RING_PARTS[name]
    ring_el, ring_bonds = builder()
    elements.extend(ring_el)
    bonds.extend(ring_bonds)
    if sub:
        site, group = sub.split(":")
        attach(sites[site], group)
    return elements, bonds, name


def symmetric_catalog():
    """Every construction key the symmetric workload may draw from.

    Branched keys with four bulky groups are left out: their whole-molecule
    canonical search takes seconds or does not finish. Tetra-tert-butyl-
    methane is added once by ``symmetric_keys``.
    """
    keys = []
    for combo in combinations_with_replacement(BRANCH_GROUPS, 4):
        if sum(g in BULKY for g in combo) <= 3:
            keys.append("C[" + ",".join(combo) + "]")
    for left in combinations_with_replacement(("H", "Me", "tBu", "CF3"), 3):
        for right in combinations_with_replacement(("H", "iPr"), 3):
            if sum(g in BULKY for g in left) <= 1:
                keys.append("CC[" + ",".join(left) + "|" + ",".join(right) + "]")
    for name, (_, sites) in RING_PARTS.items():
        keys.append(name)
        for site in sites:
            for group in ("Me", "tBu", "CF3", "iPr"):
                keys.append(f"{name}-{site}:{group}" if site else f"{name}-:{group}")
    return keys


TETRA_TBU = "C[tBu,tBu,tBu,tBu]"


def shuffled_record(rng, rec_id, key, elements, bonds):
    """Write a molecule under a seeded random atom order and bond order."""
    n = len(elements)
    perm = list(range(n))
    rng.shuffle(perm)
    new_el = [""] * n
    for old, new in enumerate(perm):
        new_el[new] = elements[old]
    new_bonds = []
    for a, b, order in bonds:
        a, b = perm[a] + 1, perm[b] + 1
        if rng.random() < 0.5:
            a, b = b, a
        new_bonds.append((a, b, order))
    rng.shuffle(new_bonds)
    return record(rec_id, new_el, new_bonds, mol=key)


def write_records(rng, prefix, keys, build):
    """One record per key, in a seeded order, each under a seeded atom order."""
    keys = list(keys)
    rng.shuffle(keys)
    out = []
    for i, key in enumerate(keys):
        elements, bonds = build(key)
        out.append(shuffled_record(rng, f"{prefix}{i}", key, elements, bonds))
    return out


def split_tables(rng, keys, build, train_only=()):
    """(train, eval): keys dealt at random between two tables of equal
    size; keys in train_only go to train."""
    keys = list(keys)
    rng.shuffle(keys)
    fixed = [k for k in keys if k in train_only]
    rest = [k for k in keys if k not in train_only]
    half = len(keys) // 2 - len(fixed)
    return (write_records(rng, "t", fixed + rest[:half], build),
            write_records(rng, "e", rest[half:], build))


def symmetric_keys(rng, repeats):
    """Every catalog key once, tetra-tert-butylmethane once, and
    ``repeats`` seeded repeats of cheap keys (at most one bulky group, or a
    ring part other than dodecahedrane), so the canonical-search cost of a
    table does not depend on the seed."""
    catalog = symmetric_catalog()
    cheap = [k for k in catalog
             if not k.startswith("dodecahedrane")
             and sum(k.count(g) for g in BULKY) <= 1]
    return catalog + [TETRA_TBU] + [rng.choice(cheap) for _ in range(repeats)]


def symmetric_build(key):
    elements, bonds, _part = build_key(key)
    return elements, bonds


# ---------------------------------------------------------------------------
# reference cores, looked up in the generate-nbg0 output
# ---------------------------------------------------------------------------


def load_reference_cores():
    """Brute-force cores of 3..5 atoms, then the named cages, as
    (name, n, [(i, j, order), ...]) with 0-indexed bonds."""
    out = []
    for fname in ("cores_le5.jsonl", "cages.jsonl"):
        with open(os.path.join(DATA, fname), encoding="utf-8") as fh:
            for line in fh:
                obj = json.loads(line)
                out.append((obj["name"], obj["n"],
                            [tuple(e) for e in obj["edges"]]))
    return out
