"""Checks of molspace outputs against expectations computed apart from it.

Each ``check_*`` function raises ``CheckError`` on the first disagreement
and returns nothing useful otherwise; ``lookup_cores`` returns the names of
reference cores missing from a ``generate-nbg0`` output.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from functools import cached_property

from graphs import (
    brute_canonical,
    cyclic_edges,
    decode_signature,
    invariant,
    is_bridgeless_connected,
    isomorphic,
    order_sums,
    removal_oracle,
)

DEFAULT_VALENCE = {"C": 4, "N": 3, "O": 2, "F": 1}

# Relative and absolute tolerance of a KL entry against the benchmark's own
# value: both sum the same terms, in different orders.
KL_TOL = 1e-9


class CheckError(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckError(message)


def body_lines(text, command):
    """Output lines after the '#' header; the first header names command."""
    lines = text.split("\n")
    expect(lines and lines[-1] == "", f"{command}: output does not end in a newline")
    lines = lines[:-1]
    expect(lines and lines[0].startswith("# molspace ") and lines[0].endswith(" " + command),
           f"{command}: first header line is {lines[0] if lines else ''!r}")
    return [ln for ln in lines if not ln.startswith("#")]


# ---------------------------------------------------------------------------
# per-record expectations
# ---------------------------------------------------------------------------


class Mol:
    """A record's heavy graph, 0-indexed, with hydrogens from default valence."""

    def __init__(self, rec):
        self.rec = rec
        self.elements = rec["elements"]
        self.n = len(self.elements)
        self.edges = [(a - 1, b - 1, o) for a, b, o in rec["bonds"]]
        self.adj = [[] for _ in range(self.n)]
        for a, b, o in self.edges:
            self.adj[a].append((b, o))
            self.adj[b].append((a, o))
        sums = order_sums(self.n, self.edges)
        self.h = [DEFAULT_VALENCE[el] - s for el, s in zip(self.elements, sums)]

    @cached_property
    def codes(self):
        c0 = [f"{el}{len(self.adj[v])}{self.h[v]}" for v, el in enumerate(self.elements)]

        def level(centre, nbr_codes, open_, close):
            nbr = sorted(nbr_codes, reverse=True)
            return centre + open_ + ",".join(nbr) + close if nbr else centre

        c1 = [level(c0[v], (c0[u] for u, _ in self.adj[v]), "(", ")") for v in range(self.n)]
        c2 = [level(c0[v], (c1[u] for u, _ in self.adj[v]), "[", "]") for v in range(self.n)]
        return c0, c1, c2

    def gcn2_level(self):
        best = 0
        for v in range(self.n):
            ball = {v}
            for u, _ in self.adj[v]:
                ball.add(u)
                ball.update(w for w, _ in self.adj[u])
            best = max(best, len(ball))
        return best - 1 if self.n else 0

    @cached_property
    def cyclic(self):
        return cyclic_edges(self.n, self.edges)

    def cores(self):
        """(vertex count, edges) of each component left after deleting
        the non-cyclic edges, relabelled from 0."""
        kept = [self.edges[k] for k in sorted(self.cyclic)]
        comp = [-1] * self.n
        adj = [[] for _ in range(self.n)]
        for a, b, _o in kept:
            adj[a].append(b)
            adj[b].append(a)
        out = []
        for s in range(self.n):
            if comp[s] >= 0 or not adj[s]:
                continue
            members = [s]
            comp[s] = s
            for v in members:
                for u in adj[v]:
                    if comp[u] < 0:
                        comp[u] = s
                        members.append(u)
            index = {v: i for i, v in enumerate(sorted(members))}
            out.append((len(members), [(index[a], index[b], o) for a, b, o in kept
                                       if comp[a] == s]))
        return out

    def scaffold(self):
        """(vertex count, edges) after iterated removal of degree <= 1 atoms."""
        alive = [True] * self.n
        degree = [len(a) for a in self.adj]
        stack = [v for v in range(self.n) if degree[v] <= 1]
        while stack:
            v = stack.pop()
            if not alive[v]:
                continue
            alive[v] = False
            for u, _ in self.adj[v]:
                if alive[u]:
                    degree[u] -= 1
                    if degree[u] <= 1:
                        stack.append(u)
        keep = [v for v in range(self.n) if alive[v]]
        index = {v: i for i, v in enumerate(keep)}
        return len(keep), [(index[a], index[b], o) for a, b, o in self.edges
                           if alive[a] and alive[b]]


def skeleton_digest(n, edges):
    return invariant(["C"] * n, edges, rounds=3)


def check_encode(mols, text, sample):
    """Check one encode output against its input records (as ``Mol``).

    ``sample`` is the set of record indices whose cut-vertex and bridge
    counts are recomputed by the deletion oracle; every record's bridge
    count is recomputed by cycle cover.
    """
    lines = body_lines(text, "encode")
    expect(len(lines) == len(mols),
           f"encode: {len(lines)} output lines for {len(mols)} records")
    for idx, (mol, line) in enumerate(zip(mols, lines)):
        rec = mol.rec
        where = f"encode line for record {rec['id']}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CheckError(f"{where}: not JSON ({exc})") from exc
        expect(obj.get("id") == rec["id"], f"encode: record {idx} has id {obj.get('id')!r}, "
               f"expected {rec['id']!r}")
        expect(obj["na"] == mol.n, f"{where}: na {obj['na']} != {mol.n}")
        c0, c1, c2 = mol.codes
        expect(obj["gcn0"] == c0, f"{where}: gcn0 differs")
        expect(obj["gcn1"] == c1, f"{where}: gcn1 differs")
        expect(obj["gcn2"] == c2, f"{where}: gcn2 differs")
        expect(obj["gcn2_level"] == mol.gcn2_level(), f"{where}: gcn2_level differs")
        n_cyclic = len(mol.cyclic)
        expect(obj["bridges"] == len(mol.edges) - n_cyclic,
               f"{where}: bridges {obj['bridges']} != {len(mol.edges) - n_cyclic}")
        if idx in sample:
            cuts, bridges = removal_oracle(mol.n, mol.edges)
            expect((obj["cut_vertices"], obj["bridges"]) == (cuts, bridges),
                   f"{where}: cut counts {obj['cut_vertices']},{obj['bridges']} "
                   f"!= oracle {cuts},{bridges}")
        vc, ec = obj["cut_vertices"], obj["bridges"]
        expect(obj["nbg_level"] == max(vc, ec), f"{where}: nbg_level differs")
        expect(obj["within_plus"] == (vc <= 3 and ec <= 3), f"{where}: within_plus differs")
        decoded = []
        for sig in obj["nbg0"]:
            labels, edges = decode_signature(sig)
            expect(set(labels) <= {"C"}, f"{where}: core {sig} is not a skeleton")
            decoded.append((len(labels), edges))
        expect(obj["nbg0"] == sorted(obj["nbg0"]), f"{where}: nbg0 not sorted")
        rank = sum(len(e) - n + 1 for n, e in decoded)
        expect(rank == len(mol.edges) - mol.n + 1,
               f"{where}: core cycle ranks sum to {rank}, molecule has "
               f"{len(mol.edges) - mol.n + 1}")
        got = sorted(skeleton_digest(n, e) for n, e in decoded)
        want = sorted(skeleton_digest(n, e) for n, e in mol.cores())
        expect(got == want, f"{where}: cores differ from the record's cycle components")
        acyclic = len(mol.edges) == mol.n - 1
        expect((obj["scaffold"] is None) == acyclic,
               f"{where}: scaffold is {obj['scaffold']!r}, record acyclic: {acyclic}")
        if not acyclic:
            labels, edges = decode_signature(obj["scaffold"])
            sn, se = mol.scaffold()
            expect(skeleton_digest(len(labels), edges) == skeleton_digest(sn, se),
                   f"{where}: scaffold differs from the pruned record")


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def check_coverage(mols, text, name, nbg0_types=None):
    """Check a coverage report of records (as ``Mol``); nbg0_types, when
    given, is exact."""
    records = [mol.rec for mol in mols]
    lines = body_lines(text, "coverage")
    expect(len(lines) == 1, f"coverage: {len(lines)} body lines")
    rep = json.loads(lines[0])
    expect(rep["name"] == name, f"coverage: name {rep['name']!r}")
    expect(rep["conformation_count"] == len(records),
           f"coverage: {rep['conformation_count']} records, input has {len(records)}")
    molecules = {rec.get("mol", rec["id"]) for rec in records}
    expect(rep["molecule_count"] == len(molecules),
           f"coverage: {rep['molecule_count']} molecules, input has {len(molecules)}")
    hist = Counter(str(len(rec["elements"])) for rec in records)
    expect(rep["na_histogram"] == dict(hist),
           "coverage: heavy-atom histogram differs from the input")
    sets = (set(), set(), set())
    for mol in mols:
        for s, codes in zip(sets, mol.codes):
            s.update(codes)
    for level, s in enumerate(sets):
        key = f"gcn{level}_types"
        expect(rep[key] == len(s), f"coverage: {key} {rep[key]} != {len(s)}")
    t = rep["nbg0_types"]
    expect(t["skeleton-no-order"] <= t["skeleton"] <= t["element-order"],
           f"coverage: nbg0_types out of order {t}")
    if nbg0_types is not None:
        expect(t == nbg0_types, f"coverage: nbg0_types {t} != {nbg0_types}")
    expect(sum(rep["nbg_plus_levels"].values()) == len(records),
           "coverage: nbg_plus_levels do not sum to the record count")


# ---------------------------------------------------------------------------
# kl
# ---------------------------------------------------------------------------


def kl_expected(classes, epsilon):
    """Matrix [row q][col p] = D(P || Q) from per-table class labels."""
    counts = [Counter(c) for c in classes]
    support = sorted(set().union(*counts))
    dists = []
    for c in counts:
        total = sum(c.values()) + epsilon * len(support)
        dists.append([(c.get(x, 0) + epsilon) / total for x in support])
    return [[math.fsum(p * math.log(p / q) for p, q in zip(dp, dq))
             for dp in dists] for dq in dists]


def check_kl(text, names, classes, epsilon):
    lines = body_lines(text, "kl")
    expect(lines[0] == "name\t" + "\t".join(names), f"kl: column line {lines[0]!r}")
    expect(len(lines) == 1 + len(names), f"kl: {len(lines) - 1} rows")
    want = kl_expected(classes, epsilon)
    for r, line in enumerate(lines[1:]):
        cells = line.split("\t")
        expect(cells[0] == names[r], f"kl: row {r} named {cells[0]!r}")
        row = [float(x) for x in cells[1:]]
        expect(len(row) == len(names), f"kl: row {cells[0]} has {len(row)} entries")
        for c, value in enumerate(row):
            expect(value >= 0, f"kl: negative entry [{r}][{c}] = {value}")
            if r == c:
                expect(value == 0.0, f"kl: diagonal entry [{r}][{r}] = {value}")
            expect(abs(value - want[r][c]) <= KL_TOL * (1 + abs(want[r][c])),
                   f"kl: entry [{r}][{c}] = {value!r}, expected {want[r][c]!r}")


def isomorphism_classes(items):
    """Class label per item of (key, labels, edges).

    Items with one key are taken to be the same molecule. Keys whose
    molecules the benchmark's own isomorphism test finds equal are merged
    under the first such key.
    """
    reps = {}
    key_class = {}
    out = []
    for key, labels, edges in items:
        if key not in key_class:
            bucket = reps.setdefault(invariant(labels, edges), [])
            for rep_key, rep_labels, rep_edges in bucket:
                if isomorphic(rep_labels, rep_edges, labels, edges):
                    key_class[key] = key_class[rep_key]
                    break
            else:
                bucket.append((key, labels, edges))
                key_class[key] = key
        out.append(key_class[key])
    return out


# ---------------------------------------------------------------------------
# generate-nbg0
# ---------------------------------------------------------------------------


def _iso_key(n, edges):
    sums = order_sums(n, edges)
    deg = [0] * n
    for a, b, _o in edges:
        deg[a] += 1
        deg[b] += 1
    return n, tuple(sorted(o for _a, _b, o in edges)), tuple(sorted(zip(deg, sums)))


def check_generate(text, max_heavy):
    """Check every core line; return the decoded cores as (n, edges)."""
    lines = text.split("\n")
    expect(lines[-1] == "", "generate-nbg0: output does not end in a newline")
    expect(lines[0] == f"# generator=nbg0 max_heavy={max_heavy} mode=skeleton",
           f"generate-nbg0: header {lines[0]!r}")
    body = lines[1:-1]
    expect(len(set(body)) == len(body), "generate-nbg0: a core line repeats")
    cores = []
    for sig in body:
        try:
            labels, edges = decode_signature(sig)
        except ValueError as exc:
            raise CheckError(f"generate-nbg0: {exc}") from exc
        n = len(labels)
        expect(set(labels) == {"C"}, f"generate-nbg0: {sig} is not all carbon")
        expect(3 <= n <= max_heavy, f"generate-nbg0: {sig} has {n} atoms")
        expect(is_bridgeless_connected(n, edges),
               f"generate-nbg0: {sig} is disconnected or has a bridge")
        expect(max(order_sums(n, edges)) <= 4, f"generate-nbg0: {sig} exceeds valence 4")
        cores.append((n, edges))
    groups = {}
    for n, edges in cores:
        if n <= 6:
            groups.setdefault(_iso_key(n, edges), []).append(edges)
    for key, members in groups.items():
        if len(members) > 1:
            forms = [brute_canonical(key[0], e) for e in members]
            expect(len(set(forms)) == len(forms),
                   f"generate-nbg0: two isomorphic {key[0]}-atom cores")
    return cores


def lookup_cores(cores, references):
    """Names of reference cores with no isomorphic core in the output."""
    index = {}
    for n, edges in cores:
        index.setdefault(_iso_key(n, edges), []).append(edges)
    missing = []
    for name, n, edges in references:
        candidates = index.get(_iso_key(n, edges), [])
        labels = ["C"] * n
        if not any(isomorphic(labels, edges, labels, c) for c in candidates):
            missing.append(name)
    return missing


def check_gcn0_list(text):
    codes = text.split("\n")
    expect(codes[-1] == "", "enumerate: output does not end in a newline")
    codes = codes[:-1]
    expect(len(codes) == 30 and len(set(codes)) == 30, f"enumerate gcn0: {len(codes)} codes")
    expect(codes == sorted(codes, reverse=True), "enumerate gcn0: not in descending order")
    for code in codes:
        el, deg, h = code[0], int(code[1]), int(code[2])
        expect(el in DEFAULT_VALENCE and len(code) == 3, f"enumerate gcn0: bad code {code!r}")
        cap = 4 if el == "N" else DEFAULT_VALENCE[el]
        expect(deg + h <= cap, f"enumerate gcn0: {code} exceeds its valence")

