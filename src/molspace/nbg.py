"""Bridge-free topology analysis of hydrogen-suppressed molecular graphs.

The topological axis of the representation splits a molecule at its cut
vertices and bridges. What remains after deleting the bridges is a set of
ring/cage cores; those cores, canonicalized, are the level-0 topology types.
Extraction returns cores and scaffolds as plain subgraphs; topology_of
alone applies a label mode and canonicalizes.

The generator lists every all-carbon core up to a heavy-atom bound, in
two levels, as nauty's geng and multig do. First the skeletons, the
connected bridgeless simple graphs of maximum degree 4. They grow from
the triangle by three ear operations: spiro (a new triangle through a
vertex), subdivision of an edge, and the chord (a new edge between
non-adjacent vertices). That reaches every skeleton. A graph is
connected and bridgeless exactly when it has an ear decomposition, a
cycle followed by ears (Robbins 1939). The cycle is a subdivided
triangle, a closed ear a subdivided spiro triangle, and an open ear a
subdivided chord or, when its ends are adjacent, the subdivided edge
between them followed by the chord. No graph on the way has more
vertices, or a vertex of larger degree, than the skeleton it leads to.
Then each skeleton gets its bond orders 1..3 within carbon valence, one
assignment per orbit of its automorphism group: the lexicographic
minimum of the orbit. Two cores on one skeleton are isomorphic exactly
when an automorphism maps one assignment to the other, and cores on
non-isomorphic skeletons never are, so each core is listed once, with no
set of the cores seen.

Canonical forms are exact: iterative color refinement over
(label, degree, incident edge orders) followed by an
individualization-refinement search over the remaining color classes,
keeping the lexicographically smallest serialization. Refinement keeps
the coloring as an ordered list of cells and, each round, re-profiles
only the cells next to a split; the colorings are the same as those of
re-profiling every vertex every round. Two leaves with
equal serializations give an automorphism; a child is skipped when an
automorphism fixing its parent's path maps an already searched sibling
onto it (orbit pruning, as in nauty/Traces: McKay and Piperno, J. Symb.
Comput. 2014). That leaves the smallest serialization unchanged, and it
keeps the search small on molecules with large symmetry groups. No
hashing shortcuts are taken, so distinct signatures always mean
non-isomorphic labeled graphs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter
from typing import Iterable

from .errors import InvalidArgument, TooLarge
from .molgraph import HeavyGraph

# Signatures are exact up to this size. With orbit pruning the search
# stays small even on highly symmetric molecules: 26-atom
# hexa-tert-butylethane takes 183 refinements (a few milliseconds). The
# cap also bounds the vertex colors, and so the bits that a packed
# refinement profile entry gives them (COLOR_BITS).
MAX_SIGNATURE_VERTICES = 32

MODE_ELEMENT_ORDER = "element-order"
MODE_SKELETON = "skeleton"
MODE_SKELETON_NO_ORDER = "skeleton-no-order"
MODES = (MODE_ELEMENT_ORDER, MODE_SKELETON, MODE_SKELETON_NO_ORDER)

DEFAULT_MODE = MODE_SKELETON


@dataclass(frozen=True)
class CutDecomposition:
    """Cut vertices and bridges of a heavy graph (0-indexed)."""

    cut_vertices: frozenset[int]
    bridges: frozenset[tuple[int, int]]

    @property
    def level(self) -> int:
        """The cut-set level, max(cut vertices, bridges).

        The definition is applied uniformly, so acyclic molecules land at
        level >= 1 as soon as they have any bridge.
        """
        return max(len(self.cut_vertices), len(self.bridges))

    @property
    def within_plus(self) -> bool:
        """Whether the molecule sits inside the extended topology space:
        at most 3 cut vertices and at most 3 bridges."""
        return len(self.cut_vertices) <= 3 and len(self.bridges) <= 3


def cut_decomposition(g: HeavyGraph) -> CutDecomposition:
    """Find articulation vertices and bridges in one depth-first pass.

    Classic low-link computation (Tarjan 1972), iterative so deep chains
    cannot overflow the interpreter stack: each vertex has its own
    iterator over its neighbors, which the search resumes whenever the
    vertex is back on top of the stack. Bond orders play no role here.
    """
    n = g.na
    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    pending = [iter(nbrs) for nbrs in g.neighbors]
    cuts: set[int] = set()
    bridges: set[tuple[int, int]] = set()
    timer = 0

    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack = [root]
        while stack:
            v = stack[-1]
            for w, _ in pending[v]:
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    parent[w] = v
                    stack.append(w)
                    break
                if disc[w] < low[v] and w != parent[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                pv = parent[v]
                if pv == -1:
                    continue
                if low[v] < low[pv]:
                    low[pv] = low[v]
                if low[v] > disc[pv]:
                    bridges.add((pv, v) if pv < v else (v, pv))
                if pv == root:
                    root_children += 1
                elif low[v] >= disc[pv]:
                    cuts.add(pv)
        if root_children >= 2:
            cuts.add(root)

    return CutDecomposition(
        cut_vertices=frozenset(cuts), bridges=frozenset(bridges)
    )


# ---------------------------------------------------------------------------
# Canonical signatures
# ---------------------------------------------------------------------------


# A profile entry packs an edge color and a neighbour's color into one
# int; vertex colors are below MAX_SIGNATURE_VERTICES.
COLOR_BITS = (MAX_SIGNATURE_VERTICES - 1).bit_length()


def _refine(
    adj: list[list[tuple[int, int]]],
    color: list[int],
    cells: list[list[int]],
    splitters: Iterable[int],
) -> None:
    """Split cells by colored-neighborhood profiles until none splits.

    ``cells`` is the ordered partition, each cell in ascending vertex
    order, and ``color[v]`` is the index of v's cell; both are updated in
    place. ``adj[v]`` holds ``(u, ec << COLOR_BITS)``. A round profiles
    from the previous round's colors, orders a split cell's parts by
    profile and renumbers all cells densely in cell order: the colors of
    re-profiling every vertex every round. But a round profiles only the
    non-singleton cells next to a splitter. A cell that splits makes the
    members of all its parts but the first largest one splitters of the
    next round. Any other cell cannot split: its members had equal
    profiles the round before, and one map of colors (the renumbering,
    and a split cell's color to that of its largest part) turns those
    into this round's profiles.
    """
    while True:
        touched = {color[u] for w in splitters for u, _ in adj[w]}
        splits: dict[int, list[list[int]]] = {}
        splitters = []
        for c in touched:
            cell = cells[c]
            if len(cell) == 1:
                continue
            parts: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                profile = tuple(sorted([e | color[u] for u, e in adj[v]]))
                parts.setdefault(profile, []).append(v)
            if len(parts) == 1:
                continue
            subs = [parts[k] for k in sorted(parts)]
            splits[c] = subs
            keep = max(subs, key=len)
            for sub in subs:
                if sub is not keep:
                    splitters.extend(sub)
        if not splits:
            return
        first = min(splits)
        cells[first:] = [
            sub
            for c in range(first, len(cells))
            for sub in splits.get(c, (cells[c],))
        ]
        for k in range(first, len(cells)):
            for v in cells[k]:
                color[v] = k


def canonical_signature(
    labels: tuple[str, ...] | list[str],
    edges: list[tuple[int, int, int]],
) -> str:
    """Exact canonical form of a vertex-labeled, edge-colored graph.

    The serialization is the vertex labels in canonical order, a ``|``
    separator, then the upper triangle of the edge-color matrix as digits
    (0 where no edge). Two inputs get equal signatures exactly when some
    bijection matches labels and edge colors.
    """
    return _canonical_search(labels, edges)[0]


# An automorphism as its moved pairs (u, image of u) and their bitmask.
Generator = tuple[list[tuple[int, int]], int]


def _canonical_search(
    labels: tuple[str, ...] | list[str],
    edges: list[tuple[int, int, int]],
) -> tuple[str, list[Generator]]:
    """The canonical signature, and automorphisms that generate the group.

    Let the first path individualize v1, v2, .... For each vertex w that an
    automorphism fixing v1..v(k-1) maps vk to, either a leaf equal to the
    first is found below w, or orbit pruning skips w. Leaves with equal
    colorings have equal paths, so the generators fixing v1..v(k-1) move vk
    through that whole orbit, for every k: they generate the whole group.
    """
    n = len(labels)
    if n > MAX_SIGNATURE_VERTICES:
        raise TooLarge(
            f"graph has {n} vertices, above the signature cap of "
            f"{MAX_SIGNATURE_VERTICES}"
        )
    if n == 0:
        return "|", []
    for label in labels:
        if "," in label or "|" in label:
            raise InvalidArgument(f"vertex label {label!r} contains a delimiter")
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, j, ec in edges:
        if not 1 <= ec <= 9:
            raise InvalidArgument(f"edge color {ec} outside 1..9")
        adj[i].append((j, ec << COLOR_BITS))
        adj[j].append((i, ec << COLOR_BITS))

    groups: dict[tuple, list[int]] = {}
    for v in range(n):
        key = (labels[v], len(adj[v]), tuple(sorted([e for _, e in adj[v]])))
        groups.setdefault(key, []).append(v)
    cells = [groups[k] for k in sorted(groups)]
    color = [0] * n
    for k, cell in enumerate(cells):
        for v in cell:
            color[v] = k
    _refine(adj, color, cells, range(n))

    tri_len = n * (n - 1) // 2
    row_offset = [v * (2 * n - v - 1) // 2 for v in range(n)]

    def serialize(pos: list[int]) -> str:
        """The serialization of a leaf, whose colors are positions."""
        order = [0] * n
        for v, p in enumerate(pos):
            order[p] = v
        tri = bytearray(b"0" * tri_len)
        for i, j, ec in edges:
            a, b = pos[i], pos[j]
            if a > b:
                a, b = b, a
            tri[row_offset[a] + (b - a - 1)] = 48 + ec
        return ",".join(labels[v] for v in order) + "|" + tri.decode("ascii")

    # The first leaf and the best leaf so far, as (serialization, coloring).
    first: tuple[str, list[int]] | None = None
    best: tuple[str, list[int]] | None = None
    generators: list[Generator] = []

    def descend(
        coloring: list[int], cells: list[list[int]], path_mask: int
    ) -> None:
        nonlocal first, best
        if len(cells) == n:
            s = serialize(coloring)
            if first is None:
                first = best = (s, coloring)
            elif s == first[0]:
                generators.append(_leaf_map(first[1], coloring))
            elif s == best[0]:
                generators.append(_leaf_map(best[1], coloring))
            elif s < best[0]:
                best = (s, coloring)
            return
        target = next(k for k, cell in enumerate(cells) if len(cell) > 1)
        cell = cells[target]
        # Orbits of the generators that fix the path pointwise, as a
        # union-find forest whose roots are the smallest members; built
        # only once such a generator exists.
        orbits: list[int] | None = None
        scanned = 0
        for v in cell:
            if len(generators) > scanned:
                for moved, support in generators[scanned:]:
                    if not support & path_mask:
                        if orbits is None:
                            orbits = list(range(n))
                        for u, w in moved:
                            _join(orbits, u, w)
                scanned = len(generators)
            # A smaller cell vertex in v's orbit was searched already, and
            # the automorphism mapping it to v maps its subtree onto v's.
            if orbits is not None and _root(orbits, v) != v:
                continue
            # Individualize v: it gets the color just above the rest of
            # its cell, and every later cell moves up by one.
            child = [c + 1 if c > target else c for c in coloring]
            child[v] = target + 1
            child_cells = cells[:target] + [
                [u for u in cell if u != v], [v]
            ] + cells[target + 1:]
            _refine(adj, child, child_cells, (v,))
            descend(child, child_cells, path_mask | 1 << v)

    descend(color, cells, 0)
    assert best is not None
    return best[0], generators


def _leaf_map(a: list[int], b: list[int]) -> Generator:
    """The automorphism sending each vertex of discrete coloring a to the
    vertex of discrete coloring b that has the same color (leaf colors are
    the positions 0..n-1), as its moved pairs and their bitmask."""
    at = [0] * len(b)
    for v, c in enumerate(b):
        at[c] = v
    moved = [(v, at[c]) for v, c in enumerate(a) if at[c] != v]
    return moved, sum(1 << v for v, _ in moved)


def _root(forest: list[int], v: int) -> int:
    while forest[v] != v:
        forest[v] = forest[forest[v]]
        v = forest[v]
    return v


def _join(forest: list[int], a: int, b: int) -> None:
    a, b = _root(forest, a), _root(forest, b)
    if a != b:
        forest[max(a, b)] = min(a, b)


def topology_of(
    elements: tuple[str, ...],
    edges: list[tuple[int, int, int]],
    mode: str = DEFAULT_MODE,
) -> str:
    """Signature of an explicit subgraph under the given mode.

    element-order keeps elements and bond orders, skeleton relabels every
    atom as carbon, and skeleton-no-order also makes every bond single.
    """
    if mode not in MODES:
        raise InvalidArgument(f"unknown topology mode {mode!r}")
    if mode != MODE_ELEMENT_ORDER:
        elements = ("C",) * len(elements)
        if mode == MODE_SKELETON_NO_ORDER:
            edges = [(i, j, 1) for i, j, _ in edges]
    return canonical_signature(elements, edges)


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

# An extracted subgraph as (elements, edges), renumbered from 0; topology_of
# canonicalizes it under a mode.
Subgraph = tuple[tuple[str, ...], list[tuple[int, int, int]]]


def _induced(g: HeavyGraph, vertices: list[int]) -> Subgraph:
    """The subgraph of g induced by ascending vertices, renumbered 0..k-1."""
    index = {v: k for k, v in enumerate(vertices)}
    edges = [
        (index[i], index[j], order)
        for i, j, order in g.bonds
        if i in index and j in index
    ]
    return tuple(g.elements[v] for v in vertices), edges


def nbg0_extract(
    g: HeavyGraph, bridges: frozenset[tuple[int, int]]
) -> list[Subgraph]:
    """Extract the bridge-free ring/cage cores of a molecule.

    ``bridges`` are the graph's bridges, from its cut decomposition.
    Deleting them leaves components; those with an edge are exactly the
    nontrivial two-edge-connected components (at least three vertices, at
    least one cycle). The result keeps one subgraph per component, in
    order of smallest vertex, so repeated cores appear with their
    multiplicity. Every bond between two atoms of a component lies in it.
    A molecule whose bonds are all bridges is acyclic and has no core.
    """
    if len(bridges) == len(g.bonds):
        return []
    n = g.na
    seen = [False] * n
    cores: list[Subgraph] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        members = [start]
        stack = [start]
        while stack:
            v = stack.pop()
            for w, _ in g.neighbors[v]:
                if not seen[w] and ((v, w) if v < w else (w, v)) not in bridges:
                    seen[w] = True
                    members.append(w)
                    stack.append(w)
        if len(members) > 1:
            cores.append(_induced(g, sorted(members)))
    return cores


def scaffold(g: HeavyGraph) -> Subgraph | None:
    """Iteratively strip degree-0/1 heavy atoms; None when nothing is left.

    The fixed point keeps every cycle and every path connecting cycles, so
    the result is empty exactly for acyclic molecules and the operation is
    idempotent.
    """
    n = g.na
    degree = list(map(len, g.neighbors))
    alive = [True] * n
    queue = [v for v in range(n) if degree[v] <= 1]
    while queue:
        v = queue.pop()
        if not alive[v]:
            continue
        alive[v] = False
        for w, _ in g.neighbors[v]:
            if alive[w]:
                degree[w] -= 1
                if degree[w] <= 1:
                    queue.append(w)
    vertices = [v for v in range(n) if alive[v]]
    return _induced(g, vertices) if vertices else None


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

# The output grows about 8x per atom. With a bound of 10 the generator
# lists 817,419 cores in 74 s with a 165 MB peak RSS (one core of a 2-core
# Xeon host, Python 3.11), the largest bound measured to finish.
MIN_GENERATE_HEAVY = 3
MAX_GENERATE_HEAVY = 10

_CARBON_VALENCE = 4

# A skeleton as its vertex count and its sorted edges (i, j), i < j.
Skeleton = tuple[int, tuple[tuple[int, int], ...]]


def _group(n: int, generators: list[Generator]) -> list[tuple[int, ...]]:
    """Every element of the permutation group the generators generate."""
    gens = [[m.get(v, v) for v in range(n)] for m in (dict(g[0]) for g in generators)]
    group = frontier = {tuple(range(n))}
    while frontier:
        frontier = {tuple([g[v] for v in p]) for p in frontier for g in gens} - group
        group = group | frontier
    return list(group)


def _ear_successors(
    skeleton: Skeleton, group: list[tuple[int, ...]], max_heavy: int
) -> list[Skeleton]:
    """The skeletons one ear operation (spiro, subdivision, chord) away.

    Spiro needs a vertex of degree at most 2, the chord two vertices of
    degree below 4. A site is skipped when an automorphism maps it to a
    smaller one, which gives the same skeleton.
    """
    n, edges = skeleton
    degree = Counter(v for edge in edges for v in edge)
    out: list[tuple[int, set[tuple[int, int]]]] = []
    for v in range(n):
        if n + 2 <= max_heavy and degree[v] <= 2 and all(p[v] >= v for p in group):
            out.append((n + 2, {*edges, (v, n), (v, n + 1), (n, n + 1)}))
    for a, b in combinations(range(n), 2):
        if any(tuple(sorted((p[a], p[b]))) < (a, b) for p in group):
            continue
        if (a, b) in edges:
            if n < max_heavy:
                out.append((n + 1, set(edges) - {(a, b)} | {(a, n), (b, n)}))
        elif degree[a] < 4 and degree[b] < 4:
            out.append((n, {*edges, (a, b)}))
    return [(m, tuple(sorted(e))) for m, e in out]


def _bond_orders(
    skeleton: Skeleton, group: list[tuple[int, ...]]
) -> list[list[tuple[int, int, int]]]:
    """One bond-order assignment per orbit of the automorphism group.

    Orders 1..3 are assigned edge by edge within carbon valence; a full
    assignment is kept when no automorphism maps it to a lexicographically
    smaller one, so each orbit keeps exactly its minimum.
    """
    n, edges = skeleton
    index = {e: k for k, e in enumerate(edges)}
    images = [
        itemgetter(*[index[tuple(sorted((p[i], p[j])))] for i, j in edges])
        for p in group
    ]
    degree = Counter(v for edge in edges for v in edge)
    spare = [_CARBON_VALENCE - degree[v] for v in range(n)]
    orders = [1] * len(edges)
    out: list[list[tuple[int, int, int]]] = []

    def assign(k: int) -> None:
        if k == len(edges):
            x = tuple(orders)
            if all(image(x) >= x for image in images):
                out.append([(i, j, o) for (i, j), o in zip(edges, x)])
            return
        i, j = edges[k]
        for extra in range(min(spare[i], spare[j], 2) + 1):
            orders[k] = 1 + extra
            spare[i] -= extra
            spare[j] -= extra
            assign(k + 1)
            spare[i] += extra
            spare[j] += extra

    assign(0)
    return out


def nbg0_generate(max_heavy: int) -> list[str]:
    """Enumerate bridge-free all-carbon cores up to max_heavy atoms.

    Each skeleton reached from the triangle is kept the first time its
    signature is seen; its cores are its bond-order assignments.
    Returns the sorted signatures.
    """
    if not MIN_GENERATE_HEAVY <= max_heavy <= MAX_GENERATE_HEAVY:
        raise InvalidArgument(
            f"max_heavy must lie in "
            f"[{MIN_GENERATE_HEAVY}, {MAX_GENERATE_HEAVY}], got {max_heavy}"
        )
    stack: list[Skeleton] = [(3, ((0, 1), (0, 2), (1, 2)))]
    seen: set[str] = set()
    cores: list[str] = []
    while stack:
        n, edges = skeleton = stack.pop()
        labels = ("C",) * n
        sig, generators = _canonical_search(labels, [(i, j, 1) for i, j in edges])
        if sig in seen:
            continue
        seen.add(sig)
        group = _group(n, generators)
        for bonds in _bond_orders(skeleton, group):
            cores.append(canonical_signature(labels, bonds))
        stack.extend(_ear_successors(skeleton, group, max_heavy))
    return sorted(cores)
