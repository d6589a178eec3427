"""Bridge-free topology analysis of hydrogen-suppressed molecular graphs.

The topological axis of the representation splits a molecule at its cut
vertices and bridges. What remains after deleting the bridges is a set of
ring/cage cores; those cores, canonicalized, are the level-0 topology types.
A small recursive generator enumerates every such core up to a heavy-atom
bound, and an isovalent substitution pass decorates carbon skeletons with
nitrogen or oxygen where neutral valences permit.

Canonical forms are exact: iterative color refinement over
(label, degree, incident edge orders) followed by an
individualization-refinement search over the remaining color classes,
keeping the lexicographically smallest serialization. Two leaves with
equal serializations give an automorphism; a child is skipped when an
automorphism fixing its parent's path maps an already searched sibling
onto it (orbit pruning, as in nauty/Traces: McKay and Piperno, J. Symb.
Comput. 2014). That leaves the smallest serialization unchanged, and it
keeps the search small on molecules with large symmetry groups. No
hashing shortcuts are taken, so distinct signatures always mean
non-isomorphic labeled graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable

from .errors import InvalidArgument, TooLarge
from .molgraph import HeavyGraph, validate

# Signatures are exact up to this size. With orbit pruning the search
# stays small even on highly symmetric molecules: 26-atom
# hexa-tert-butylethane takes 183 refinements (tens of milliseconds).
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


@dataclass(frozen=True)
class NbgTopology:
    """A canonicalized topology: signature string plus vertex count."""

    signature: str
    na: int


@dataclass(frozen=True)
class NbgPlusClass:
    """Cut-set classification of a molecule."""

    cut_vertex_count: int
    bridge_count: int
    level: int
    within_plus: bool


def cut_decomposition(g: HeavyGraph) -> CutDecomposition:
    """Find articulation vertices and bridges in one depth-first pass.

    Classic low-link computation (Tarjan 1972), iterative so deep chains
    cannot overflow the interpreter stack. Bond orders play no role here.
    """
    n = g.na
    adj = g.neighbors

    disc = [-1] * n
    low = [0] * n
    cuts: set[int] = set()
    bridges: set[tuple[int, int]] = set()
    timer = 0

    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack: list[tuple[int, int, int]] = [(root, -1, 0)]
        while stack:
            v, parent, ptr = stack[-1]
            if ptr < len(adj[v]):
                stack[-1] = (v, parent, ptr + 1)
                w = adj[v][ptr][0]
                if w == parent:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    stack.append((w, v, 0))
                elif disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                    if low[v] > disc[pv]:
                        bridges.add((min(pv, v), max(pv, v)))
                    if pv != root and low[v] >= disc[pv]:
                        cuts.add(pv)
        if root_children >= 2:
            cuts.add(root)

    return CutDecomposition(
        cut_vertices=frozenset(cuts), bridges=frozenset(bridges)
    )


def nbg_plus_class(cd: CutDecomposition) -> NbgPlusClass:
    """Classify a molecule by the cut-set sizes of its decomposition.

    level = max(cut vertices, bridges); the molecule sits inside the
    extended topology space when both counts are at most 3. The definition
    is applied uniformly, so acyclic molecules land at level >= 1 as soon
    as they have any bridge.
    """
    vc = len(cd.cut_vertices)
    ec = len(cd.bridges)
    return NbgPlusClass(
        cut_vertex_count=vc,
        bridge_count=ec,
        level=max(vc, ec),
        within_plus=(vc <= 3 and ec <= 3),
    )


# ---------------------------------------------------------------------------
# Canonical signatures
# ---------------------------------------------------------------------------


def _rank(keys: list) -> list[int]:
    """Replace arbitrary sortable keys by their rank among distinct keys."""
    order = {k: r for r, k in enumerate(sorted(set(keys)))}
    return [order[k] for k in keys]


def _refine(adj: list[list[tuple[int, int]]], color: list[int]) -> list[int]:
    """Iteratively split color classes by colored-neighborhood profiles."""
    n = len(color)
    ncolors = len(set(color))
    while True:
        keys = [
            (color[v], tuple(sorted((ec, color[u]) for u, ec in adj[v])))
            for v in range(n)
        ]
        new = _rank(keys)
        new_ncolors = len(set(new))
        if new_ncolors == ncolors:
            return new
        color = new
        ncolors = new_ncolors


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
    n = len(labels)
    if n > MAX_SIGNATURE_VERTICES:
        raise TooLarge(
            f"graph has {n} vertices, above the signature cap of "
            f"{MAX_SIGNATURE_VERTICES}"
        )
    if n == 0:
        return "|"
    for label in labels:
        if "," in label or "|" in label:
            raise InvalidArgument(f"vertex label {label!r} contains a delimiter")
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, j, ec in edges:
        if not 1 <= ec <= 9:
            raise InvalidArgument(f"edge color {ec} outside 1..9")
        adj[i].append((j, ec))
        adj[j].append((i, ec))

    init_keys = [
        (labels[v], len(adj[v]), tuple(sorted(ec for _, ec in adj[v])))
        for v in range(n)
    ]
    color = _refine(adj, _rank(init_keys))

    tri_len = n * (n - 1) // 2
    row_offset = [v * (2 * n - v - 1) // 2 for v in range(n)]

    def serialize(coloring: list[int]) -> str:
        order = sorted(range(n), key=coloring.__getitem__)
        pos = [0] * n
        for idx, v in enumerate(order):
            pos[v] = idx
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
    # Automorphisms found at equal leaves, as vertex maps.
    generators: list[list[int]] = []
    path: list[int] = []

    def descend(coloring: list[int]) -> None:
        nonlocal first, best
        counts: dict[int, int] = {}
        for c in coloring:
            counts[c] = counts.get(c, 0) + 1
        target = -1
        for c in sorted(counts):
            if counts[c] > 1:
                target = c
                break
        if target < 0:
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
        cell = [v for v in range(n) if coloring[v] == target]
        # Orbits of the generators that fix the path pointwise, as a
        # union-find forest whose roots are the smallest members; built
        # only once such a generator exists.
        orbits: list[int] | None = None
        scanned = 0
        for v in cell:
            if len(generators) > scanned:
                for gen in generators[scanned:]:
                    if all(gen[p] == p for p in path):
                        if orbits is None:
                            orbits = list(range(n))
                        for u in range(n):
                            _join(orbits, u, gen[u])
                scanned = len(generators)
            # A smaller cell vertex in v's orbit was searched already, and
            # the automorphism mapping it to v maps its subtree onto v's.
            if orbits is not None and _root(orbits, v) != v:
                continue
            path.append(v)
            split = _rank([(coloring[u], u == v) for u in range(n)])
            descend(_refine(adj, split))
            path.pop()

    descend(color)
    assert best is not None
    return best[0]


def _leaf_map(a: list[int], b: list[int]) -> list[int]:
    """The vertex map sending each vertex of discrete coloring a to the
    vertex of discrete coloring b that has the same color (leaf colors are
    the ranks 0..n-1)."""
    at = [0] * len(b)
    for v, c in enumerate(b):
        at[c] = v
    return [at[c] for c in a]


def _root(forest: list[int], v: int) -> int:
    while forest[v] != v:
        forest[v] = forest[forest[v]]
        v = forest[v]
    return v


def _join(forest: list[int], a: int, b: int) -> None:
    a, b = _root(forest, a), _root(forest, b)
    if a != b:
        forest[max(a, b)] = min(a, b)


def decode_signature(signature: str) -> tuple[tuple[str, ...], list[tuple[int, int, int]]]:
    """Recover (labels, edges) from a signature string."""
    try:
        label_part, tri = signature.split("|")
    except ValueError as exc:
        raise InvalidArgument(f"not a signature: {signature!r}") from exc
    labels = tuple(label_part.split(",")) if label_part else ()
    n = len(labels)
    if len(tri) != n * (n - 1) // 2:
        raise InvalidArgument(f"signature matrix length mismatch: {signature!r}")
    edges: list[tuple[int, int, int]] = []
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            ec = ord(tri[k]) - 48
            if ec:
                edges.append((i, j, ec))
            k += 1
    return labels, edges


def _mode_view(
    elements: tuple[str, ...],
    edges: list[tuple[int, int, int]],
    mode: str,
) -> tuple[tuple[str, ...], list[tuple[int, int, int]]]:
    if mode not in MODES:
        raise InvalidArgument(f"unknown topology mode {mode!r}")
    if mode == MODE_ELEMENT_ORDER:
        return elements, edges
    labels = tuple("C" for _ in elements)
    if mode == MODE_SKELETON:
        return labels, edges
    return labels, [(i, j, 1) for i, j, _ in edges]


def topology_of(
    elements: tuple[str, ...],
    edges: list[tuple[int, int, int]],
    mode: str = DEFAULT_MODE,
) -> NbgTopology:
    """Canonicalize an explicit subgraph under the given mode."""
    labels, view_edges = _mode_view(elements, edges, mode)
    return NbgTopology(
        signature=canonical_signature(labels, view_edges), na=len(elements)
    )


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def nbg0_extract(
    g: HeavyGraph,
    bridges: frozenset[tuple[int, int]],
    mode: str = DEFAULT_MODE,
) -> list[NbgTopology]:
    """Extract the bridge-free ring/cage cores of a molecule.

    ``bridges`` are the graph's bridges, from its cut decomposition.
    Deleting them leaves components; those with an edge are exactly the
    nontrivial two-edge-connected components (at least three vertices, at
    least one cycle). The result keeps one entry per component, in order of
    smallest vertex, so repeated cores appear with their multiplicity.
    """
    n = g.na
    comp = [-1] * n
    cores: list[list[int]] = []
    for start in range(n):
        if comp[start] != -1:
            continue
        comp[start] = len(cores)
        members = [start]
        stack = [start]
        while stack:
            v = stack.pop()
            for w, _ in g.neighbors[v]:
                if comp[w] == -1 and ((v, w) if v < w else (w, v)) not in bridges:
                    comp[w] = len(cores)
                    members.append(w)
                    stack.append(w)
        if len(members) > 1:
            cores.append(sorted(members))
        else:
            comp[start] = -2

    core_edges: list[list[tuple[int, int, int]]] = [[] for _ in cores]
    for i, j, order in g.bonds:
        if comp[i] >= 0 and comp[i] == comp[j]:
            core_edges[comp[i]].append((i, j, order))
    out: list[NbgTopology] = []
    for vertices, edges in zip(cores, core_edges):
        index = {v: k for k, v in enumerate(vertices)}
        elements = tuple(g.elements[v] for v in vertices)
        local = [(index[i], index[j], order) for i, j, order in edges]
        out.append(topology_of(elements, local, mode))
    return out


def scaffold(g: HeavyGraph, mode: str = DEFAULT_MODE) -> NbgTopology | None:
    """Iteratively strip degree-0/1 heavy atoms; None when nothing is left.

    The fixed point keeps every cycle and every path connecting cycles, so
    the result is empty exactly for acyclic molecules and the operation is
    idempotent.
    """
    n = g.na
    degree = [len(g.neighbors[v]) for v in range(n)]
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
    if not vertices:
        return None
    index = {v: k for k, v in enumerate(vertices)}
    elements = tuple(g.elements[v] for v in vertices)
    edges = [
        (index[i], index[j], order)
        for i, j, order in g.bonds
        if alive[i] and alive[j]
    ]
    return topology_of(elements, edges, mode)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

MIN_GENERATE_HEAVY = 3
MAX_GENERATE_HEAVY = 13

_CARBON_VALENCE = 4


def _state_graph(
    n: int, edges: dict[tuple[int, int], int]
) -> HeavyGraph:
    bond_list = tuple(sorted((i, j, order) for (i, j), order in edges.items()))
    h = [_CARBON_VALENCE] * n
    for i, j, order in bond_list:
        h[i] -= order
        h[j] -= order
    return HeavyGraph(
        elements=tuple("C" for _ in range(n)),
        bonds=bond_list,
        h_count=tuple(max(0, x) for x in h),
    )


def _expansions(
    n: int, edges: dict[tuple[int, int], int], max_heavy: int
) -> list[tuple[int, dict[tuple[int, int], int]]]:
    """All single-operation successors of an all-carbon core.

    Five operations: methylene spiro-expansion at a carbon with two spare
    valences, single-bond expansion into a triangle, single-bond methylene
    insertion, and promotion of a bond order by one (1 to 2, 2 to 3).
    """
    slack = [_CARBON_VALENCE] * n
    for (i, j), order in edges.items():
        slack[i] -= order
        slack[j] -= order

    out: list[tuple[int, dict[tuple[int, int], int]]] = []

    for v in range(n):
        if slack[v] >= 2 and n + 2 <= max_heavy:
            new = dict(edges)
            new[(v, n)] = 1
            new[(v, n + 1)] = 1
            new[(n, n + 1)] = 1
            out.append((n + 2, new))

    for (a, b), order in edges.items():
        if order == 1 and n + 1 <= max_heavy and slack[a] >= 1 and slack[b] >= 1:
            new = dict(edges)
            new[(a, n)] = 1
            new[(b, n)] = 1
            out.append((n + 1, new))
        if order == 1 and n + 1 <= max_heavy:
            new = dict(edges)
            del new[(a, b)]
            new[(a, n)] = 1
            new[(b, n)] = 1
            out.append((n + 1, new))
        if order in (1, 2) and slack[a] >= 1 and slack[b] >= 1:
            new = dict(edges)
            new[(a, b)] = order + 1
            out.append((n, new))

    return out


def nbg0_generate(max_heavy: int) -> set[NbgTopology]:
    """Enumerate all bridge-free all-carbon cores up to max_heavy atoms.

    Breadth-first closure of the 3-cycle seed under the five expansion
    operations, keeping candidates that stay valence-feasible, deduplicated
    by canonical signature. Output order is irrelevant; callers serialize
    the set sorted.
    """
    graphs = generate_with_graphs(max_heavy)
    return {topo for topo, _ in graphs}


def generate_with_graphs(max_heavy: int) -> list[tuple[NbgTopology, HeavyGraph]]:
    """As nbg0_generate, but keep one representative graph per signature."""
    if not MIN_GENERATE_HEAVY <= max_heavy <= MAX_GENERATE_HEAVY:
        raise InvalidArgument(
            f"max_heavy must lie in "
            f"[{MIN_GENERATE_HEAVY}, {MAX_GENERATE_HEAVY}], got {max_heavy}"
        )
    seed_edges = {(0, 1): 1, (0, 2): 1, (1, 2): 1}
    seed = _state_graph(3, seed_edges)
    seed_topo = topology_of(seed.elements, list(seed.bonds), MODE_ELEMENT_ORDER)

    seen: dict[str, tuple[NbgTopology, HeavyGraph]] = {
        seed_topo.signature: (seed_topo, seed)
    }
    frontier: list[tuple[int, dict[tuple[int, int], int]]] = [(3, seed_edges)]
    while frontier:
        next_frontier: list[tuple[int, dict[tuple[int, int], int]]] = []
        for n, edges in frontier:
            for n2, edges2 in _expansions(n, edges, max_heavy):
                candidate = _state_graph(n2, edges2)
                if validate(candidate):
                    continue
                topo = topology_of(
                    candidate.elements, list(candidate.bonds), MODE_ELEMENT_ORDER
                )
                if topo.signature in seen:
                    continue
                seen[topo.signature] = (topo, candidate)
                next_frontier.append((n2, edges2))
        frontier = next_frontier
    return [seen[sig] for sig in sorted(seen)]


# Order-sum caps for neutral-valence substitution of a skeleton carbon.
_SUBSTITUTION_CAPS = {"N": 3, "O": 2}


def isovalent_substitutions(
    t: NbgTopology, heteroatoms: set[str] | frozenset[str]
) -> set[NbgTopology]:
    """Decorate a carbon core with heteroatoms where neutral valence allows.

    Each carbon may become N when its incident bond order sum is at most 3,
    or O when it is at most 2 (implicit hydrogens absorb the slack). All
    assignments are canonicalized and deduplicated; the unsubstituted input
    is always a member of the result.
    """
    bad = set(heteroatoms) - set(_SUBSTITUTION_CAPS)
    if bad:
        raise InvalidArgument(f"unsupported heteroatoms: {sorted(bad)}")
    labels, edges = decode_signature(t.signature)
    n = len(labels)
    order_sum = [0] * n
    for i, j, order in edges:
        order_sum[i] += order
        order_sum[j] += order

    options: list[list[str]] = []
    for v in range(n):
        opts = ["C"]
        for el in sorted(heteroatoms):
            if order_sum[v] <= _SUBSTITUTION_CAPS[el]:
                opts.append(el)
        options.append(opts)

    out: set[NbgTopology] = set()
    for assignment in product(*options):
        out.add(
            NbgTopology(
                signature=canonical_signature(tuple(assignment), edges), na=n
            )
        )
    return out


def serialize_topologies(
    topologies: Iterable[NbgTopology] | set[NbgTopology],
    header_fields: dict[str, object] | None = None,
) -> str:
    """One signature per line, sorted, preceded by '#' header lines."""
    lines: list[str] = []
    if header_fields:
        pairs = " ".join(f"{k}={header_fields[k]}" for k in header_fields)
        lines.append(f"# {pairs}")
    for sig in sorted(t.signature for t in topologies):
        lines.append(sig)
    return "\n".join(lines) + "\n"
