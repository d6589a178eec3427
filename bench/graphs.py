"""Graph oracles of the benchmark, written apart from molspace.

Graphs are (n, edges) with 0-indexed edges ``(i, j, order)``. Everything
here is brute force or a textbook method other than the program's own
(no low-link search, no individualization-refinement canonicalizer).
"""

from __future__ import annotations

from itertools import permutations


def decode_signature(sig):
    """(labels, edges) from the documented signature format.

    ``L1,L2,...|ddd...``: vertex labels in canonical order, then the upper
    triangle of the edge-order matrix, row by row, one digit per pair
    (0 where no edge). Raises ValueError on anything else.
    """
    if sig.count("|") != 1:
        raise ValueError(f"no single '|' in {sig!r}")
    label_part, tri = sig.split("|")
    labels = label_part.split(",") if label_part else []
    n = len(labels)
    if len(tri) != n * (n - 1) // 2 or (tri and not tri.isdigit()):
        raise ValueError(f"bad matrix part in {sig!r}")
    edges = []
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            if tri[k] != "0":
                edges.append((i, j, int(tri[k])))
            k += 1
    return labels, edges


def components(n, edges, skip_vertex=-1, skip_edge=-1):
    """Connected components, optionally without one vertex or one edge."""
    adj = [[] for _ in range(n)]
    for k, (a, b, _o) in enumerate(edges):
        if k == skip_edge or skip_vertex in (a, b):
            continue
        adj[a].append(b)
        adj[b].append(a)
    seen = [False] * n
    count = 0
    for s in range(n):
        if seen[s] or s == skip_vertex:
            continue
        count += 1
        seen[s] = True
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def removal_oracle(n, edges):
    """(cut vertex count, bridge count) by deleting one element at a time."""
    base = components(n, edges)
    cuts = sum(1 for v in range(n) if components(n, edges, skip_vertex=v) > base)
    bridges = sum(
        1 for k in range(len(edges)) if components(n, edges, skip_edge=k) > base
    )
    return cuts, bridges


def cyclic_edges(n, edges):
    """Indices of the edges that lie on a cycle, by cycle cover: every
    non-tree edge of a breadth-first forest, plus the tree path it closes.
    (Not the low-link search the program uses.)"""
    adj = [[] for _ in range(n)]
    for k, (a, b, _o) in enumerate(edges):
        adj[a].append((b, k))
        adj[b].append((a, k))
    parent = [-1] * n
    parent_edge = [-1] * n
    depth = [-1] * n
    for root in range(n):
        if depth[root] >= 0:
            continue
        depth[root] = 0
        queue = [root]
        for v in queue:
            for u, k in adj[v]:
                if depth[u] < 0:
                    depth[u] = depth[v] + 1
                    parent[u], parent_edge[u] = v, k
                    queue.append(u)
    tree = set(parent_edge) - {-1}
    cyclic = set()
    for k, (a, b, _o) in enumerate(edges):
        if k in tree:
            continue
        cyclic.add(k)
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            cyclic.add(parent_edge[a])
            a = parent[a]
    return cyclic


def is_bridgeless_connected(n, edges):
    """Connected, and every edge on a cycle."""
    return n > 0 and components(n, edges) == 1 and \
        len(cyclic_edges(n, edges)) == len(edges)


def order_sums(n, edges):
    sums = [0] * n
    for a, b, o in edges:
        sums[a] += o
        sums[b] += o
    return sums


def brute_canonical(n, edges):
    """Smallest upper-triangle order string over all n! relabelings."""
    m = [[0] * n for _ in range(n)]
    for a, b, o in edges:
        m[a][b] = m[b][a] = o
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return min(
        "".join(str(m[p[i]][p[j]]) for i, j in pairs) for p in permutations(range(n))
    )


def wl_colours(labels, edges, rounds=None):
    """Colour refinement with label-independent colour names.

    Runs ``rounds`` rounds, or until the partition stops splitting. A colour
    is the hash of (own colour, multiset of (bond order, neighbour colour)),
    so isomorphic graphs get equal colour multisets. Hashes are compared
    only within one process.
    """
    n = len(labels)
    adj = [[] for _ in range(n)]
    for a, b, o in edges:
        adj[a].append((b, o))
        adj[b].append((a, o))
    colour = [hash((labels[v], len(adj[v]))) for v in range(n)]
    classes = len(set(colour))
    done = 0
    while rounds is None or done < rounds:
        colour = [
            hash((colour[v], tuple(sorted((o, colour[u]) for u, o in adj[v]))))
            for v in range(n)
        ]
        done += 1
        if rounds is None:
            new_classes = len(set(colour))
            if new_classes == classes:
                break
            classes = new_classes
    return colour, adj


def invariant(labels, edges, rounds=None):
    """Hash of the refined colour multiset: equal for isomorphic graphs."""
    colour, _ = wl_colours(labels, edges, rounds)
    return hash((tuple(sorted(colour)), len(edges)))


def isomorphic(labels_a, edges_a, labels_b, edges_b):
    """Exact isomorphism test for labelled graphs with bond orders.

    Backtracking over a breadth-first vertex order of the first graph, each
    vertex matched to an unused vertex of equal refined colour that agrees
    with every vertex already matched.
    """
    n = len(labels_a)
    if n != len(labels_b) or len(edges_a) != len(edges_b):
        return False
    col_a, adj_a = wl_colours(labels_a, edges_a)
    col_b, adj_b = wl_colours(labels_b, edges_b)
    if sorted(col_a) != sorted(col_b):
        return False
    mb = [dict(x) for x in adj_b]
    order, seen = [], [False] * n
    for s in sorted(range(n), key=lambda v: col_a.count(col_a[v])):
        if seen[s]:
            continue
        seen[s] = True
        order.append(s)
        k = len(order) - 1
        while k < len(order):
            for u, _o in adj_a[order[k]]:
                if not seen[u]:
                    seen[u] = True
                    order.append(u)
            k += 1
    image = [-1] * n
    used = [False] * n

    def extend(k):
        if k == n:
            return True
        v = order[k]
        for w in range(n):
            if used[w] or col_b[w] != col_a[v]:
                continue
            if any(mb[w].get(image[u]) != o for u, o in adj_a[v] if image[u] >= 0):
                continue
            if sum(1 for u, _o in adj_a[v] if image[u] >= 0) != \
                    sum(1 for x in mb[w] if used[x]):
                continue
            image[v], used[w] = w, True
            if extend(k + 1):
                return True
            image[v], used[w] = -1, False
        return False

    return extend(0)
