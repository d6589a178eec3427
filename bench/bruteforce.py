"""Regenerate the brute-force list of bridge-free all-carbon cores.

    python3 bench/bruteforce.py > bench/data/cores_le5.jsonl

Enumerates every symmetric bond-order matrix (orders 0..3) on 3, 4 and 5
atoms, keeps those that are connected, bridgeless and within carbon
valence (order sum at most 4 per atom), and keeps one matrix per
permutation class. It finds 5, 17 and 61 cores (83 in all), in a few
seconds. The named cages (prismane, cubane) are in ``data/cages.jsonl``.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import product

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from graphs import brute_canonical, is_bridgeless_connected  # noqa: E402

EXPECTED = {3: 5, 4: 17, 5: 61}


def cores(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    seen = {}
    for orders in product(range(4), repeat=len(pairs)):
        load = [0] * n
        for (i, j), o in zip(pairs, orders):
            load[i] += o
            load[j] += o
        if max(load) > 4:
            continue
        edges = [(i, j, o) for (i, j), o in zip(pairs, orders) if o]
        if not is_bridgeless_connected(n, edges):
            continue
        canon = brute_canonical(n, edges)
        seen.setdefault(canon, edges)
    return [seen[c] for c in sorted(seen)]


def main():
    for n in (3, 4, 5):
        found = cores(n)
        if len(found) != EXPECTED[n]:
            raise SystemExit(f"{n} atoms: found {len(found)}, expected {EXPECTED[n]}")
        for k, edges in enumerate(found):
            print(json.dumps({"name": f"bf{n}_{k}", "n": n,
                              "edges": [list(e) for e in edges]}))


if __name__ == "__main__":
    main()
