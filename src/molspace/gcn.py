"""Hierarchical local-valence codes for heavy atoms.

A level-0 code is three characters: element letter, heavy-neighbor count,
hydrogen count (``C31`` is a carbon with three heavy neighbors and one
hydrogen). Level 1 appends the sorted level-0 codes of the neighbors in
parentheses; level 2 appends the sorted level-1 strings of the neighbors
in brackets. Atoms with no heavy neighbor keep their bare level-0 code at
every level.

Neighbor lists are always sorted in descending byte-wise order of the code
strings, which fixes a single canonical spelling per environment. The
closed table of admissible level-0 codes (12 C, 12 N, 4 O, 2 F) drives the
exact enumeration and counting routines; counts are exact big integers.
"""

from __future__ import annotations

import re
from itertools import combinations_with_replacement
from math import comb
from typing import Iterable

from .errors import InvalidArgument, InvalidEnvironment, ParseError
from .molgraph import HeavyGraph

# Admissible level-0 codes, grouped by element. The set is closed: every
# neutral H/C/N/O/F environment that the encoders accept appears here.
GCN0_TABLE: tuple[str, ...] = (
    "C40", "C30", "C31", "C20", "C21", "C22",
    "C10", "C11", "C12", "C13", "C04", "C02",
    "N40", "N30", "N31", "N20", "N21", "N22",
    "N10", "N11", "N12", "N13", "N03", "N01",
    "O20", "O10", "O11", "O02",
    "F10", "F01",
)

_GCN0_SET = frozenset(GCN0_TABLE)

# Each table code under its (element, heavy-neighbor count, hydrogen count).
_GCN0_BY_KEY = {(c[0], int(c[1]), int(c[2])): c for c in GCN0_TABLE}

GCN_ELEMENTS = ("C", "N", "O", "F")

_CODE_RE = re.compile(r"^[CNOF][0-9][0-9]$")
_GCN1_RE = re.compile(
    r"^[CNOF][0-9][0-9](\([CNOF][0-9][0-9](,[CNOF][0-9][0-9])*\))?$"
)


def heavy_digit(code: str) -> int:
    """Heavy-neighbor count of a level-0 code."""
    return int(code[1])


def _check_elements(elements: Iterable[str]) -> tuple[str, ...]:
    subset = tuple(el for el in GCN_ELEMENTS if el in set(elements))
    extras = set(elements) - set(GCN_ELEMENTS)
    if extras:
        raise InvalidArgument(f"unsupported elements: {sorted(extras)}")
    if not subset:
        raise InvalidArgument("element set must not be empty")
    return subset


def enumerate_gcn0(elements: Iterable[str] = GCN_ELEMENTS) -> list[str]:
    """All admissible level-0 codes over an element subset, table order."""
    subset = _check_elements(elements)
    return [code for code in GCN0_TABLE if code[0] in subset]


def level0_codes(g: HeavyGraph) -> list[str]:
    """Level-0 code of every atom; InvalidEnvironment names the first atom
    whose code is not in the table.

    Each code is looked up in the table by its (element, heavy-neighbor
    count, hydrogen count) key, so no string is built.
    """
    keys = zip(g.elements, map(len, g.neighbors), g.h_count)
    codes = list(map(_GCN0_BY_KEY.get, keys))
    if None in codes:
        i = codes.index(None)
        code = f"{g.elements[i]}{len(g.neighbors[i])}{g.h_count[i]}"
        raise InvalidEnvironment(
            f"atom {i + 1} has environment {code!r}, not an admissible code"
        )
    return codes  # type: ignore[return-value]


def format_gcn1(center: str, neighbor_codes: Iterable[str]) -> str:
    """Compose a level-1 code from a center and its neighbor level-0 codes."""
    nbrs = sorted(neighbor_codes, reverse=True)
    if not nbrs:
        return center
    return center + "(" + ",".join(nbrs) + ")"


def format_gcn2(center: str, neighbor_gcn1: Iterable[str]) -> str:
    """Compose a level-2 code from a center and its neighbor level-1 codes."""
    nbrs = sorted(neighbor_gcn1, reverse=True)
    if not nbrs:
        return center
    return center + "[" + ",".join(nbrs) + "]"


def atom_codes(g: HeavyGraph) -> tuple[list[str], list[str], list[str]]:
    """All three code levels for every atom.

    Level 0 comes from level0_codes (table lookups). Levels 1 and 2 are
    spelled out as format_gcn1 and format_gcn2 spell them, each from the
    level below, in one comprehension per level.
    """
    gcn0 = level0_codes(g)
    nbrs = g.neighbors
    gcn1 = [
        f"{c}({','.join(sorted([gcn0[j] for j, _ in nb], reverse=True))})"
        if nb else c
        for c, nb in zip(gcn0, nbrs)
    ]
    gcn2 = [
        f"{c}[{','.join(sorted([gcn1[j] for j, _ in nb], reverse=True))}]"
        if nb else c
        for c, nb in zip(gcn0, nbrs)
    ]
    return gcn0, gcn1, gcn2


def parse_gcn_code(code: str) -> tuple[str, tuple[str, ...]]:
    """Split a level-0/1/2 code into (center, neighbor strings).

    Level-2 neighbor strings are full level-1 codes; commas inside their
    parentheses do not split. Composing the matching formatter over the
    result reproduces the input for every enumerated code.
    """
    center = code[:3]
    if not _CODE_RE.match(center):
        raise ParseError(f"malformed code {code!r}")
    rest = code[3:]
    if not rest:
        return center, ()
    if rest.startswith("(") and rest.endswith(")"):
        inner = rest[1:-1]
        parts = inner.split(",") if inner else []
        for part in parts:
            if not _CODE_RE.match(part):
                raise ParseError(f"malformed neighbor {part!r} in {code!r}")
        return center, tuple(parts)
    if rest.startswith("[") and rest.endswith("]"):
        inner = rest[1:-1]
        level1_parts: list[str] = []
        depth = 0
        start = 0
        for k, ch in enumerate(inner):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                level1_parts.append(inner[start:k])
                start = k + 1
        level1_parts.append(inner[start:])
        for part in level1_parts:
            if not _GCN1_RE.match(part):
                raise ParseError(f"malformed neighbor {part!r} in {code!r}")
        return center, tuple(level1_parts)
    raise ParseError(f"malformed code {code!r}")


def enumerate_gcn1(elements: Iterable[str] = GCN_ELEMENTS) -> list[str]:
    """Every admissible level-1 code over an element subset.

    For each connectable center (heavy digit >= 1) all multisets of
    connectable codes of the matching size are spelled out; centers with no
    heavy neighbor contribute their bare level-0 code at the end. The list
    is duplicate-free and deterministically ordered.
    """
    table = enumerate_gcn0(elements)
    connectable = [c for c in table if heavy_digit(c) >= 1]
    out: list[str] = []
    for center in connectable:
        n = heavy_digit(center)
        for combo in combinations_with_replacement(connectable, n):
            out.append(format_gcn1(center, combo))
    out.extend(c for c in table if heavy_digit(c) == 0)
    return out


def _universe(
    parsed: list[tuple[str, tuple[str, ...]]],
    elements: Iterable[str] | None,
) -> tuple[str, ...]:
    """Element universe for level-2 counting.

    Explicit elements win; otherwise the universe is read off the codes in
    the input list, and an empty list leaves the universe unrestricted.
    """
    if elements is not None:
        return _check_elements(elements)
    found: set[str] = set()
    for center, nbrs in parsed:
        found.add(center[0])
        for nb in nbrs:
            found.add(nb[0])
    if not found:
        return GCN_ELEMENTS
    return tuple(el for el in GCN_ELEMENTS if el in found)


def _parse_gcn1_list(gcn1_list: Iterable[str]) -> list[tuple[str, tuple[str, ...]]]:
    parsed = []
    for code in gcn1_list:
        center, nbrs = parse_gcn_code(code)
        if any("(" in nb for nb in nbrs):
            raise ParseError(f"{code!r} is not a level-1 code")
        if center not in _GCN0_SET:
            raise ParseError(f"{center!r} in {code!r} is not an admissible code")
        for nb in nbrs:
            if nb not in _GCN0_SET:
                raise ParseError(f"{nb!r} in {code!r} is not an admissible code")
        parsed.append((center, nbrs))
    return parsed


def _filtered_sizes(
    parsed: list[tuple[str, tuple[str, ...]]]
) -> dict[str, int]:
    """For each level-0 code, how many list entries name it as a neighbor."""
    sizes: dict[str, int] = {}
    for _center, nbrs in parsed:
        for code in set(nbrs):
            sizes[code] = sizes.get(code, 0) + 1
    return sizes


def multichoose(n: int, k: int) -> int:
    """Number of k-multisets from n distinct items, exact."""
    return comb(n + k - 1, k)


def count_gcn2(
    gcn1_list: Iterable[str], elements: Iterable[str] | None = None
) -> int:
    """Exact count of level-2 codes composable from a level-1 list.

    For every connectable center the admissible neighbor pool is the set of
    list entries whose own neighbor list contains the center's level-0
    code; the center contributes one code per multiset of pool entries of
    its heavy-neighbor size. Centers with no heavy neighbor add their bare
    codes, one per zero-heavy table entry over the element universe.
    """
    parsed = _parse_gcn1_list(gcn1_list)
    universe = _universe(parsed, elements)
    sizes = _filtered_sizes(parsed)
    total = 0
    for center in GCN0_TABLE:
        n = heavy_digit(center)
        if n >= 1:
            total += multichoose(sizes.get(center, 0), n)
    total += sum(
        1 for c in GCN0_TABLE if heavy_digit(c) == 0 and c[0] in universe
    )
    return total


def gcn2_level(g: HeavyGraph) -> int:
    """Molecule-level radius-2 crowding measure.

    For each atom, count the distinct heavy atoms within graph distance 2
    (the atom itself included); the level is the maximum count minus one.
    Single-heavy-atom molecules sit at level 0; the theoretical maximum
    over admissible valences is 16.
    """
    # Each atom's ball as a bitmask: its own bit, its neighbors' and theirs.
    reach = [0] * g.na
    for i, j, _ in g.bonds:
        reach[i] |= 1 << j
        reach[j] |= 1 << i
    best = 1
    for v, nbrs in enumerate(g.neighbors):
        ball = reach[v] | 1 << v
        for w, _ in nbrs:
            ball |= reach[w]
        size = ball.bit_count()
        if size > best:
            best = size
    return best - 1 if g.na else 0
