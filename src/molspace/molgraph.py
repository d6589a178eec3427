"""Molecular graphs over H/C/N/O/F with implicit- or explicit-hydrogen input.

Two wire formats are supported:

* V2000 connection tables (single molecule, fixed columns, hydrogens
  usually present as atoms).
* One-object-per-line structured text records with fields ``id``,
  ``elements`` (heavy atoms only), ``bonds`` (1-indexed ``[i, j, order]``
  triples), ``h`` (per-atom hydrogen counts, or ``"auto"`` to infer
  counts from default valences) and the optional ``props`` (finite
  numeric properties) and ``mol`` (parent molecule name).

Both parse to a HeavyGraph, with bonds 0-indexed and ``i < j``. Graphs are
immutable after construction; parsers enforce the structural invariants
and reject multi-fragment input.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from typing import Any, Iterable, Mapping

from .errors import (
    InvalidHydrogenCount,
    InvalidHydrogenTopology,
    MolspaceError,
    ParseError,
    UnsupportedBondOrder,
    UnsupportedElement,
)

ELEMENTS = ("H", "C", "N", "O", "F")
HEAVY_ELEMENTS = ("C", "N", "O", "F")

# Neutral-molecule default valences used for implicit-hydrogen inference.
DEFAULT_VALENCE = {"C": 4, "N": 3, "O": 2, "F": 1}

BOND_ORDERS = (1, 2, 3)

# Per-atom tuples of (neighbor index, bond order) pairs.
Adjacency = tuple[tuple[tuple[int, int], ...], ...]


class HydrogenClampWarning(UserWarning):
    """Inferred hydrogen count was negative and has been clamped to zero."""


class HeavyGraph:
    """A molecule with its record fields.

    Each atom carries a hydrogen count. A record's graph holds heavy atoms
    only; a molfile's graph holds its hydrogens as atoms (with count 0)
    until heavy_graph suppresses them. ``id`` names the record, ``props``
    maps its property names to values in input order and ``mol`` names
    the parent molecule (the id when the record gives none).
    ``neighbors`` is built from ``bonds`` unless given. Never changed after
    construction, so safe to share between threads.
    """

    __slots__ = ("elements", "bonds", "h_count", "neighbors", "id", "props", "mol")

    def __init__(self, elements: tuple[str, ...],
                 bonds: tuple[tuple[int, int, int], ...], h_count: tuple[int, ...],
                 neighbors: Adjacency | None = None, id: str = "",
                 props: dict[str, float] | None = None, mol: str = "") -> None:
        self.elements = elements
        self.bonds = bonds
        self.h_count = h_count
        self.neighbors = neighbors or _adjacency(len(elements), bonds)
        self.id = id
        self.props = {} if props is None else props
        self.mol = mol

    @property
    def na(self) -> int:
        """Number of heavy atoms."""
        return len(self.elements)

    def composition(self) -> dict[str, int]:
        """Element counts including hydrogens."""
        counts: dict[str, int] = {}
        for el in self.elements:
            counts[el] = counts.get(el, 0) + 1
        nh = sum(self.h_count)
        if nh:
            counts["H"] = counts.get("H", 0) + nh
        return counts


def _normalize_bonds(
    bonds: Iterable[tuple[int, int, int]], natoms: int
) -> tuple[tuple[int, int, int], ...]:
    """Reindex to i < j, check ranges and duplicates, sort for determinism."""
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int, int]] = []
    for i, j, order in bonds:
        if not (0 <= i < natoms and 0 <= j < natoms):
            raise ParseError(f"bond ({i + 1},{j + 1}) references a missing atom")
        if i == j:
            raise ParseError(f"bond ({i + 1},{j + 1}) is a self-loop")
        if i > j:
            i, j = j, i
        if (i, j) in seen:
            raise ParseError(f"duplicate bond ({i + 1},{j + 1})")
        seen.add((i, j))
        if order not in BOND_ORDERS:
            if order == 4:
                raise UnsupportedBondOrder(
                    "aromatic bond order 4 is not supported; supply a Kekule structure"
                )
            raise UnsupportedBondOrder(f"unsupported bond order {order}")
        out.append((i, j, order))
    return tuple(sorted(out))


def _adjacency(natoms: int, bonds: Iterable[tuple[int, int, int]]) -> Adjacency:
    """The (neighbor index, bond order) pairs of each atom."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(natoms)]
    for i, j, order in bonds:
        adj[i].append((j, order))
        adj[j].append((i, order))
    return tuple(map(tuple, adj))


def _connected(adj: Adjacency) -> bool:
    """Whether the atoms, at least one, form a single fragment."""
    seen = {0}
    stack = [0]
    while stack:
        for w, _ in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def parse_molfile(text: str) -> HeavyGraph:
    """Parse a single V2000 connection table, hydrogen atoms included.

    The title line names the molecule ("molfile" when it is blank), and
    errors carry that name as ``record_id``. Element symbols are read from
    their fixed columns; coordinates, charge and stereo fields are ignored.
    Raises UnsupportedElement for atoms outside H/C/N/O/F,
    UnsupportedBondOrder for bond codes other than 1 to 3 (the aromatic
    code 4 included), and ParseError for structural problems (truncation,
    bad counts, duplicate bonds, multiple fragments).
    """
    lines = text.splitlines()
    name = _one_line_id((lines[0].strip() if lines else "") or "molfile")
    try:
        return _parse_molfile_blocks(name, lines)
    except MolspaceError as exc:
        exc.record_id = name
        raise


def _parse_molfile_blocks(name: str, lines: list[str]) -> HeavyGraph:
    if len(lines) < 4:
        raise ParseError("molfile has fewer than 4 lines")
    counts = lines[3]
    try:
        natoms = int(counts[0:3])
        nbonds = int(counts[3:6])
    except (ValueError, IndexError) as exc:
        raise ParseError(f"malformed counts line: {counts!r}") from exc
    if natoms <= 0:
        raise ParseError("molfile declares no atoms")
    if len(lines) < 4 + natoms + nbonds:
        raise ParseError("molfile truncated before end of atom/bond blocks")

    elements: list[str] = []
    for k in range(natoms):
        line = lines[4 + k]
        symbol = line[31:34].strip()
        if not symbol:
            raise ParseError(f"atom line {k + 1} too short for an element symbol")
        if symbol not in ELEMENTS:
            raise UnsupportedElement(f"unsupported element {symbol!r} at atom {k + 1}")
        elements.append(symbol)

    raw_bonds: list[tuple[int, int, int]] = []
    for k in range(nbonds):
        line = lines[4 + natoms + k]
        try:
            i = int(line[0:3])
            j = int(line[3:6])
            order = int(line[6:9])
        except (ValueError, IndexError) as exc:
            raise ParseError(f"malformed bond line {k + 1}: {line!r}") from exc
        raw_bonds.append((i - 1, j - 1, order))

    bonds = _normalize_bonds(raw_bonds, natoms)
    adj = _adjacency(natoms, bonds)
    if not _connected(adj):
        raise ParseError("molfile describes more than one fragment")
    return HeavyGraph(tuple(elements), bonds, (0,) * natoms, adj, name, {}, name)


def parse_record_obj(obj: Mapping[str, Any]) -> HeavyGraph:
    """Build a HeavyGraph from an already-decoded record object.

    Errors raised after the id is read carry it as ``record_id``.
    """
    if "id" not in obj:
        raise ParseError("record missing field 'id'")
    rec_id = _one_line_id(str(obj["id"]))
    try:
        return _parse_record_fields(rec_id, obj)
    except MolspaceError as exc:
        exc.record_id = rec_id
        raise


def _parse_record_fields(rec_id: str, obj: Mapping[str, Any]) -> HeavyGraph:
    _utf8_text("id", rec_id)
    for key in ("elements", "bonds", "h"):
        if key not in obj:
            raise ParseError(f"record missing field {key!r}")
    elements_raw = obj["elements"]
    if not isinstance(elements_raw, list) or not elements_raw:
        raise ParseError("field 'elements' must be a non-empty list")
    for k, el in enumerate(elements_raw):
        if el not in HEAVY_ELEMENTS:
            if el == "H":
                raise ParseError(
                    f"atom {k + 1} is hydrogen; records carry heavy atoms only"
                )
            raise UnsupportedElement(f"unsupported element {el!r} at atom {k + 1}")
    elements = tuple(elements_raw)
    natoms = len(elements)

    bonds_raw = obj["bonds"]
    if not isinstance(bonds_raw, list):
        raise ParseError("field 'bonds' must be a list")
    raw_bonds: list[tuple[int, int, int]] = []
    for entry in bonds_raw:
        # JSON gives a list for an array, and an int (or a bool, which the
        # type() test keeps out) for an integer literal.
        if isinstance(entry, list) and len(entry) == 3:
            i, j, order = entry
            if type(i) is int and type(j) is int and type(order) is int:
                raw_bonds.append((i - 1, j - 1, order))
                continue
        raise ParseError(f"malformed bond entry {entry!r}")
    bonds = _normalize_bonds(raw_bonds, natoms)
    adj = _adjacency(natoms, bonds)
    if not _connected(adj):
        raise ParseError("record describes more than one fragment")

    h_field = obj["h"]
    if h_field == "auto":
        sums = _order_sums(natoms, bonds)
        h_counts = [DEFAULT_VALENCE[el] - s for el, s in zip(elements, sums)]
        for k, h in enumerate(h_counts):
            if h < 0:
                warnings.warn(
                    f"record {rec_id!r}: atom {k + 1} ({elements[k]}) has bond "
                    f"order sum {sums[k]} above the default valence; hydrogen "
                    "count clamped to 0",
                    HydrogenClampWarning,
                    stacklevel=3,
                )
                h_counts[k] = 0
    elif isinstance(h_field, list):
        if len(h_field) != natoms:
            raise ParseError(
                f"field 'h' has {len(h_field)} entries for {natoms} atoms"
            )
        for k, h in enumerate(h_field):
            if type(h) is not int:
                raise ParseError(f"hydrogen count for atom {k + 1} is not an integer")
            if h < 0:
                raise InvalidHydrogenCount(
                    f"negative hydrogen count {h} at atom {k + 1}"
                )
            if h.bit_length() > 63:  # far past every cap; keeps the load printable
                raise ParseError(f"hydrogen count for atom {k + 1} is out of range")
        h_counts = h_field
    else:
        raise ParseError("field 'h' must be a count list or the token \"auto\"")

    props_raw = obj.get("props", {})
    if not isinstance(props_raw, dict):
        raise ParseError("field 'props' must be an object")
    props: dict[str, float] = {}
    for key, value in props_raw.items():
        number = json_number(value)
        if number is None:
            raise ParseError(f"property {key!r} is not numeric")
        if not math.isfinite(number):
            raise ParseError(f"property {key!r} is not a finite number")
        props[str(key)] = number

    mol = _utf8_text("mol", str(obj["mol"])) if "mol" in obj else rec_id
    return HeavyGraph(elements, bonds, tuple(h_counts), adj, rec_id, props, mol)


def parse_record_line(line: str) -> HeavyGraph:
    """Parse one structured-text record line into a graph of heavy atoms.

    Text that load_json refuses is a ParseError: malformed, too deeply
    nested or holding an over-long integer. So are the field faults that
    parse_record_obj finds.
    """
    try:
        obj = load_json(line)
    except ValueError as exc:
        raise ParseError(f"record line is not valid structured text: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("record line must hold a single object")
    return parse_record_obj(obj)


def load_json(text: str) -> Any:
    """json.loads, where every text the reader cannot take raises
    ValueError: malformed text (JSONDecodeError), but also nesting too
    deep for the reader and integers past the interpreter's digit limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise ValueError("nesting is too deep to read") from None
    except ValueError:  # int() refuses a literal past the digit limit
        digits = sys.get_int_max_str_digits()
        raise ValueError(f"an integer has more than {digits} digits") from None


def json_number(value: Any) -> float | None:
    """A number read by load_json as a float, or None for any other value.
    An int or a float is a number, a bool or a string is not; an integer
    past the float range, where float() overflows, is inf, so not finite."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    return float(value) if abs(value) <= sys.float_info.max else math.inf


def record_lines(lines: Iterable[str]) -> list[tuple[int, str]]:
    """Number the record lines (from 1), skipping blanks and '#' comments."""
    numbered: list[tuple[int, str]] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            numbered.append((line_no, line))
    return numbered


# A tab, and every character str.splitlines breaks at.
LINE_BREAKS = frozenset("\t\n\v\f\r\x1c\x1d\x1e\x85\u2028\u2029")


def _one_line_id(rec_id: str) -> str:
    """The id, unless it holds a tab or a line break, which would split or
    widen the id's output line. The error carries no record_id, so the
    reject line stays one line."""
    if not LINE_BREAKS.isdisjoint(rec_id):
        raise ParseError("field 'id' holds a tab or a line break")
    return rec_id


def _utf8_text(key: str, text: str) -> str:
    """The text, unless it holds a lone surrogate, which no output can
    encode (a JSON escape such as ``\\ud800`` decodes to one)."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ParseError(f"field {key!r} is not encodable as UTF-8") from None
    return text


def heavy_graph(g: HeavyGraph) -> HeavyGraph:
    """Suppress H atoms into their heavy atoms' hydrogen counts, keeping
    the record fields; g itself when it has none, as a record's graph.

    Every H must be bonded to exactly one heavy atom by a single bond;
    anything else (H-H bonds, isolated or multivalent H) raises
    InvalidHydrogenTopology.
    """
    if "H" not in g.elements:
        return g
    adj = g.neighbors
    index_map: dict[int, int] = {}
    elements: list[str] = []
    h_count: list[int] = []
    for k, el in enumerate(g.elements):
        if el != "H":
            index_map[k] = len(elements)
            elements.append(el)
            h_count.append(g.h_count[k])

    for k, el in enumerate(g.elements):
        if el != "H":
            continue
        if len(adj[k]) != 1:
            raise InvalidHydrogenTopology(
                f"hydrogen atom {k + 1} has {len(adj[k])} bonds (expected 1)"
            )
        partner, order = adj[k][0]
        if g.elements[partner] == "H":
            raise InvalidHydrogenTopology(
                f"hydrogen atoms {k + 1} and {partner + 1} are bonded to each other"
            )
        if order != 1:
            raise InvalidHydrogenTopology(
                f"hydrogen atom {k + 1} carries a bond of order {order}"
            )
        h_count[index_map[partner]] += 1

    bonds = [
        (index_map[i], index_map[j], order)
        for i, j, order in g.bonds
        if g.elements[i] != "H" and g.elements[j] != "H"
    ]
    return HeavyGraph(tuple(elements), tuple(sorted(bonds)), tuple(h_count),
                      None, g.id, g.props, g.mol)


# Per-element load caps used by validate(). Carbon, oxygen and fluorine are
# checked against the sum of bond orders plus hydrogens; nitrogen is checked
# by connectivity (neighbor count plus hydrogens) so that tetracoordinate
# motifs pass without formal-charge bookkeeping.
_ORDER_SUM_CAPS = {"C": 4, "O": 2, "F": 1}
_CONNECTIVITY_CAPS = {"N": 4}


def validate(hg: HeavyGraph) -> list[str]:
    """Return human-readable diagnostics; an empty list means valid.

    Checks per-atom valence loads against element caps. Being one
    fragment is the parsers' check: hydrogen suppression removes only
    hydrogens with exactly one bond, so it cannot split a parsed molecule.
    """
    diags: list[str] = []
    sums = _order_sums(hg.na, hg.bonds)
    for k, (el, h, nbrs) in enumerate(zip(hg.elements, hg.h_count, hg.neighbors)):
        if el in _ORDER_SUM_CAPS:
            load = sums[k] + h
            cap = _ORDER_SUM_CAPS[el]
            if load > cap:
                diags.append(
                    f"atom {k + 1} ({el}): bond order sum plus hydrogens is "
                    f"{load}, above the cap of {cap}"
                )
        else:
            load = len(nbrs) + h
            cap = _CONNECTIVITY_CAPS[el]
            if load > cap:
                diags.append(
                    f"atom {k + 1} ({el}): neighbor count plus hydrogens is "
                    f"{load}, above the cap of {cap}"
                )
    return diags


def _order_sums(natoms: int, bonds: Iterable[tuple[int, int, int]]) -> list[int]:
    """The sum of bond orders at each atom."""
    sums = [0] * natoms
    for i, j, order in bonds:
        sums[i] += order
        sums[j] += order
    return sums
