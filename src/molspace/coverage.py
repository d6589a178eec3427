"""Dataset-level structural coverage analytics.

A dataset table holds parsed heavy-atom records plus their numeric
properties. On top of it this module computes type inventories for both
representation axes (local-valence codes and bridge-free topologies),
overlap regions between tables, smoothed Kullback-Leibler divergence
matrices, property histograms, threshold-based expansion subsets and
unseen-structure complements.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from . import gcn, nbg
from .errors import (
    DuplicateRecord,
    EmptyDistribution,
    InvalidArgument,
    MolspaceError,
    ParseError,
    TooLarge,
)
from .molgraph import HeavyGraph, MolGraph, heavy_graph, parse_record_line, validate

# Feature axes with a per-record type multiset.
TYPE_FEATURES = ("gcn0", "gcn1", "gcn2", "nbg0", "scaffold", "nbg_plus")

# Feature axes accepted by structure_complement.
COMPLEMENT_FEATURES = ("gcn1", "nbg_plus", "scaffold")


@dataclass
class DatasetRecord:
    id: str
    graph: HeavyGraph
    properties: dict[str, float]
    mol: str
    line_no: int = 0  # input line, from 1; 0 when not read by ingest


@dataclass
class DatasetTable:
    name: str
    records: list[DatasetRecord]

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class RejectEntry:
    line_no: int
    record_id: str | None
    reason: str


# (record id or None, accepted, rendered record or reject reason)
Verdict = tuple[str | None, bool, Any]


def accept_record(line: str) -> DatasetRecord:
    """Accept one record line or raise the error that rejects it.

    This is the one accept rule of every record command. The line must
    parse (one structured-text object, elements C/N/O/F, bond orders 1 to
    3, one fragment, finite numeric ``props``) and the molecule must pass
    accept_molecule. Errors carry the record id once it is parsed.
    """
    return accept_molecule(parse_record_line(line))


def accept_molecule(mol: MolGraph) -> DatasetRecord:
    """The graph half of accept_record, also used for molfiles.

    Rejects a molecule whose hydrogens cannot be suppressed, that fails
    validate, that has an atom environment outside the level-0 code
    table, or that has more heavy atoms than the exact canonical forms
    allow (nbg.MAX_SIGNATURE_VERTICES, TooLarge). So every accepted record
    is encodable by every downstream operation. The level-0 check is
    gcn.level0_codes, table lookups that build no string; the codes are
    not kept, since a table holds many records and few commands read them.
    """
    try:
        g = heavy_graph(mol)
        diags = validate(g)
        if diags:
            raise ParseError("; ".join(diags))
        gcn.level0_codes(g)
        if g.na > nbg.MAX_SIGNATURE_VERTICES:
            raise TooLarge(
                f"record has {g.na} heavy atoms, above the cap of "
                f"{nbg.MAX_SIGNATURE_VERTICES}"
            )
    except MolspaceError as exc:
        exc.record_id = mol.id
        raise
    return DatasetRecord(
        id=mol.id, graph=g, properties=dict(mol.props), mol=mol.mol
    )


def reject_reason(exc: MolspaceError) -> str:
    """Reject-line text for an error: its class name and message."""
    return f"{type(exc).__name__}: {exc}"


def judge(
    accept: Callable[[str], DatasetRecord],
    text: str,
    render: Callable[[DatasetRecord], Any],
) -> Verdict:
    """Accept one record and render it, or give the reason it is rejected.

    Safe to run in worker processes: the duplicate-id check is left to
    admit, which sees the verdicts of a whole input in order.
    """
    try:
        record = accept(text)
    except MolspaceError as exc:
        return exc.record_id, False, reject_reason(exc)
    return record.id, True, render(record)


def admit(
    numbered: list[tuple[int, str]], verdicts: Iterable[Verdict]
) -> tuple[list[Any], list[RejectEntry]]:
    """Split one input's verdicts into accepted values and reject entries.

    A record that reuses the id of a record accepted earlier in the same
    input is rejected with DuplicateRecord.
    """
    seen: set[str | None] = set()
    kept: list[Any] = []
    rejects: list[RejectEntry] = []
    for (line_no, _), (rec_id, ok, value) in zip(numbered, verdicts):
        if ok and rec_id in seen:
            ok = False
            value = reject_reason(DuplicateRecord(f"id {rec_id!r} already present"))
        if ok:
            seen.add(rec_id)
            kept.append(value)
        else:
            rejects.append(RejectEntry(line_no, rec_id, value))
    return kept, rejects


def record_lines(lines: Iterable[str]) -> list[tuple[int, str]]:
    """Number the record lines (from 1), skipping blanks and '#' comments."""
    numbered: list[tuple[int, str]] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            numbered.append((line_no, line))
    return numbered


def ingest(lines: Iterable[str], name: str) -> tuple[DatasetTable, list[RejectEntry]]:
    """Build a table from record lines, collecting per-record failures.

    Blank lines and '#' comments are skipped. A record is rejected (never
    fatal) when accept_record rejects it or when it reuses the id of a
    record already in the table. Accepted records are encodable by every
    downstream operation.
    """
    numbered = record_lines(lines)
    verdicts = [judge(accept_record, line, lambda r: r) for _, line in numbered]
    for (line_no, _), (_, ok, record) in zip(numbered, verdicts):
        if ok:
            record.line_no = line_no
    records, rejects = admit(numbered, verdicts)
    return DatasetTable(name=name, records=records), rejects


def record_type_counts(
    record: DatasetRecord, feature: str, mode: str = nbg.DEFAULT_MODE
) -> Counter:
    """Multiset of feature types contributed by one record."""
    if feature not in TYPE_FEATURES:
        raise InvalidArgument(f"unknown feature {feature!r}")
    g = record.graph
    counts: Counter = Counter()
    if feature in ("gcn0", "gcn1", "gcn2"):
        level = ("gcn0", "gcn1", "gcn2").index(feature)
        counts.update(gcn.atom_codes(g)[level])
    elif feature == "nbg0":
        cores = nbg.nbg0_extract(g, nbg.cut_decomposition(g).bridges)
        counts.update(nbg.topology_of(*core, mode) for core in cores)
    elif feature == "scaffold":
        sc = nbg.scaffold(g)
        if sc is not None:
            counts[nbg.topology_of(*sc, mode)] += 1
    else:  # nbg_plus: the whole molecule as one topology unit
        whole = nbg.topology_of(g.elements, list(g.bonds), nbg.MODE_ELEMENT_ORDER)
        counts[whole] += 1
    return counts


def _table_type_counts(
    t: DatasetTable, feature: str, mode: str = nbg.DEFAULT_MODE
) -> Counter:
    total: Counter = Counter()
    for record in t.records:
        total.update(record_type_counts(record, feature, mode))
    return total


def type_set(
    t: DatasetTable, feature: str, mode: str = nbg.DEFAULT_MODE
) -> set[str]:
    """Unique feature types observed anywhere in a table."""
    return set(_table_type_counts(t, feature, mode))


def coverage_report(t: DatasetTable) -> dict[str, Any]:
    """Inventory counts across both representation axes, in output order.

    Topology core counts are reported for all three label modes side by
    side, in sorted mode order; the scaffold axis uses the default mode
    (carbon skeleton with bond orders retained). Cut-set levels and heavy
    atom counts are keyed by their decimal strings, in numeric order. Each
    record's features are computed once, in one pass, and only the type
    sets are kept. A scaffold that is the molecule's only core, the same
    subgraph, takes that core's default-mode signature.
    """
    na_hist: Counter = Counter()
    plus_levels: Counter = Counter()
    codes: tuple[set[str], set[str], set[str]] = (set(), set(), set())
    cores: dict[str, set[str]] = {mode: set() for mode in nbg.MODES}
    scaffolds: set[str] = set()
    for record in t.records:
        g = record.graph
        for seen, level_codes in zip(codes, gcn.atom_codes(g)):
            seen.update(level_codes)
        cd = nbg.cut_decomposition(g)
        na_hist[g.na] += 1
        plus_levels[cd.level] += 1
        extracted = nbg.nbg0_extract(g, cd.bridges)
        sigs = {
            mode: [nbg.topology_of(*core, mode) for core in extracted]
            for mode in nbg.MODES
        }
        for mode, mode_sigs in sigs.items():
            cores[mode].update(mode_sigs)
        sc = nbg.scaffold(g)
        if sc is not None:
            scaffolds.add(
                sigs[nbg.DEFAULT_MODE][0] if sc == extracted[0]
                else nbg.topology_of(*sc)
            )
    return {
        "name": t.name,
        "molecule_count": len({r.mol for r in t.records}),
        "conformation_count": len(t.records),
        "gcn0_types": len(codes[0]),
        "gcn1_types": len(codes[1]),
        "gcn2_types": len(codes[2]),
        "nbg0_types": {mode: len(cores[mode]) for mode in sorted(nbg.MODES)},
        "scaffold_types": len(scaffolds),
        "nbg_plus_levels": {str(k): plus_levels[k] for k in sorted(plus_levels)},
        "na_histogram": {str(k): na_hist[k] for k in sorted(na_hist)},
    }


def overlap_report(
    tables: list[DatasetTable], feature: str, mode: str = nbg.DEFAULT_MODE
) -> dict[str, int]:
    """Cardinality of every occupancy region of the type sets.

    For k tables the result has one entry per non-empty subset of tables,
    keyed by the '&'-joined table names in input order: the number of
    types present in exactly that subset. Region counts sum to the size of
    the union.
    """
    if not 2 <= len(tables) <= 3:
        raise InvalidArgument("overlap_report takes two or three tables")
    names = [t.name for t in tables]
    if len(set(names)) != len(names):
        raise InvalidArgument("table names must be distinct")
    sets = [type_set(t, feature, mode) for t in tables]
    universe: set[str] = set()
    for s in sets:
        universe |= s
    regions: dict[str, int] = {}
    k = len(tables)
    for mask in range(1, 2**k):
        key = "&".join(names[i] for i in range(k) if mask & (1 << i))
        regions[key] = 0
    for item in universe:
        mask = 0
        for i, s in enumerate(sets):
            if item in s:
                mask |= 1 << i
        key = "&".join(names[i] for i in range(k) if mask & (1 << i))
        regions[key] += 1
    return regions


def kl_matrix(
    tables: list[DatasetTable],
    feature: str,
    epsilon: float = 1e-9,
    mode: str = nbg.DEFAULT_MODE,
) -> list[list[float]]:
    """Smoothed Kullback-Leibler divergence between type distributions.

    Each table's type occurrence counts are smoothed additively by epsilon
    over the union support and renormalized. Rows and columns follow the
    order of the tables; entry [row q][col p] is D_KL(P || Q) in nats, so
    rows index the reference distribution Q. A table with no type
    occurrences raises EmptyDistribution.
    """
    if not 0 < epsilon < math.inf:
        raise InvalidArgument(
            f"epsilon must be positive and finite, got {epsilon}"
        )
    if len(tables) < 2:
        raise InvalidArgument("kl_matrix takes at least two tables")
    counts = []
    for t in tables:
        c = _table_type_counts(t, feature, mode)
        if sum(c.values()) == 0:
            raise EmptyDistribution(
                f"table {t.name!r} has no {feature} occurrences"
            )
        counts.append(c)
    support = sorted(set().union(*counts))
    s = len(support)
    dists: list[list[float]] = []
    for c in counts:
        total = sum(c.values()) + epsilon * s
        dists.append([(c.get(x, 0) + epsilon) / total for x in support])

    return [
        [sum(pi * math.log(pi / qi) for pi, qi in zip(p, q) if pi > 0) for p in dists]
        for q in dists
    ]


@dataclass(frozen=True)
class Histogram:
    """Fixed-edge histogram; entries are (low, high, count) with low
    inclusive and high exclusive except for the final width-mode bin."""

    kind: str
    entries: tuple[tuple[float, float, int], ...]
    used: int
    skipped: int


def _property_values(t: DatasetTable, prop: str) -> tuple[list[float], int]:
    values: list[float] = []
    skipped = 0
    for record in t.records:
        if prop.lower() == "na":
            values.append(float(record.graph.na))
        elif prop in record.properties:
            values.append(record.properties[prop])
        else:
            skipped += 1
    return values, skipped


def histogram(t: DatasetTable, prop: str, bins: int | str = "unit") -> Histogram:
    """Histogram of Na or any numeric record property.

    bins is either the token "unit" (one bin per integer floor) or a
    positive bin count for equal-width bins spanning the observed range.
    Records lacking the property are skipped and counted as such; bin
    counts always sum to the number of records used.
    """
    values, skipped = _property_values(t, prop)
    if bins == "unit":
        c: Counter = Counter(math.floor(v) for v in values)
        entries = tuple(
            (float(k), float(k + 1), c[k]) for k in sorted(c)
        )
        return Histogram(
            kind="unit", entries=entries, used=len(values), skipped=skipped
        )
    if not isinstance(bins, int) or bins < 1:
        raise InvalidArgument("bins must be 'unit' or a positive integer")
    if not values:
        return Histogram(kind="width", entries=(), used=0, skipped=skipped)
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
    width = (hi - lo) / bins
    counts = [0] * bins
    for v in values:
        idx = min(int((v - lo) / width), bins - 1)
        counts[idx] += 1
    entries = tuple(
        (lo + i * width, lo + (i + 1) * width, counts[i]) for i in range(bins)
    )
    return Histogram(
        kind="width", entries=entries, used=len(values), skipped=skipped
    )


def expansion_subsets(
    t: DatasetTable, gcn2_max: int, nbg_max: int
) -> set[str]:
    """Ids of records within both level thresholds.

    A record qualifies when its radius-2 crowding level is at most
    gcn2_max and its cut-set level is at most nbg_max; the subsets are
    monotone in both thresholds.
    """
    if gcn2_max < 0 or nbg_max < 0:
        raise InvalidArgument("level thresholds must be non-negative")
    out: set[str] = set()
    for record in t.records:
        g = record.graph
        nlevel = nbg.cut_decomposition(g).level
        if gcn.gcn2_level(g) <= gcn2_max and nlevel <= nbg_max:
            out.add(record.id)
    return out


def structure_complement(
    train: DatasetTable,
    eval_table: DatasetTable,
    feature: str,
    na_cap: int | None = None,
) -> set[str]:
    """Ids of eval records carrying a feature type never seen in training.

    feature is one of gcn1, nbg_plus (whole-molecule topology with
    elements and bond orders) or scaffold. The optional na_cap drops eval
    records with more heavy atoms than the cap before the comparison; a
    negative cap would drop every record, so it raises InvalidArgument.
    """
    if feature not in COMPLEMENT_FEATURES:
        raise InvalidArgument(
            f"feature must be one of {COMPLEMENT_FEATURES}, got {feature!r}"
        )
    if na_cap is not None and na_cap < 0:
        raise InvalidArgument(f"na_cap must be non-negative, got {na_cap}")
    known = type_set(train, feature)
    out: set[str] = set()
    for record in eval_table.records:
        if na_cap is not None and record.graph.na > na_cap:
            continue
        types = record_type_counts(record, feature)
        if any(x not in known for x in types):
            out.add(record.id)
    return out
