"""Dataset-level structural coverage analytics.

Every record command reads its records in one pass (ingest): each record
is accepted and given to the command's per-record function, or rejected
with a reason. The analyses below fold the kept values, as they arrive,
into type inventories for both representation axes (local-valence codes
and bridge-free topologies), overlap regions between datasets, smoothed
Kullback-Leibler divergence matrices, property histograms, threshold-based
expansion subsets and unseen-structure complements.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import warnings
from collections import Counter, deque
from functools import partial
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from . import gcn, nbg
from .errors import (
    DuplicateRecord,
    EmptyDistribution,
    InvalidArgument,
    MolspaceError,
    ParseError,
    TooLarge,
)
from .molgraph import (
    HeavyGraph, heavy_graph, parse_molfile, parse_record_line, record_lines, validate,
)

# Feature axes with a per-record type multiset.
TYPE_FEATURES = ("gcn0", "gcn1", "gcn2", "nbg0", "scaffold", "nbg_plus")

# Feature axes accepted by structure_complement.
COMPLEMENT_FEATURES = ("gcn1", "nbg_plus", "scaffold")


class RejectEntry(NamedTuple):
    line_no: int
    record_id: str | None
    reason: str


def accept_molecule(mol: HeavyGraph) -> HeavyGraph:
    """Accept one parsed molecule or raise the error that rejects it;
    returns heavy_graph(mol), which is mol itself for a record.

    This is the one accept rule of every record command, applied to what
    parse_record_line (one structured-text object, elements C/N/O/F, bond
    orders 1 to 3, one fragment, finite numeric ``props``) or
    parse_molfile gives. It rejects a molecule whose hydrogens cannot be
    suppressed, that fails validate, that has an atom environment outside
    the level-0 code table, or that has more heavy atoms than the exact
    canonical forms allow (nbg.MAX_SIGNATURE_VERTICES, TooLarge). So every
    accepted record is encodable by every downstream operation. The
    level-0 check is gcn.level0_codes, table lookups that build no string;
    the codes are not kept, since few commands read them.
    """
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
    return g


def reject_reason(exc: MolspaceError) -> str:
    """Reject-line text for an error: its class name and message."""
    return f"{type(exc).__name__}: {exc}"


def judge(
    compute: Callable[[HeavyGraph], Any], molfile: bool, texts: list[str]
) -> tuple[list[tuple], list[tuple[str, type, str, int]]]:
    """Accept each record (line or molfile) and compute its value, or give
    why it is rejected; and each warning raised, as showwarning's arguments.

    A MolspaceError rejects the record, except InvalidArgument, the
    caller's fault, which propagates. A record that parses is named by its
    graph's id; one that does not, by the id its parser gives the error.
    The duplicate-id check is left to ingest, so that workers can judge
    chunks of an input.
    """
    # (record id or None, accepted, reject reason or None, computed value)
    verdicts: list[tuple[str | None, bool, str | None, Any]] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for text in texts:
            parsed = record = None
            try:
                parsed = parse_molfile(text) if molfile else parse_record_line(text)
                record = accept_molecule(parsed)
                verdicts.append((record.id, True, None, compute(record)))
            except InvalidArgument:
                raise
            except MolspaceError as exc:
                rec_id = exc.record_id if parsed is None else parsed.id
                verdicts.append((rec_id, record is not None, reject_reason(exc), None))
    return verdicts, [(str(w.message), w.category, w.filename, w.lineno)
                      for w in caught]


# The record lines in one chunk of the record pass, measured under fork.
CHUNK_LINES = 500


def ingest(
    texts: list[str],
    compute: Callable[[HeavyGraph], Any],
    folds: Sequence[Callable[[Iterator[Any]], Any]],
    workers: int = 1,
    molfile: bool = False,
) -> tuple[list[Any], list[RejectEntry]]:
    """The one record pass: judge each input's record_lines (with molfile,
    its one molfile) in chunks of CHUNK_LINES, in order, across a pool of
    no more processes than ``workers``, cores or chunks, or without a pool
    for one; show each distinct warning once, in input order, with
    warnings.showwarning (no filter); and give folds[k] of input k's kept
    values, read once, as they arrive, and all reject entries, in input
    order. Nothing depends on the worker count.

    An accepted record claims its id, even when compute then rejects it; a
    later record of the same input with that id is a DuplicateRecord.
    compute must be picklable: a module-level function or its partial.
    """
    numbered = [
        [(1, text)] if molfile else record_lines(text.splitlines()) for text in texts
    ]
    size = CHUNK_LINES
    chunks = [[part[i:i + size] for i in range(0, len(part), size)] for part in numbered]
    workers = min(workers, os.cpu_count() or 1, sum(map(len, chunks)))
    lines = ([text for _, text in chunk] for part in chunks for chunk in part)
    rejects: list[RejectEntry] = []
    shown: set[tuple[str, type]] = set()

    def kept(part: list[list[tuple[int, str]]], judged: Iterator) -> Iterator[Any]:
        seen: set[str | None] = set()
        for chunk in part:
            verdicts, caught = next(judged)
            for w in caught:
                if w[:2] not in shown:
                    shown.add(w[:2])
                    warnings.showwarning(*w)
            for (line_no, _), (rec_id, accepted, reason, value) in zip(chunk, verdicts):
                if accepted:
                    if rec_id in seen:
                        reason = reject_reason(
                            DuplicateRecord(f"id {rec_id!r} already present"))
                    seen.add(rec_id)
                if reason is None:
                    yield value
                else:
                    rejects.append(RejectEntry(line_no, rec_id, reason))

    pool = None
    if workers > 1:
        import multiprocessing  # here, so that a launch without a pool never loads it

        # A worker that spawn or forkserver starts would read the digit limit
        # from the environment, not the run's.
        pool = multiprocessing.Pool(workers, initializer=sys.set_int_max_str_digits,
                                    initargs=(sys.get_int_max_str_digits(),))
    with pool or contextlib.nullcontext():
        task = partial(judge, compute, molfile)
        judged = map(task, lines) if pool is None else pool.imap(task, lines)
        results = []
        for part, fold in zip(chunks, folds, strict=True):
            values = kept(part, judged)
            results.append(fold(values))
            deque(values, maxlen=0)  # what fold left; the next input's chunks follow
    return results, rejects


def record_type_counts(
    g: HeavyGraph, feature: str, mode: str = nbg.DEFAULT_MODE
) -> Counter:
    """Multiset of feature types contributed by one record."""
    if feature not in TYPE_FEATURES:
        raise InvalidArgument(f"unknown feature {feature!r}")
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


def coverage_features(g: HeavyGraph) -> tuple:
    """The per-record value of coverage_report: (molecule, heavy atoms,
    cut-set level, level-0/1/2 codes, core signatures in each of
    nbg.MODES, scaffold signature or None)."""
    cd = nbg.cut_decomposition(g)
    cores = nbg.nbg0_extract(g, cd.bridges)
    sigs = tuple([nbg.topology_of(*core, mode) for core in cores] for mode in nbg.MODES)
    scaffold = nbg.scaffold_topology(g, sigs[nbg.MODES.index(nbg.DEFAULT_MODE)])
    return g.mol, g.na, cd.level, gcn.atom_codes(g), sigs, scaffold


def coverage_report(features: Iterable[tuple], name: str) -> dict[str, Any]:
    """Inventory counts across both representation axes, in output order,
    from the records' coverage_features, read once.

    Topology core counts are reported for all three label modes side by
    side, in sorted mode order; the scaffold axis uses the default mode
    (carbon skeleton with bond orders retained). Cut-set levels and heavy
    atom counts are keyed by their decimal strings, in numeric order.
    """
    molecules: set[str] = set()
    na_hist: Counter = Counter()
    plus_levels: Counter = Counter()
    codes: tuple[set[str], set[str], set[str]] = (set(), set(), set())
    cores: list[set[str]] = [set() for _ in nbg.MODES]
    scaffolds: set[str | None] = set()
    for mol, na, level, level_codes, sigs, scaffold in features:
        molecules.add(mol)
        na_hist[na] += 1
        plus_levels[level] += 1
        for seen, codes_at_level in zip(codes, level_codes):
            seen.update(codes_at_level)
        for seen, mode_sigs in zip(cores, sigs):
            seen.update(mode_sigs)
        scaffolds.add(scaffold)
    scaffolds.discard(None)
    return {
        "name": name,
        "molecule_count": len(molecules),
        "conformation_count": sum(na_hist.values()),
        "gcn0_types": len(codes[0]),
        "gcn1_types": len(codes[1]),
        "gcn2_types": len(codes[2]),
        "nbg0_types": dict(sorted(zip(nbg.MODES, map(len, cores)))),
        "scaffold_types": len(scaffolds),
        "nbg_plus_levels": {str(k): plus_levels[k] for k in sorted(plus_levels)},
        "na_histogram": {str(k): na_hist[k] for k in sorted(na_hist)},
    }


def type_total(counts: Iterable[Counter]) -> Counter:
    """The sum of the record_type_counts of a dataset's records."""
    total: Counter = Counter()
    for c in counts:
        total.update(c)
    return total


# A dataset for the comparisons below: its name and its type_total.
Table = tuple[str, Counter]


def overlap_report(tables: list[Table]) -> dict[str, int]:
    """Cardinality of every occupancy region of the type sets.

    For k tables the result has one entry per non-empty subset of tables,
    keyed by the '&'-joined table names in input order: the number of
    types present in exactly that subset. Region counts sum to the size of
    the union. A name holding '&' could make two regions one key, so it
    raises InvalidArgument.
    """
    if not 2 <= len(tables) <= 3:
        raise InvalidArgument("overlap_report takes two or three tables")
    names = [name for name, _ in tables]
    if len(set(names)) != len(names):
        raise InvalidArgument("table names must be distinct")
    for name in names:
        if "&" in name:
            raise InvalidArgument(f"table name {name!r} holds '&', the region separator")
    sets = [set(total) for _, total in tables]
    universe: set[str] = set().union(*sets)
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


def check_epsilon(name: str, epsilon: float) -> None:
    if not 0 < epsilon < math.inf:
        raise InvalidArgument(f"{name} must be positive and finite, got {epsilon}")


def kl_matrix(
    tables: list[Table], feature: str, epsilon: float = 1e-9
) -> list[list[float]]:
    """Smoothed Kullback-Leibler divergence between type distributions.

    Each table's type occurrence counts are smoothed additively by epsilon
    over the union support and renormalized. Rows and columns follow the
    order of the tables; entry [row q][col p] is D_KL(P || Q) in nats, so
    rows index the reference distribution Q. A table with no type
    occurrences raises EmptyDistribution, naming the feature counted.
    """
    check_epsilon("epsilon", epsilon)
    if len(tables) < 2:
        raise InvalidArgument("kl_matrix takes at least two tables")
    for name, c in tables:
        if sum(c.values()) == 0:
            raise EmptyDistribution(
                f"table {name!r} has no {feature} occurrences"
            )
    support = sorted(set().union(*(c for _, c in tables)))
    s = len(support)
    dists: list[list[float]] = []
    for _, c in tables:
        total = sum(c.values()) + epsilon * s
        dists.append([(c.get(x, 0) + epsilon) / total for x in support])

    return [
        [sum(pi * math.log(pi / qi) for pi, qi in zip(p, q) if pi > 0) for p in dists]
        for q in dists
    ]


class Histogram(NamedTuple):
    """Fixed-edge histogram; entries are (low, high, count) with low
    inclusive and high exclusive except for the final width-mode bin."""

    kind: str
    entries: tuple[tuple[float, float, int], ...]
    used: int
    skipped: int


def property_value(g: HeavyGraph, prop: str) -> float | None:
    """The record's Na (any case) or numeric property prop; None when it
    lacks the property."""
    if prop.lower() == "na":
        return float(g.na)
    return g.props.get(prop)


# The most equal-width bins a histogram takes: each is one output line.
MAX_BINS = 100_000


def check_bins(name: str, bins: int | str) -> None:
    if bins != "unit" and (not isinstance(bins, int) or not 1 <= bins <= MAX_BINS):
        raise InvalidArgument(
            f"{name} must be 'unit' or an integer from 1 to {MAX_BINS}, got {bins!r}"
        )


def histogram(values: list[float | None], bins: int | str = "unit") -> Histogram:
    """Histogram of the records' property_value.

    bins is either the token "unit" (one bin per integer floor) or a bin
    count from 1 to MAX_BINS for equal-width bins spanning the observed
    range.
    Records lacking the property (None) are skipped and counted as such;
    bin counts always sum to the number of records used.
    """
    check_bins("bins", bins)
    used = [v for v in values if v is not None]
    skipped = len(values) - len(used)
    if bins == "unit":
        c: Counter = Counter(math.floor(v) for v in used)
        entries = tuple(
            (float(k), float(k + 1), c[k]) for k in sorted(c)
        )
        return Histogram(kind="unit", entries=entries, used=len(used), skipped=skipped)
    if not used:
        return Histogram(kind="width", entries=(), used=0, skipped=skipped)
    lo, hi = min(used), max(used)
    if hi == lo:
        hi = lo + 1.0
    width = (hi - lo) / bins
    counts = [0] * bins
    for v in used:
        idx = min(int((v - lo) / width), bins - 1)
        counts[idx] += 1
    entries = tuple(
        (lo + i * width, lo + (i + 1) * width, counts[i]) for i in range(bins)
    )
    return Histogram(kind="width", entries=entries, used=len(used), skipped=skipped)


def record_levels(g: HeavyGraph) -> tuple[str, int, int]:
    """The per-record value of expansion_subsets: (id, radius-2 crowding
    level, cut-set level)."""
    return g.id, gcn.gcn2_level(g), nbg.cut_decomposition(g).level


def check_limit(name: str, limit: int | None) -> None:
    """A level threshold or heavy-atom cap is at least 0; None is no cap."""
    if limit is not None and limit < 0:
        raise InvalidArgument(f"{name} must be non-negative, got {limit}")


def expansion_subsets(
    levels: Iterable[tuple[str, int, int]], gcn2_max: int, nbg_max: int
) -> set[str]:
    """Ids of records within both level thresholds, from record_levels.

    A record qualifies when its radius-2 crowding level is at most
    gcn2_max and its cut-set level is at most nbg_max; the subsets are
    monotone in both thresholds.
    """
    check_limit("gcn2_max", gcn2_max)
    check_limit("nbg_max", nbg_max)
    return {
        rec_id for rec_id, crowding, cut_level in levels
        if crowding <= gcn2_max and cut_level <= nbg_max
    }


def complement_types(
    g: HeavyGraph, feature: str
) -> tuple[str, int, Counter]:
    """The per-record value of structure_complement: (id, heavy atoms,
    record_type_counts). feature is one of gcn1, nbg_plus (whole-molecule
    topology with elements and bond orders) or scaffold."""
    if feature not in COMPLEMENT_FEATURES:
        raise InvalidArgument(
            f"feature must be one of {COMPLEMENT_FEATURES}, got {feature!r}"
        )
    return g.id, g.na, record_type_counts(g, feature)


def known_types(train: Iterable[tuple[str, int, Counter]]) -> set[str]:
    """The feature types in the training records' complement_types, read once."""
    return {x for _, _, types in train for x in types}


def structure_complement(
    known: set[str],
    evals: Iterable[tuple[str, int, Counter]],
    na_cap: int | None = None,
) -> set[str]:
    """Ids of eval records, from their complement_types, carrying a feature
    type outside known, the training set's known_types.

    The optional na_cap drops eval records with more heavy atoms than the
    cap before the comparison; a negative cap would drop every record, so
    it raises InvalidArgument.
    """
    check_limit("na_cap", na_cap)
    return {
        rec_id for rec_id, na, types in evals
        if (na_cap is None or na <= na_cap) and any(x not in known for x in types)
    }
