"""Dataset ingestion, coverage reports, overlap, divergence, subsets."""

import math
import random
import warnings
from collections import Counter

import pytest

from functools import partial

from molspace import coverage
from molspace.coverage import (
    COMPLEMENT_FEATURES,
    MAX_BINS,
    RejectEntry,
    complement_types,
    coverage_features,
    coverage_report,
    expansion_subsets,
    histogram,
    ingest,
    kl_matrix,
    known_types,
    overlap_report,
    property_value,
    record_levels,
    record_type_counts,
    structure_complement,
    type_total,
)
from molspace.errors import (
    EmptyDistribution,
    InvalidArgument,
)
from molspace.molgraph import HydrogenClampWarning, heavy_graph, parse_record_line

from conftest import record_line


def pass_over(lines, compute=lambda record: record, reduce=list):
    """The values one record pass keeps, as reduce folds them, and its rejects."""
    (values,), rejects = ingest(["\n".join(lines)], compute, [reduce])
    return values, rejects


def make_values(lines, compute=lambda record: record, reduce=list):
    values, rejects = pass_over(lines, compute, reduce)
    assert rejects == []
    return values


def make_table(name, lines, feature="gcn0"):
    """(name, type_total of its records), as kl and compare fold them."""
    return name, make_values(
        lines, partial(record_type_counts, feature=feature), type_total)


def type_set(table):
    return set(table[1])


METHANE = record_line("methane", ["C"], [], props={"e": -40.0})
ETHANE = record_line("ethane", ["C", "C"], [(1, 2, 1)], props={"e": -79.0})
ETHENE = record_line("ethene", ["C", "C"], [(1, 2, 2)])
WATER = record_line("water", ["O"], [], props={"e": -76.0})
RING6 = [(1, 2, 2), (2, 3, 1), (3, 4, 2), (4, 5, 1), (5, 6, 2), (6, 1, 1)]
BENZENE = record_line("benzene", ["C"] * 6, RING6)
PROPANE = record_line("propane", ["C", "C", "C"], [(1, 2, 1), (2, 3, 1)])
TOLUENE = record_line("toluene", ["C"] * 7, RING6 + [(1, 7, 1)])
CYCLOHEXANE = record_line(
    "cyclohexane", ["C"] * 6, [(i, i % 6 + 1, 1) for i in range(1, 7)])
BIPHENYL = record_line(
    "biphenyl", ["C"] * 12,
    RING6 + [(a + 6, b + 6, c) for a, b, c in RING6] + [(1, 7, 1)])


def test_ingest_accepts_and_rejects_line_by_line():
    lines = [
        METHANE,
        "",
        "# comment",
        "{bad json",
        record_line("ghost", ["C", "C"], []),
        record_line("methane", ["C"], []),
        record_line("overfull", ["C"], [], h=[9]),
        ETHANE,
    ]
    records, rejects = pass_over(lines)
    assert [r.id for r in records] == ["methane", "ethane"]
    assert len(rejects) == 4
    assert rejects[0].line_no == 4
    assert "ParseError" in rejects[0].reason
    assert "fragment" in rejects[1].reason
    assert "DuplicateRecord" in rejects[2].reason
    assert "above the cap" in rejects[3].reason


def test_ingest_rejects_unencodable_environment():
    records, rejects = pass_over([record_line("bare", ["C"], [], h=[0])])
    assert len(records) == 0
    assert len(rejects) == 1
    assert "InvalidEnvironment" in rejects[0].reason


def test_ingest_rejects_non_numeric_property():
    line = record_line("m", ["C"], [], props={"e": "low"})
    records, rejects = pass_over([line])
    assert len(records) == 0 and "not numeric" in rejects[0].reason


def test_record_type_counts_features():
    eth, benz = make_values([ETHANE, BENZENE])
    assert record_type_counts(eth, "gcn0") == {"C13": 2}
    assert record_type_counts(eth, "gcn1") == {"C13(C13)": 2}
    assert record_type_counts(benz, "gcn0") == {"C21": 6}
    assert sum(record_type_counts(benz, "nbg0").values()) == 1
    assert record_type_counts(eth, "nbg0") == {}
    assert record_type_counts(eth, "scaffold") == {}
    assert sum(record_type_counts(benz, "scaffold").values()) == 1
    assert sum(record_type_counts(eth, "nbg_plus").values()) == 1
    with pytest.raises(InvalidArgument):
        record_type_counts(eth, "smiles")


def test_coverage_report_counts():
    lines = [
        METHANE,
        ETHANE,
        record_line("ethane_conf2", ["C", "C"], [(1, 2, 1)], mol="ethane"),
    ]
    d = coverage_report(make_values(lines, coverage_features), "t")
    assert d["conformation_count"] == 3
    assert d["molecule_count"] == 2
    assert d["gcn0_types"] == 2
    assert d["gcn1_types"] == 2
    assert d["na_histogram"] == {"1": 1, "2": 2}
    assert d["nbg_plus_levels"] == {"0": 1, "1": 2}

    rings = make_values(
        [BENZENE, TOLUENE, CYCLOHEXANE, BIPHENYL, ETHANE], coverage_features)
    d = coverage_report(rings, "rings")
    assert d == {
        "name": "rings",
        "molecule_count": 5,
        "conformation_count": 5,
        # C21 (aromatic CH), C30 (ipso), C13 (methyl), C22 (ring CH2).
        "gcn0_types": 4,
        # C21(C21,C21), C21(C30,C21), C30(C21,C21,C13), C13(C30),
        # C30(C30,C21,C21), C22(C22,C22), C13(C13).
        "gcn1_types": 7,
        # Benzene 1 (shared by every para carbon), toluene 4 (methyl,
        # ipso, ortho, meta), cyclohexane 1, biphenyl 2 (ipso and ortho;
        # its meta matches toluene's), ethane 1.
        "gcn2_types": 9,
        # The Kekule ring and the saturated ring; without bond orders the
        # two rings are one.
        "nbg0_types": {
            "element-order": 2, "skeleton": 2, "skeleton-no-order": 1},
        # The Kekule ring (benzene, toluene), the saturated ring and the
        # ring pair of biphenyl; ethane has no scaffold.
        "scaffold_types": 3,
        # max(cut vertices, bridges): benzene and cyclohexane 0, toluene
        # (1, 1) and ethane (0, 1) 1, biphenyl (2, 1) 2.
        "nbg_plus_levels": {"0": 2, "1": 2, "2": 1},
        "na_histogram": {"2": 1, "6": 2, "7": 1, "12": 1},
    }
    assert list(d["na_histogram"]) == ["2", "6", "7", "12"]


def test_overlap_regions_partition_the_union():
    ta = make_table("a", [METHANE, ETHANE])
    tb = make_table("b", [ETHANE, WATER])
    regions = overlap_report([ta, tb])
    assert regions == {"a": 1, "b": 1, "a&b": 1}
    tc = make_table("c", [BENZENE])
    three = overlap_report([ta, tb, tc])
    assert sum(three.values()) == len(type_set(ta) | type_set(tb) | type_set(tc))
    assert set(three) == {"a", "b", "c", "a&b", "a&c", "b&c", "a&b&c"}


def test_overlap_refuses_a_name_holding_the_region_separator():
    # "a&b" would name both the region of a and b and the third table.
    tables = [("a", Counter({"x": 1})), ("b", Counter({"x": 1})),
              ("a&b", Counter({"y": 1}))]
    with pytest.raises(InvalidArgument, match="'a&b' holds '&'"):
        overlap_report(tables)


def test_overlap_requires_two_or_three_distinct_names():
    ta = make_table("a", [METHANE])
    tb = make_table("a", [WATER])
    with pytest.raises(InvalidArgument):
        overlap_report([ta])
    with pytest.raises(InvalidArgument):
        overlap_report([ta, tb])


def test_kl_matrix_shape_and_diagonal():
    ta = make_table("a", [METHANE, ETHANE])
    tb = make_table("b", [ETHANE, WATER])
    matrix = kl_matrix([ta, tb], "gcn0")
    assert [len(row) for row in matrix] == [2, 2]
    assert matrix[0][0] == 0.0
    assert matrix[1][1] == 0.0
    assert matrix[0][1] >= 0.0
    assert matrix[1][0] >= 0.0


def test_kl_matrix_epsilon_limit_reaches_ln2():
    ta = make_table("a", [METHANE])
    tb = make_table("b", [METHANE, WATER])
    got = kl_matrix([ta, tb], "gcn0", epsilon=1e-9)[1][0]
    assert abs(got - math.log(2.0)) < 1e-4


def test_kl_matrix_input_checks():
    ta = make_table("a", [METHANE])
    tb = make_table("b", [WATER])
    with pytest.raises(InvalidArgument):
        kl_matrix([ta, tb], "gcn0", epsilon=0.0)
    with pytest.raises(InvalidArgument):
        kl_matrix([ta], "gcn0")
    empty = ("e", Counter())
    with pytest.raises(EmptyDistribution):
        kl_matrix([ta, empty], "gcn0")


def test_unit_histogram_floors_values():
    hist = histogram(
        make_values([METHANE, ETHANE, WATER], partial(property_value, prop="Na")),
        "unit")
    assert hist.kind == "unit"
    assert hist.entries == ((1.0, 2.0, 2), (2.0, 3.0, 1))
    assert hist.used == 3 and hist.skipped == 0


def test_width_histogram_covers_range_inclusively():
    energy = partial(property_value, prop="e")
    values = make_values([METHANE, ETHANE, WATER], energy)
    hist = histogram(values, 2)
    assert hist.kind == "width"
    assert sum(c for _, _, c in hist.entries) == 3
    last = hist.entries[-1]
    assert last[2] >= 1
    hist2 = histogram(make_values([METHANE, ETHENE], energy), 3)
    assert hist2.used == 1 and hist2.skipped == 1
    with pytest.raises(InvalidArgument):
        histogram(values, 0)


def test_histogram_takes_at_most_max_bins():
    assert MAX_BINS == 100_000
    assert len(histogram([1.0], MAX_BINS).entries) == MAX_BINS
    with pytest.raises(InvalidArgument, match="from 1 to 100000, got 100001"):
        histogram([1.0], MAX_BINS + 1)


@pytest.mark.parametrize("action", ["error", "ignore", "always", "default"])
def test_ingest_shows_each_distinct_warning_once_whatever_the_filters(
    action, monkeypatch
):
    nitro = record_line("nitro", ["C", "N", "O", "C"],
                        [(1, 2, 1), (2, 3, 2), (2, 4, 1)])
    shown = []
    monkeypatch.setattr(warnings, "showwarning",
                        lambda message, kind, *_: shown.append((kind, message)))
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        values, rejects = pass_over([nitro, nitro, METHANE])
    assert len(values) == 2 and len(rejects) == 1
    assert shown == [(HydrogenClampWarning, "record 'nitro': atom 2 (N) has bond "
                      "order sum 4 above the default valence; hydrogen count "
                      "clamped to 0")]


NITRO = record_line("nitro", ["C", "N", "O", "C"], [(1, 2, 1), (2, 3, 2), (2, 4, 1)])


def count_chunks(monkeypatch, size=8):
    """The line count of each chunk that ingest judges in this process, with
    chunks of size lines."""
    monkeypatch.setattr(coverage, "CHUNK_LINES", size)
    chunks = []
    judge = coverage.judge

    def counted(compute, molfile, texts):
        chunks.append(len(texts))
        return judge(compute, molfile, texts)

    monkeypatch.setattr(coverage, "judge", counted)
    return chunks


def test_one_worker_keeps_one_id_set_and_one_warning_set_across_chunks(monkeypatch):
    shown = []
    monkeypatch.setattr(warnings, "showwarning",
                        lambda message, kind, *_: shown.append(kind))
    chunks = count_chunks(monkeypatch)
    lines = [record_line(f"m{i}", ["C"], []) for i in range(40)]
    # The second nitro, in a later chunk, repeats the first one's warning.
    lines[2] = lines[33] = NITRO
    values, rejects = pass_over(lines)
    # The first nitro is in the first chunk, the second is not.
    assert 2 < chunks[0] <= 33
    assert len(values) == 39
    assert rejects == [
        RejectEntry(34, "nitro", "DuplicateRecord: id 'nitro' already present")]
    assert shown == [HydrogenClampWarning]


class Alive:
    """A record's value that counts how many values are alive."""

    count = 0

    def __init__(self, record):
        Alive.count += 1

    def __del__(self):
        Alive.count -= 1


def most_alive(values):
    return max(Alive.count for _ in values)


def test_one_worker_keeps_no_more_than_one_chunk_of_values_alive(monkeypatch):
    chunks = count_chunks(monkeypatch)
    lines = [record_line(f"m{i}", ["C"], []) for i in range(64)]
    peak, rejects = pass_over(lines, Alive, most_alive)
    assert rejects == [] and len(chunks) > 1
    assert peak <= max(chunks) < len(lines)
    assert Alive.count == 0


def test_expansion_subsets_thresholds():
    table = make_values([METHANE, ETHANE, PROPANE, BENZENE], record_levels)
    assert expansion_subsets(table, 0, 0) == {"methane"}
    assert expansion_subsets(table, 1, 1) == {"methane", "ethane"}
    assert expansion_subsets(table, 16, 22) == {
        "methane", "ethane", "propane", "benzene",
    }
    with pytest.raises(InvalidArgument):
        expansion_subsets(table, -1, 0)


def test_expansion_subsets_monotone(seed=17):
    rng = random.Random(seed)
    from conftest import random_molecule_record
    import json

    lines = [json.dumps(random_molecule_record(rng, i, max_heavy=12)) for i in range(60)]
    table, _ = pass_over(lines, record_levels)
    prev: set[str] = set()
    for level in range(0, 24, 3):
        cur = expansion_subsets(table, level, level)
        assert prev <= cur
        prev = cur


def test_structure_complement_flags_unseen_types():
    gcn1 = partial(complement_types, feature="gcn1")
    train = make_values([METHANE, PROPANE], gcn1, known_types)
    eval_t = make_values([ETHANE, WATER, BENZENE], gcn1)
    out = structure_complement(train, eval_t)
    assert out == {"ethane", "water", "benzene"}
    assert structure_complement(train, eval_t, na_cap=2) == {
        "ethane", "water",
    }
    assert structure_complement(train, make_values([PROPANE], gcn1)) == set()
    with pytest.raises(InvalidArgument):
        pass_over([METHANE, PROPANE], partial(complement_types, feature="gcn0"))


def test_structure_complement_refuses_a_negative_na_cap():
    gcn1 = partial(complement_types, feature="gcn1")
    train = make_values([METHANE], gcn1, known_types)
    eval_t = make_values([WATER], gcn1)
    assert structure_complement(train, eval_t, na_cap=0) == set()
    assert structure_complement(train, eval_t, na_cap=1) == {"water"}
    with pytest.raises(InvalidArgument, match="na_cap must be non-negative"):
        structure_complement(train, eval_t, na_cap=-5)


@pytest.mark.parametrize("feature", COMPLEMENT_FEATURES)
def test_structure_complement_is_the_set_definition_on_random_corpora(feature):
    from conftest import random_molecule_record
    import json

    rng = random.Random(2201)
    compute = partial(complement_types, feature=feature)
    for trial in range(6):
        train = [json.dumps(random_molecule_record(rng, i, max_heavy=10))
                 for i in range(rng.randint(0, 25))]
        evals = [json.dumps(random_molecule_record(rng, i, max_heavy=12))
                 for i in range(25)]
        (known, values), rejects = ingest(
            ["\n".join(train), "\n".join(evals)], compute, [known_types, list])
        assert rejects == []
        # The definition, from each record's own types.
        seen = {x for line in train
                for x in record_type_counts(heavy_graph(parse_record_line(line)), feature)}
        assert known == seen
        for cap in (None, rng.randint(0, 12)):
            expected = set()
            for line in evals:
                g = heavy_graph(parse_record_line(line))
                unseen = set(record_type_counts(g, feature)) - seen
                if unseen and (cap is None or g.na <= cap):
                    expected.add(g.id)
            assert structure_complement(known, values, cap) == expected, (trial, cap)


class AliveTypes(Alive):
    """A record's types, none, that count how many values are alive."""

    def __iter__(self):
        return iter(())


def alive_types(record):
    return record.id, record.na, AliveTypes(record)


def test_complement_folds_the_training_input_one_chunk_at_a_time(monkeypatch):
    chunks = count_chunks(monkeypatch)
    train = "\n".join(record_line(f"t{i}", ["C"], []) for i in range(64))
    alive = []

    def counted(values):
        for value in values:
            alive.append(Alive.count)
            yield value

    (known, evals), rejects = ingest(
        [train, METHANE], alive_types, [lambda values: known_types(counted(values)), list])
    assert rejects == [] and known == set() and len(evals) == 1
    # A chunk's values, and the one known_types read last while the next
    # chunk is judged.
    assert len(alive) == 64 and max(alive) <= max(chunks) + 1 < 64
