"""Dataset ingestion, coverage reports, overlap, divergence, subsets."""

import math
import random

import pytest

from molspace.coverage import (
    DatasetTable,
    composition_key,
    composition_uniformity,
    coverage_report,
    expansion_subsets,
    histogram,
    ingest,
    kl_matrix,
    overlap_report,
    record_type_counts,
    structure_complement,
    type_set,
)
from molspace.errors import (
    EmptyDistribution,
    InvalidArgument,
)

from conftest import record_line


def make_table(name, lines):
    table, rejects = ingest(lines, name)
    assert rejects == []
    return table


METHANE = record_line("methane", ["C"], [], props={"e": -40.0})
ETHANE = record_line("ethane", ["C", "C"], [(1, 2, 1)], props={"e": -79.0})
ETHENE = record_line("ethene", ["C", "C"], [(1, 2, 2)])
WATER = record_line("water", ["O"], [], props={"e": -76.0})
BENZENE = record_line("benzene", ["C"] * 6,
                      [(1, 2, 2), (2, 3, 1), (3, 4, 2), (4, 5, 1), (5, 6, 2), (6, 1, 1)])
PROPANE = record_line("propane", ["C", "C", "C"], [(1, 2, 1), (2, 3, 1)])


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
    table, rejects = ingest(lines, "t")
    assert [r.id for r in table.records] == ["methane", "ethane"]
    assert len(rejects) == 4
    assert rejects[0].line_no == 4
    assert "ParseError" in rejects[0].reason
    assert "fragment" in rejects[1].reason
    assert "DuplicateRecord" in rejects[2].reason
    assert "above the cap" in rejects[3].reason


def test_ingest_rejects_unencodable_environment():
    table, rejects = ingest([record_line("bare", ["C"], [], h=[0])], "t")
    assert len(table) == 0
    assert len(rejects) == 1
    assert "InvalidEnvironment" in rejects[0].reason


def test_ingest_rejects_non_numeric_property():
    line = record_line("m", ["C"], [], props={"e": "low"})
    table, rejects = ingest([line], "t")
    assert len(table) == 0 and "not numeric" in rejects[0].reason


def test_record_type_counts_features():
    table = make_table("t", [ETHANE, BENZENE])
    eth, benz = table.records
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
    table = make_table("t", lines)
    report = coverage_report(table)
    d = report.to_dict()
    assert d["conformation_count"] == 3
    assert d["molecule_count"] == 2
    assert d["gcn0_types"] == 2
    assert d["gcn1_types"] == 2
    assert d["na_histogram"] == {"1": 1, "2": 2}
    assert d["nbg_plus_levels"] == {"0": 1, "1": 2}


def test_overlap_regions_partition_the_union():
    ta = make_table("a", [METHANE, ETHANE])
    tb = make_table("b", [ETHANE, WATER])
    regions = overlap_report([ta, tb], "gcn0")
    assert regions == {"a": 1, "b": 1, "a&b": 1}
    tc = make_table("c", [BENZENE])
    three = overlap_report([ta, tb, tc], "gcn0")
    assert sum(three.values()) == len(
        type_set(ta, "gcn0") | type_set(tb, "gcn0") | type_set(tc, "gcn0")
    )
    assert set(three) == {"a", "b", "c", "a&b", "a&c", "b&c", "a&b&c"}


def test_overlap_requires_two_or_three_distinct_names():
    ta = make_table("a", [METHANE])
    tb = make_table("a", [WATER])
    with pytest.raises(InvalidArgument):
        overlap_report([ta], "gcn0")
    with pytest.raises(InvalidArgument):
        overlap_report([ta, tb], "gcn0")


def test_kl_matrix_shape_and_diagonal():
    ta = make_table("a", [METHANE, ETHANE])
    tb = make_table("b", [ETHANE, WATER])
    km = kl_matrix([ta, tb], "gcn0")
    assert km.names == ("a", "b")
    assert km.matrix[0][0] == 0.0
    assert km.matrix[1][1] == 0.0
    assert km.matrix[0][1] >= 0.0
    assert km.matrix[1][0] >= 0.0


def test_kl_matrix_epsilon_limit_reaches_ln2():
    ta = make_table("a", [METHANE])
    tb = make_table("b", [METHANE, WATER])
    km = kl_matrix([ta, tb], "gcn0", epsilon=1e-9)
    got = km.matrix[1][0]
    assert abs(got - math.log(2.0)) < 1e-4


def test_kl_matrix_input_checks():
    ta = make_table("a", [METHANE])
    tb = make_table("b", [WATER])
    with pytest.raises(InvalidArgument):
        kl_matrix([ta, tb], "gcn0", epsilon=0.0)
    with pytest.raises(InvalidArgument):
        kl_matrix([ta], "gcn0")
    empty = DatasetTable(name="e", records=[])
    with pytest.raises(EmptyDistribution):
        kl_matrix([ta, empty], "gcn0")


def test_unit_histogram_floors_values():
    table = make_table("t", [METHANE, ETHANE, WATER])
    hist = histogram(table, "Na", "unit")
    assert hist.kind == "unit"
    assert hist.entries == ((1.0, 2.0, 2), (2.0, 3.0, 1))
    assert hist.used == 3 and hist.skipped == 0


def test_width_histogram_covers_range_inclusively():
    table = make_table("t", [METHANE, ETHANE, WATER])
    hist = histogram(table, "e", 2)
    assert hist.kind == "width"
    assert sum(c for _, _, c in hist.entries) == 3
    last = hist.entries[-1]
    assert last[2] >= 1
    skipping = make_table("s", [METHANE, ETHENE])
    hist2 = histogram(skipping, "e", 3)
    assert hist2.used == 1 and hist2.skipped == 1
    with pytest.raises(InvalidArgument):
        histogram(table, "e", 0)


def test_expansion_subsets_thresholds():
    table = make_table("t", [METHANE, ETHANE, PROPANE, BENZENE])
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
    table, _ = ingest(lines, "t")
    prev: set[str] = set()
    for level in range(0, 24, 3):
        cur = expansion_subsets(table, level, level)
        assert prev <= cur
        prev = cur


def test_structure_complement_flags_unseen_types():
    train = make_table("train", [METHANE, PROPANE])
    eval_t = make_table("eval", [ETHANE, WATER, BENZENE])
    out = structure_complement(train, eval_t, "gcn1")
    assert out == {"ethane", "water", "benzene"}
    assert structure_complement(train, eval_t, "gcn1", na_cap=2) == {
        "ethane", "water",
    }
    assert structure_complement(train, make_table("e2", [PROPANE]), "gcn1") == set()
    with pytest.raises(InvalidArgument):
        structure_complement(train, eval_t, "gcn0")


def test_composition_key_ordering():
    table = make_table("t", [METHANE, ETHANE, WATER])
    keys = [composition_key(r.graph) for r in table.records]
    assert keys == ["CH4", "C2H6", "OH2"]


def test_composition_uniformity_counts_distinct_structures():
    butane = record_line("butane", ["C"] * 4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)])
    isobutane = record_line("isobutane", ["C"] * 4, [(1, 2, 1), (1, 3, 1), (1, 4, 1)])
    butane_conf = record_line(
        "butane_conf", ["C"] * 4, [(1, 2, 1), (2, 3, 1), (3, 4, 1)], mol="butane"
    )
    table = make_table("t", [butane, isobutane, butane_conf, METHANE])
    report = composition_uniformity(table)
    assert report.structures == {"C4H10": 2, "CH4": 1}
    assert report.flagged == ("CH4",)
