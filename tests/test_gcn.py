"""Local-valence code construction, enumeration and counting."""

import itertools
import random
import re

import pytest

from molspace.errors import InvalidArgument, InvalidEnvironment, ParseError
from molspace.gcn import (
    GCN0_TABLE,
    atom_codes,
    count_gcn2,
    enumerate_gcn0,
    enumerate_gcn1,
    format_gcn1,
    gcn2_level,
    level0_codes,
    multichoose,
    parse_gcn_code,
)
from molspace.molgraph import heavy_graph, parse_record_obj

from conftest import (
    benzene,
    benzoic_acid,
    build,
    ethane,
    methane,
    methylhexene,
    neopentane,
    random_molecule_record,
)


def test_gcn0_table_size_and_partition():
    assert len(GCN0_TABLE) == 30
    assert len(set(GCN0_TABLE)) == 30
    by_element = {el: [c for c in GCN0_TABLE if c[0] == el] for el in "CNOF"}
    assert len(by_element["C"]) == 12
    assert len(by_element["N"]) == 12
    assert len(by_element["O"]) == 4
    assert len(by_element["F"]) == 2
    assert all(re.fullmatch(r"[CNOF][0-9][0-9]", c) for c in GCN0_TABLE)


def test_enumerate_gcn0_respects_element_subset():
    assert enumerate_gcn0() == list(GCN0_TABLE)
    of = enumerate_gcn0(["O", "F"])
    assert of == [c for c in GCN0_TABLE if c[0] in "OF"]
    with pytest.raises(InvalidArgument):
        enumerate_gcn0(["C", "Si"])
    with pytest.raises(InvalidArgument):
        enumerate_gcn0([])


def test_gcn0_of_known_molecules():
    assert level0_codes(methane()) == ["C04"]
    assert level0_codes(ethane()) == ["C13", "C13"]
    assert level0_codes(benzene()) == ["C21"] * 6
    codes = level0_codes(benzoic_acid())
    assert codes == ["C30", "C21", "C21", "C21", "C21", "C21", "C30", "O10", "O11"]


def test_unencodable_environment_raises():
    bare_carbon = build(["C"], [], h=[0])
    with pytest.raises(InvalidEnvironment, match="atom 1 has environment 'C00'"):
        level0_codes(bare_carbon)


def test_gcn1_sorts_neighbors_descending():
    assert format_gcn1("C31", ["C13", "C40", "C22"]) == "C31(C40,C22,C13)"
    assert format_gcn1("C04", []) == "C04"
    g = build(["C", "C", "O"], [(1, 2, 1), (2, 3, 1)])
    assert atom_codes(g)[1][1] == "C22(O11,C13)"


def spelled_codes(g, i):
    """Level-0, -1 and -2 codes of atom i, spelled out from g.neighbors."""

    def level0(v):
        return f"{g.elements[v]}{len(g.neighbors[v])}{g.h_count[v]}"

    def level1(v):
        nbrs = sorted((level0(w) for w, _ in g.neighbors[v]), reverse=True)
        return level0(v) + ("(" + ",".join(nbrs) + ")" if nbrs else "")

    nbrs = sorted((level1(w) for w, _ in g.neighbors[i]), reverse=True)
    level2 = level0(i) + ("[" + ",".join(nbrs) + "]" if nbrs else "")
    return level0(i), level1(i), level2


def test_atom_codes_matches_per_atom_functions(seed=5):
    rng = random.Random(seed)
    graphs = [methane(), ethane(), benzene(), benzoic_acid(), methylhexene()]
    graphs += [
        heavy_graph(parse_record_obj(random_molecule_record(rng, idx, max_heavy=12)))
        for idx in range(50)
    ]
    for g in graphs:
        g0, g1, g2 = atom_codes(g)
        for i in range(g.na):
            assert (g0[i], g1[i], g2[i]) == spelled_codes(g, i)


def test_parse_gcn_code_round_trips():
    center, nbrs = parse_gcn_code("C31(C40,C22,C13)")
    assert center == "C31"
    assert nbrs == ("C40", "C22", "C13")
    center, nbrs = parse_gcn_code("C04")
    assert center == "C04"
    assert nbrs == ()
    center, nbrs = parse_gcn_code("C21[C31(C40,C22,C13),C22(O11,C13)]")
    assert center == "C21"
    assert nbrs == ("C31(C40,C22,C13)", "C22(O11,C13)")
    for bad in ("C5", "X31", "C31(", "C31(C13", "C31[C31[C31]]", ""):
        with pytest.raises(ParseError):
            parse_gcn_code(bad)


def test_count_gcn2_rejects_out_of_table_codes():
    with pytest.raises(ParseError):
        count_gcn2(["C99(C31)"])
    with pytest.raises(ParseError):
        count_gcn2(["C31(C99)"])
    with pytest.raises(ParseError):
        count_gcn2(["C21[C31(C13,C13,C13)]"])


def test_gcn1_enumeration_total():
    codes = enumerate_gcn1()
    assert len(codes) == 47870
    assert len(set(codes)) == 47870
    bare = [c for c in codes if "(" not in c]
    assert sorted(bare) == sorted(["C04", "C02", "N03", "N01", "O02", "F01"])
    assert len(codes) - len(bare) == 47864


def test_gcn1_enumeration_small_subsets():
    of = enumerate_gcn1(["O", "F"])
    assert len(of) == 24
    assert len(enumerate_gcn1(["O"])) == 13
    f_only = enumerate_gcn1(["F"])
    assert f_only == ["F10(F10)", "F01"]


def test_gcn1_codes_are_mutually_admissible():
    for code in enumerate_gcn1(["O", "F"]):
        center, nbrs = parse_gcn_code(code)
        assert int(center[1]) == len(nbrs) or len(nbrs) == 0
        for nb in nbrs:
            assert int(nb[1]) >= 1


def test_multichoose_identities():
    assert multichoose(5, 0) == 1
    assert multichoose(1, 7) == 1
    assert multichoose(3, 2) == 6
    assert multichoose(24, 4) == 17550
    for n, k in itertools.product(range(1, 8), range(0, 6)):
        assert multichoose(n, k) == len(
            list(itertools.combinations_with_replacement(range(n), k))
        )


def test_count_gcn2_full_universe():
    total = count_gcn2(enumerate_gcn1())
    assert total == 156452410979895


def gcn2_stream(gcn1_list, elements):
    """Every level-2 code over a level-1 list, spelled out one by one: the
    reference that count_gcn2 must match in number on small universes."""
    for center in GCN0_TABLE:
        n = int(center[1])
        if n < 1:
            continue
        pool = sorted(
            (code for code in gcn1_list if center in parse_gcn_code(code)[1]),
            reverse=True,
        )
        for combo in itertools.combinations_with_replacement(pool, n):
            yield center + "[" + ",".join(combo) + "]"
    for code in GCN0_TABLE:
        if code[1] == "0" and code[0] in elements:
            yield code


def test_count_gcn2_matches_stream_on_small_universes():
    for elements in (["O"], ["F"], ["O", "F"]):
        gcn1 = enumerate_gcn1(elements)
        count = count_gcn2(gcn1, elements)
        stream = list(gcn2_stream(gcn1, elements))
        assert len(stream) == count
        assert len(set(stream)) == count


def test_count_gcn2_worked_examples():
    assert count_gcn2(enumerate_gcn1(["O", "F"]), ["O", "F"]) == 51
    assert count_gcn2(enumerate_gcn1(["O"]), ["O"]) == 26
    assert count_gcn2([]) == 6


def test_count_gcn2_infers_universe_from_codes():
    gcn1 = enumerate_gcn1(["O", "F"])
    assert count_gcn2(gcn1) == 51


def test_gcn2_stream_fluorine_worked_example():
    out = list(gcn2_stream(enumerate_gcn1(["F"]), ["F"]))
    assert out == ["F10[F10(F10)]", "F01"]
    assert count_gcn2(enumerate_gcn1(["F"]), ["F"]) == 2


def test_gcn2_stream_entries_parse_back(seed=3):
    rng = random.Random(seed)
    gcn1 = enumerate_gcn1(["O", "F"])
    for code in gcn2_stream(gcn1, ["O", "F"]):
        center, nbrs = parse_gcn_code(code)
        assert center in GCN0_TABLE
        for nb in nbrs:
            assert nb in gcn1
    del rng


def test_gcn2_level_examples():
    assert gcn2_level(methane()) == 0
    assert gcn2_level(ethane()) == 1
    assert gcn2_level(benzene()) == 4
    assert gcn2_level(neopentane()) == 4
    assert gcn2_level(methylhexene()) == 5


def test_gcn2_level_bounds_on_random_molecules(seed=5):
    rng = random.Random(seed)
    for idx in range(300):
        g = heavy_graph(parse_record_obj(random_molecule_record(rng, idx, max_heavy=20)))
        level = gcn2_level(g)
        assert 0 <= level <= 16
        assert level <= g.na - 1
