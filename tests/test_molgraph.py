"""Record and molfile parsing, hydrogen handling, validation."""

import random

import pytest

from molspace.errors import (
    InvalidHydrogenCount,
    InvalidHydrogenTopology,
    ParseError,
    UnsupportedBondOrder,
    UnsupportedElement,
)
from molspace.molgraph import (
    HydrogenClampWarning,
    heavy_graph,
    parse_molfile,
    parse_record_obj,
    validate,
)

from conftest import (
    METHANE_MOLFILE,
    WATER_MOLFILE,
    benzene,
    build,
    ethane,
    random_molecule_record,
    record,
)


def test_auto_hydrogens_follow_default_valence():
    g = ethane()
    assert g.h_count == (3, 3)
    assert benzene().h_count == (1,) * 6
    assert build(["C", "O"], [(1, 2, 2)]).h_count == (2, 0)
    assert build(["C", "N"], [(1, 2, 3)]).h_count == (1, 0)


def test_explicit_hydrogen_list_is_used_verbatim():
    g = build(["C", "C"], [(1, 2, 1)], h=[2, 2])
    assert g.h_count == (2, 2)


def test_bonds_are_normalized_and_sorted():
    g = build(["C", "C", "C"], [(3, 2, 1), (2, 1, 1)])
    assert g.bonds == ((0, 1, 1), (1, 2, 1))


def test_composition_includes_hydrogens():
    assert ethane().composition() == {"C": 2, "H": 6}
    assert build(["O"], []).composition() == {"O": 1, "H": 2}


def test_missing_fields_rejected():
    with pytest.raises(ParseError):
        parse_record_obj({"id": "x", "elements": ["C"], "bonds": []})


def test_hydrogen_atoms_not_allowed_in_records():
    with pytest.raises(ParseError):
        parse_record_obj(record("x", ["C", "H"], [(1, 2, 1)]))


def test_unknown_element_rejected():
    with pytest.raises(UnsupportedElement):
        parse_record_obj(record("x", ["C", "Si"], [(1, 2, 1)]))


def test_aromatic_bond_order_names_the_remedy():
    with pytest.raises(UnsupportedBondOrder) as err:
        parse_record_obj(record("x", ["C", "C"], [(1, 2, 4)]))
    assert "Kekule" in str(err.value)


def test_structural_bond_errors():
    with pytest.raises(ParseError):
        parse_record_obj(record("x", ["C", "C"], [(1, 1, 1)]))
    with pytest.raises(ParseError):
        parse_record_obj(record("x", ["C", "C"], [(1, 3, 1)]))
    with pytest.raises(ParseError):
        parse_record_obj(record("x", ["C", "C"], [(1, 2, 1), (2, 1, 1)]))


def test_multi_fragment_record_rejected():
    with pytest.raises(ParseError):
        parse_record_obj(record("x", ["C", "C", "C"], [(1, 2, 1)]))


def test_negative_hydrogen_count_rejected():
    with pytest.raises(InvalidHydrogenCount):
        parse_record_obj(record("x", ["C"], [], h=[-1]))


def test_wrong_hydrogen_list_length_rejected():
    with pytest.raises(ParseError):
        parse_record_obj(record("x", ["C", "C"], [(1, 2, 1)], h=[4]))


def test_overbonded_auto_hydrogens_clamp_with_warning():
    bonds = [(1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1)]
    with pytest.warns(HydrogenClampWarning):
        g = build(["N", "C", "C", "C", "C"], bonds)
    assert g.h_count[0] == 0


def test_molfile_with_explicit_hydrogens():
    g = heavy_graph(parse_molfile(WATER_MOLFILE))
    assert g.elements == ("O",)
    assert g.h_count == (2,)
    assert g.bonds == ()


def test_molfile_without_hydrogens_reads_bare_heavy_atoms():
    g = heavy_graph(parse_molfile(METHANE_MOLFILE))
    assert g.elements == ("C",)
    assert g.h_count == (0,)


def test_molfile_errors():
    with pytest.raises(ParseError):
        parse_molfile("too\nshort\n")
    bad_element = WATER_MOLFILE.replace(" O  ", " Xe ")
    with pytest.raises(UnsupportedElement):
        parse_molfile(bad_element)
    aromatic = WATER_MOLFILE.replace("  1  2  1", "  1  2  4")
    with pytest.raises(UnsupportedBondOrder):
        parse_molfile(aromatic)


def test_molfile_hydrogen_topology_errors():
    h_h_bond = "\n".join(
        [
            "bad",
            "",
            "",
            "  2  1  0  0  0  0  0  0  0  0999 V2000",
            "    0.0000    0.0000    0.0000 H   0  0  0  0  0  0  0  0  0  0  0  0",
            "    0.0000    0.0000    0.0000 H   0  0  0  0  0  0  0  0  0  0  0  0",
            "  1  2  1  0  0  0  0",
            "M  END",
        ]
    )
    with pytest.raises(InvalidHydrogenTopology):
        heavy_graph(parse_molfile(h_h_bond))


def test_validate_flags_overloaded_atoms():
    g = build(["C"], [], h=[5])
    assert any("above the cap" in d for d in validate(g))
    assert validate(ethane()) == []


def test_validate_allows_tetracoordinate_nitrogen():
    bonds = [(1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 5, 1)]
    with pytest.warns(HydrogenClampWarning):
        g = build(["N", "C", "C", "C", "C"], bonds)
    assert validate(g) == []


def test_validate_rejects_pentavalent_nitrogen_connectivity():
    g = build(["N"], [], h=[5])
    assert any("above the cap" in d for d in validate(g))


def test_random_molecules_always_validate(seed=11):
    rng = random.Random(seed)
    for idx in range(300):
        g = heavy_graph(parse_record_obj(random_molecule_record(rng, idx)))
        assert validate(g) == []
