"""Scalar electronic descriptors and their input loaders."""

import math
import random

import pytest

from molspace.descriptors import (
    GroupStats,
    OrbitalRecord,
    binding_energy,
    e_gcn0,
    group_stats,
    load_orbital_lines,
    load_reference_lines,
)
from molspace.errors import (
    DegenerateWeights,
    InvalidArgument,
    MissingReference,
    ParseError,
)
from molspace.molgraph import parse_record_line


def recs(pairs):
    return [OrbitalRecord(occupancy=o, energy=e) for o, e in pairs]


def test_e_gcn0_is_the_occupation_weighted_mean():
    assert e_gcn0(recs([(2.0, -1.0), (2.0, -0.5)])) == pytest.approx(-0.75)
    assert e_gcn0(recs([(1.0, 3.0)])) == 3.0
    assert e_gcn0(recs([(3.0, 2.0), (1.0, -2.0)])) == pytest.approx(1.0)


def test_e_gcn0_rejects_degenerate_and_negative_weights():
    with pytest.raises(DegenerateWeights):
        e_gcn0(recs([(0.0, -1.0), (0.0, 2.0)]))
    with pytest.raises(DegenerateWeights):
        e_gcn0([])
    with pytest.raises(InvalidArgument):
        e_gcn0(recs([(-1.0, 0.5)]))


def test_e_gcn0_bounds_and_scale_invariance(seed=13):
    rng = random.Random(seed)
    for _ in range(500):
        k = rng.randint(1, 12)
        pairs = [(rng.uniform(0.01, 4.0), rng.uniform(-30.0, 10.0)) for _ in range(k)]
        value = e_gcn0(recs(pairs))
        lo = min(e for _, e in pairs)
        hi = max(e for _, e in pairs)
        assert lo - 1e-12 <= value <= hi + 1e-12
        lam = rng.uniform(0.1, 10.0)
        scaled = e_gcn0(recs([(o * lam, e) for o, e in pairs]))
        assert math.isclose(value, scaled, rel_tol=1e-12, abs_tol=1e-12)


def test_group_stats_population_spread():
    stats = group_stats([("a", 1.0), ("a", 3.0), ("b", 5.0)])
    assert list(stats) == ["a", "b"]
    assert stats["a"] == GroupStats(count=2, mean=2.0, std=1.0)
    assert stats["b"].count == 1
    assert stats["b"].std == 0.0


def test_binding_energy_round_trip():
    refs = {"C": -37.8, "H": -0.5, "O": -75.0}
    comp = {"C": 2, "H": 6}
    e_bind = -1.2
    e_tot = e_bind + sum(refs[el] * n for el, n in comp.items())
    assert binding_energy(e_tot, comp, refs) == pytest.approx(e_bind, abs=1e-12)


def test_binding_energy_requires_all_references():
    with pytest.raises(MissingReference):
        binding_energy(-40.0, {"C": 1, "H": 4}, {"C": -37.8})


def test_orbital_loader():
    lines = [
        '{"atom":"a1","occ":2.0,"energy":-1.0,"group":"C30"}',
        "",
        "# comment",
        '{"atom":"a2","occ":1.5,"energy":-0.25}',
    ]
    rows = load_orbital_lines(lines)
    assert len(rows) == 2
    atom, group, rec = rows[0]
    assert (atom, group) == ("a1", "C30")
    assert rec == OrbitalRecord(occupancy=2.0, energy=-1.0)
    assert rows[1][1] is None
    with pytest.raises(ParseError):
        load_orbital_lines(['{"atom":"a1","occ":2.0}'])
    with pytest.raises(ParseError):
        load_orbital_lines(["not a record"])


def test_reference_loader():
    refs = load_reference_lines(
        ['{"element":"C","energy":-37.8}', '{"element":"H","energy":-0.5}']
    )
    assert refs == {"C": -37.8, "H": -0.5}
    with pytest.raises(ParseError):
        load_reference_lines(['{"element":"C"}'])


# A JSON integer past the float range.
BIG = "1" + "0" * 400


@pytest.mark.parametrize("line, message", [
    ('{"element":"C","energy":"abc"}', "energy is not a number: 'abc'"),
    ('{"element":"C","energy":null}', "energy is not a number: None"),
    ('{"element":"C","energy":[1]}', "energy is not a number: [1]"),
    ('{"element":"C","energy":NaN}', "energy is not finite: nan"),
    ('{"element":"C","energy":1e999}', "energy is not finite: inf"),
    ('{"element":"C","energy":true}', "energy is not a number: True"),
    ('{"element":"C","energy":"-37.8"}', "energy is not a number: '-37.8'"),
    ('{"element":"C","energy":"nan"}', "energy is not a number: 'nan'"),
    ('{"element":"C","energy":-%s}' % BIG, f"energy is not finite: -{BIG}"),
], ids=["text", "null", "list", "nan", "overflow", "bool", "numeric-text", "nan-text",
        "big-integer"])
def test_reference_loader_refuses_non_finite_energies(line, message):
    with pytest.raises(ParseError) as exc:
        load_reference_lines(['{"element":"H","energy":-0.5}', line])
    assert str(exc.value) == f"reference line 2: {message}"


@pytest.mark.parametrize("line, message", [
    ('{"atom":"a","occ":NaN,"energy":-1.0}', "occ is not finite: nan"),
    ('{"atom":"a","occ":2.0,"energy":-Infinity}', "energy is not finite: -inf"),
    ('{"atom":"a","occ":1e999,"energy":-1.0}', "occ is not finite: inf"),
    ('{"atom":"a","occ":"two","energy":-1.0}', "occ is not a number: 'two'"),
    ('{"atom":"a","occ":2.0,"energy":null}', "energy is not a number: None"),
    ('{"atom":"a","occ":true,"energy":-1}', "occ is not a number: True"),
    ('{"atom":"a","occ":1,"energy":false}', "energy is not a number: False"),
    ('{"atom":"a","occ":"2","energy":-0.5}', "occ is not a number: '2'"),
    ('{"atom":"a","occ":2,"energy":"-0.5"}', "energy is not a number: '-0.5'"),
    ('{"atom":"a","occ":%s,"energy":-1}' % BIG, f"occ is not finite: {BIG}"),
], ids=["occ-nan", "energy-minus-inf", "occ-overflow", "occ-text", "energy-null",
        "occ-bool", "energy-bool", "occ-numeric-text", "energy-numeric-text",
        "occ-big-integer"])
def test_orbital_loader_refuses_non_finite_fields(line, message):
    with pytest.raises(ParseError) as exc:
        load_orbital_lines(["# header", line])
    assert str(exc.value) == f"orbital line 2: {message}"


def takes(load):
    try:
        load()
    except ParseError:
        return False
    return True


@pytest.mark.parametrize("value", ['"-0.5"', "true", BIG, "-" + BIG, "NaN", "2", "-0.25"])
def test_loader_fields_and_record_properties_take_the_same_numbers(value):
    orbital = f'{{"atom":"a","occ":1,"energy":{value}}}'
    reference = f'{{"element":"C","energy":{value}}}'
    record = f'{{"id":"m","elements":["C"],"bonds":[],"h":"auto","props":{{"e":{value}}}}}'
    taken = [takes(lambda: load_orbital_lines([orbital])),
             takes(lambda: load_reference_lines([reference])),
             takes(lambda: parse_record_line(record))]
    assert taken == [value in ("2", "-0.25")] * 3
