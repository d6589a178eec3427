"""Cut decomposition, canonical signatures, core extraction and generation."""

import hashlib
import random
import time

import pytest

from molspace.cli import main
from molspace.errors import InvalidArgument, TooLarge
from molspace.molgraph import heavy_graph, parse_record_obj, validate
from molspace.nbg import (
    DEFAULT_MODE,
    MODE_ELEMENT_ORDER,
    MODE_SKELETON,
    MODE_SKELETON_NO_ORDER,
    canonical_signature,
    cut_decomposition,
    decode_signature,
    generate_with_graphs,
    isovalent_substitutions,
    nbg0_extract,
    nbg0_generate,
    nbg_plus_class,
    scaffold,
    serialize_topologies,
    topology_of,
)

from conftest import (
    SYMMETRIC_GRAPHS,
    benzene,
    benzoic_acid,
    biphenyl,
    brute_isomorphic,
    build,
    cyclohexane,
    ethane,
    hexa_tert_butyl_ethane,
    k33_graph,
    methane,
    n_hexane,
    oracle_cuts,
    permute_graph,
    phenylethyl_pyridine,
    prism_graph,
    propane,
    random_connected_graph,
    random_labeled_graph,
    random_molecule_record,
    toluene,
)


def extract(g, mode=DEFAULT_MODE):
    return nbg0_extract(g, cut_decomposition(g).bridges, mode)

def test_cut_decomposition_worked_molecules():
    acid = cut_decomposition(benzoic_acid())
    assert len(acid.cut_vertices) == 2
    assert len(acid.bridges) == 3
    pep = cut_decomposition(phenylethyl_pyridine())
    assert len(pep.cut_vertices) == 3
    assert len(pep.bridges) == 3
    tol = cut_decomposition(toluene())
    assert len(tol.cut_vertices) == 1
    assert len(tol.bridges) == 1


def test_cut_decomposition_small_cases():
    assert cut_decomposition(methane()) == cut_decomposition(methane())
    d = cut_decomposition(methane())
    assert d.cut_vertices == frozenset()
    assert d.bridges == frozenset()
    d = cut_decomposition(ethane())
    assert d.cut_vertices == frozenset()
    assert d.bridges == frozenset({(0, 1)})
    d = cut_decomposition(propane())
    assert d.cut_vertices == frozenset({1})
    assert d.bridges == frozenset({(0, 1), (1, 2)})
    d = cut_decomposition(benzene())
    assert d.cut_vertices == frozenset()
    assert d.bridges == frozenset()


def test_cut_decomposition_agrees_with_removal_oracle(seed=23):
    rng = random.Random(seed)
    for _ in range(250):
        n, edges = random_connected_graph(rng)
        g = build(["C"] * n, [(a + 1, b + 1, 1) for a, b in edges], h=[0] * n)
        got = cut_decomposition(g)
        want_cv, want_br = oracle_cuts(n, edges)
        assert got.cut_vertices == frozenset(want_cv)
        assert got.bridges == frozenset(want_br)


def test_nbg_plus_class_levels():
    cls = nbg_plus_class(cut_decomposition(benzoic_acid()))
    assert (cls.cut_vertex_count, cls.bridge_count, cls.level) == (2, 3, 3)
    assert cls.within_plus
    cls = nbg_plus_class(cut_decomposition(phenylethyl_pyridine()))
    assert (cls.cut_vertex_count, cls.bridge_count, cls.level) == (3, 3, 3)
    assert cls.within_plus
    cls = nbg_plus_class(cut_decomposition(benzene()))
    assert cls.level == 0
    assert cls.within_plus
    cls = nbg_plus_class(cut_decomposition(n_hexane()))
    assert cls.level == 5
    assert not cls.within_plus


def test_signature_invariant_under_relabeling(seed=31):
    rng = random.Random(seed)
    for _ in range(120):
        labels, edges = random_labeled_graph(rng)
        base = canonical_signature(labels, edges)
        for _ in range(5):
            p_labels, p_edges = permute_graph(rng, labels, edges)
            assert canonical_signature(p_labels, p_edges) == base


def test_signature_separates_non_isomorphic_pairs(seed=37):
    rng = random.Random(seed)
    checked = 0
    while checked < 60:
        la, ea = random_labeled_graph(rng, max_n=6)
        lb, eb = random_labeled_graph(rng, max_n=6)
        same_sig = canonical_signature(la, ea) == canonical_signature(lb, eb)
        assert same_sig == brute_isomorphic(la, ea, lb, eb)
        checked += 1


def test_signature_separates_k33_from_prism():
    assert canonical_signature(*k33_graph()) != canonical_signature(*prism_graph())


# Computed by the canonicalizer before it pruned by automorphisms, which
# must leave every signature byte-identical. Each graph is canonicalized
# under the relabelling drawn by random.Random(its position, from 1).
FROZEN_SIGNATURES = {
    "tetra-tert-butylmethane": "C,C,C,C,C,C,C,C,C,C,C,C,C,C,C,C,C|"
    "00000000000100000000000000100000000000001000000000000010000000000010"
    "00000000010000000000100000000100000001000000010000010000100001001011",
    "tri-tert-butylmethane": "C,C,C,C,C,C,C,C,C,C,C,C,C|"
    "00000000010000000000100000000010000000001000000010000001000000100001"
    "0001111000",
    "neopentane": "C,C,C,C,C|0001001011",
    "cubane": "C,C,C,C,C,C,C,C|1110000001100010100110001011",
    "adamantane": "C,C,C,C,C,C,C,C,C,C|"
    "000001100000010100001001000110001010011000000",
    "dodecahedrane": "C,C,C,C,C,C,C,C,C,C,C,C,C,C,C,C,C,C,C,C|"
    "11100000000000000000010100000000000000010100000000000000001100000000"
    "00100001000000000000001000000000100010000000010001000000000001000000"
    "000010000010001000010010000000100000010101000010001011",
    "petersen": "C,C,C,C,C,C,C,C,C,C|"
    "110000010010010000100100010100110000010001011",
    "k33": "C,C,C,C,C,C|011101110001011",
    "prism": "C,C,C,C,C,C|111001010001111",
}
# sha256 of the output of `molspace generate-nbg0 --max-heavy 7` (951 lines).
FROZEN_GENERATE_7_SHA256 = (
    "e5eb1e1d3251b6140c1cbe9ad7579eddd9c431e97ed83877ea1de9c1871ea718"
)


def test_signatures_of_symmetric_graphs_are_frozen():
    for seed, (name, (labels, edges)) in enumerate(
        SYMMETRIC_GRAPHS.items(), start=1
    ):
        p_labels, p_edges = permute_graph(random.Random(seed), labels, edges)
        assert canonical_signature(p_labels, p_edges) == FROZEN_SIGNATURES[name], name


def test_generate_nbg0_output_is_frozen(capsys):
    assert main(["generate-nbg0", "--max-heavy", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FROZEN_GENERATE_7_SHA256


def test_hexa_tert_butylethane_is_fast_and_invariant():
    labels, edges = hexa_tert_butyl_ethane()
    base = canonical_signature(labels, edges)
    rng = random.Random(71)
    for _ in range(20):
        p_labels, p_edges = permute_graph(rng, labels, edges)
        t0 = time.perf_counter()
        assert canonical_signature(p_labels, p_edges) == base
        assert time.perf_counter() - t0 < 1.0


def test_signature_round_trips_through_decode(seed=41):
    rng = random.Random(seed)
    for _ in range(100):
        labels, edges = random_labeled_graph(rng)
        sig = canonical_signature(labels, edges)
        dec_labels, dec_edges = decode_signature(sig)
        assert canonical_signature(dec_labels, dec_edges) == sig


def test_signature_input_validation():
    with pytest.raises(TooLarge):
        canonical_signature(("C",) * 33, [])
    with pytest.raises(InvalidArgument):
        canonical_signature(("C|",), [])
    with pytest.raises(InvalidArgument):
        canonical_signature(("C", "C"), [(0, 1, 0)])
    assert canonical_signature((), []) == "|"


def test_extract_benzene_core_modes():
    assert len(extract(benzene(), MODE_SKELETON)) == 1
    ring = extract(benzene(), MODE_SKELETON)[0]
    assert ring.na == 6
    with_orders = extract(benzene(), MODE_ELEMENT_ORDER)[0]
    no_orders = extract(benzene(), MODE_SKELETON_NO_ORDER)[0]
    assert with_orders.signature == ring.signature
    assert no_orders.signature != ring.signature
    assert (
        extract(cyclohexane(), MODE_SKELETON_NO_ORDER)[0].signature
        == no_orders.signature
    )


def test_extract_keeps_multiplicity():
    cores = extract(biphenyl(), MODE_SKELETON)
    assert len(cores) == 2
    assert cores[0].signature == cores[1].signature
    assert extract(toluene(), MODE_SKELETON)[0].na == 6
    assert extract(n_hexane()) == []
    assert extract(methane()) == []


def test_extract_heteroatom_ring_distinguished_only_by_element_mode():
    pyridine = build(
        ["N"] + ["C"] * 5,
        [(1, 2, 2), (2, 3, 1), (3, 4, 2), (4, 5, 1), (5, 6, 2), (6, 1, 1)],
    )
    benz = benzene()
    assert (
        extract(pyridine, MODE_SKELETON)[0].signature
        == extract(benz, MODE_SKELETON)[0].signature
    )
    assert (
        extract(pyridine, MODE_ELEMENT_ORDER)[0].signature
        != extract(benz, MODE_ELEMENT_ORDER)[0].signature
    )


def test_scaffold_examples():
    assert scaffold(n_hexane()) is None
    assert scaffold(methane()) is None
    ring = scaffold(toluene(), MODE_SKELETON)
    assert ring is not None
    assert ring.signature == extract(benzene(), MODE_SKELETON)[0].signature
    bip = scaffold(biphenyl(), MODE_SKELETON)
    assert bip is not None and bip.na == 12


def test_scaffold_idempotent_on_random_molecules(seed=43):
    rng = random.Random(seed)
    for idx in range(200):
        g = heavy_graph(parse_record_obj(random_molecule_record(rng, idx, max_heavy=14)))
        sc = scaffold(g)
        if sc is None:
            d = cut_decomposition(g)
            assert len(d.bridges) == len(g.bonds)
            continue
        labels, edges = decode_signature(sc.signature)
        again = topology_of(labels, edges, MODE_ELEMENT_ORDER)
        assert again.signature == sc.signature


def test_generator_smallest_universe():
    got = {t.signature for t in nbg0_generate(3)}
    triangle = lambda a, b, c: canonical_signature(
        ("C", "C", "C"), [(0, 1, a), (0, 2, b), (1, 2, c)]
    )
    want = {
        triangle(1, 1, 1),
        triangle(2, 1, 1),
        triangle(2, 2, 1),
        triangle(2, 2, 2),
        triangle(3, 1, 1),
    }
    assert got == want
    assert len(got) == 5


def test_generator_range_checks():
    with pytest.raises(InvalidArgument):
        nbg0_generate(2)
    with pytest.raises(InvalidArgument):
        nbg0_generate(14)


def test_generator_outputs_nest_by_max_heavy():
    small = {t.signature for t in nbg0_generate(3)}
    mid = {t.signature for t in nbg0_generate(4)}
    large = {t.signature for t in nbg0_generate(5)}
    assert small < mid < large


def test_generator_outputs_are_bridgeless_and_valence_feasible():
    for topo, graph in generate_with_graphs(6):
        assert validate(graph) == []
        d = cut_decomposition(graph)
        assert d.bridges == frozenset()
        assert d.cut_vertices == frozenset() or topo.na >= 5
        assert 3 <= topo.na <= 6


def test_generator_serialization_is_deterministic():
    a = serialize_topologies(nbg0_generate(5), {"max_heavy": 5})
    b = serialize_topologies(nbg0_generate(5), {"max_heavy": 5})
    assert a == b
    assert a.startswith("# max_heavy=5\n")
    body = [ln for ln in a.splitlines() if not ln.startswith("#")]
    assert body == sorted(body)


def test_isovalent_substitutions_on_triangles():
    plain = topology_of(("C", "C", "C"), [(0, 1, 1), (0, 2, 1), (1, 2, 1)])
    subs = isovalent_substitutions(plain, {"O"})
    assert len(subs) == 4
    assert plain in subs
    stiff = topology_of(("C", "C", "C"), [(0, 1, 2), (0, 2, 2), (1, 2, 2)])
    assert isovalent_substitutions(stiff, {"O"}) == {stiff}
    both = isovalent_substitutions(plain, {"N", "O"})
    assert len(both) == 10
    with pytest.raises(InvalidArgument):
        isovalent_substitutions(plain, {"F"})
