"""Linear cross-protocol alignment: fitting, applying, diagnostics."""

import math
import random
import re

import pytest

from molspace.align import (
    AlignmentModel,
    FeatureVector,
    apply,
    fit,
    load_model,
    residual_stats,
    record_features,
    save_model,
)
from molspace.coverage import accept_molecule
from molspace.errors import (
    InvalidArgument,
    MissingProperty,
    ParseError,
    RankDeficient,
    UnseenFeature,
)
from molspace.molgraph import parse_record_line

from conftest import record_line

# A pool in which every bond joins two atoms of the same level-0 code, so
# each molecule contributes exactly one level-1 code. Cyclopropane and
# cyclohexane share a code at different counts, which keeps the constant
# column outside the span of the count columns.
POOL = [
    ("methane", ["C"], []),
    ("ethane", ["C", "C"], [(1, 2, 1)]),
    ("ethene", ["C", "C"], [(1, 2, 2)]),
    ("ethyne", ["C", "C"], [(1, 2, 3)]),
    ("benzene", ["C"] * 6,
     [(1, 2, 2), (2, 3, 1), (3, 4, 2), (4, 5, 1), (5, 6, 2), (6, 1, 1)]),
    ("cyclohexane", ["C"] * 6,
     [(1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (6, 1, 1)]),
    ("cyclopropane", ["C"] * 3, [(1, 2, 1), (1, 3, 1), (2, 3, 1)]),
    ("water", ["O"], []),
    ("hf", ["F"], []),
    ("ammonia", ["N"], []),
    ("difluorine", ["F", "F"], [(1, 2, 1)]),
    ("hydrazine", ["N", "N"], [(1, 2, 1)]),
    ("peroxide", ["O", "O"], [(1, 2, 1)]),
]


def pool_table(rng, n_extra=12, target=None):
    """One accepted record per pool molecule plus replicates, with random e0.

    target maps (molecule index, e0) to e1; by default e1 is random noise.
    """
    lines = []
    serial = 0
    picks = list(range(len(POOL))) + [
        rng.randrange(len(POOL)) for _ in range(n_extra)
    ]
    for k in picks:
        mol_id, elements, bonds = POOL[k]
        e0 = rng.uniform(-50.0, 50.0)
        e1 = rng.uniform(-50.0, 50.0) if target is None else target(k, e0)
        lines.append(
            record_line(
                f"{mol_id}#{serial}", elements, bonds,
                props={"e0": e0, "e1": e1}, mol=mol_id,
            )
        )
        serial += 1
    return [accept_molecule(parse_record_line(line)) for line in lines]


def feature_pairs(records, e0_prop, mode, target_prop=None):
    """The record_features of every record."""
    return [record_features(r, e0_prop, mode, target_prop) for r in records]


def sse(model, pairs):
    return sum((apply(model, fv) - t) ** 2 for fv, t in pairs)


def test_record_features_modes():
    lines = [
        record_line("methane", ["C"], [], props={"e0": 1.0}),
        record_line("ethane", ["C", "C"], [(1, 2, 1)], props={"e0": 2.0}),
    ]
    table = [accept_molecule(parse_record_line(line)) for line in lines]
    plain = feature_pairs(table, "e0", "plain")
    assert plain[0][0] == FeatureVector(e0=1.0, counts={})
    comp = feature_pairs(table, "e0", "composition")
    assert comp[0][0].counts == {"C": 1, "H": 4}
    assert comp[1][0].counts == {"C": 2, "H": 6}
    g1 = feature_pairs(table, "e0", "gcn1")
    assert g1[1][0].counts == {"C13(C13)": 2}
    with pytest.raises(InvalidArgument):
        feature_pairs(table, "e0", "magic")
    with pytest.raises(MissingProperty):
        feature_pairs(table, "missing", "plain")
    with pytest.raises(MissingProperty):
        feature_pairs(table, "e0", "plain", "missing")


def test_fit_plain_exact_recovery():
    rng = random.Random(101)
    table = pool_table(rng, target=lambda k, e0: 2.0 * e0 + 3.0)
    pairs = feature_pairs(table, "e0", "plain", "e1")
    model = fit(pairs, "plain", ridge=0.0)
    assert model.c0 == pytest.approx(2.0, rel=1e-9)
    assert model.b0 == pytest.approx(3.0, rel=1e-9)
    assert model.mae < 1e-9
    assert apply(model, FeatureVector(e0=10.0, counts={})) == pytest.approx(23.0)


def test_fit_composition_exact_recovery():
    rng = random.Random(103)
    truth = {"C": -37.8, "H": -0.58, "N": -54.6, "O": -75.1, "F": -99.7}
    c0, b0 = 1.05, 4.2

    def target(k, e0):
        _, elements, bonds = POOL[k]
        lines = [record_line("tmp", elements, bonds, props={"e0": 0.0})]
        comp = accept_molecule(parse_record_line(lines[0])).composition()
        return c0 * e0 + sum(truth[el] * n for el, n in comp.items()) + b0

    table = pool_table(rng, target=target)
    pairs = feature_pairs(table, "e0", "composition", "e1")
    model = fit(pairs, "composition", ridge=0.0)
    assert model.c0 == pytest.approx(c0, rel=1e-6)
    assert model.b0 == pytest.approx(b0, rel=1e-6)
    for el, value in truth.items():
        assert model.coefficients[el] == pytest.approx(value, rel=1e-6)
    assert model.rmsd < 1e-7


def test_fit_gcn1_exact_recovery():
    rng = random.Random(107)
    base = pool_table(rng)
    code_pairs = feature_pairs(base, "e0", "gcn1", "e1")
    codes = sorted({k for fv, _ in code_pairs for k in fv.counts})
    truth = {code: rng.uniform(-20.0, 20.0) for code in codes}
    c0, b0 = 0.97, -2.5
    exact = [
        (fv, c0 * fv.e0 + sum(truth[k] * n for k, n in fv.counts.items()) + b0)
        for fv, _ in code_pairs
    ]
    model = fit(exact, "gcn1", ridge=0.0)
    for code, value in truth.items():
        assert model.coefficients[code] == pytest.approx(value, rel=1e-6)
    assert model.rmsd < 1e-7


def test_fit_duplicated_columns_need_ridge():
    rng = random.Random(109)
    pairs = []
    for _ in range(12):
        e0 = rng.uniform(-5.0, 5.0)
        n = rng.randint(1, 4)
        pairs.append(
            (FeatureVector(e0=e0, counts={"X": n, "Y": n}), 3.0 * e0 + n + 0.5)
        )
    # Arbitrary count keys, as gcn1 mode has them.
    with pytest.raises(RankDeficient):
        fit(pairs, "gcn1", ridge=0.0)
    model = fit(pairs, "gcn1", ridge=1e-8)
    clean = fit(
        [(FeatureVector(e0=fv.e0, counts={"X": fv.counts["X"]}), t) for fv, t in pairs],
        "gcn1",
        ridge=1e-8,
    )
    for fv, _ in pairs:
        lhs = apply(model, fv)
        rhs = apply(clean, FeatureVector(e0=fv.e0, counts={"X": fv.counts["X"]}))
        assert lhs == pytest.approx(rhs, abs=1e-5)


def test_fit_is_record_order_independent():
    rng = random.Random(113)
    table = pool_table(rng)
    pairs = feature_pairs(table, "e0", "gcn1", "e1")
    model_a = fit(pairs, "gcn1", ridge=1e-8)
    shuffled = list(pairs)
    rng.shuffle(shuffled)
    model_b = fit(shuffled, "gcn1", ridge=1e-8)
    assert model_a == model_b


def test_nesting_inequality_over_random_datasets(seed=127):
    rng = random.Random(seed)
    for _ in range(30):
        table = pool_table(rng, n_extra=16)
        sses = {}
        for mode in ("plain", "composition", "gcn1"):
            pairs = feature_pairs(table, "e0", mode, "e1")
            model = fit(pairs, mode, ridge=0.0)
            sses[mode] = sse(model, [(fv, t) for fv, t in pairs])
        slack = 1e-9 * (1.0 + sses["plain"])
        assert sses["composition"] <= sses["plain"] + slack
        assert sses["gcn1"] <= sses["composition"] + slack


def test_shift_scale_equivariance():
    rng = random.Random(131)
    table = pool_table(rng)
    pairs = feature_pairs(table, "e0", "composition", "e1")
    base = fit(pairs, "composition", ridge=0.0)
    a, b = 2.5, -7.0
    scaled = fit([(fv, a * t + b) for fv, t in pairs], "composition", ridge=0.0)
    assert scaled.c0 == pytest.approx(a * base.c0, rel=1e-9, abs=1e-9)
    assert scaled.b0 == pytest.approx(a * base.b0 + b, rel=1e-9, abs=1e-9)
    for key, value in base.coefficients.items():
        assert scaled.coefficients[key] == pytest.approx(
            a * value, rel=1e-9, abs=1e-9
        )


def test_apply_rejects_unseen_nonzero_features():
    model = AlignmentModel(
        mode="gcn1", c0=1.0, coefficients={"C04": 2.0}, b0=0.0,
        ridge=0.0, n_records=1, mae=0.0, rmsd=0.0,
    )
    assert apply(model, FeatureVector(e0=1.0, counts={"C04": 2})) == 5.0
    assert apply(model, FeatureVector(e0=1.0, counts={"X": 0})) == 1.0
    with pytest.raises(UnseenFeature):
        apply(model, FeatureVector(e0=1.0, counts={"X": 1}))


def test_residual_stats_worked_examples():
    ident = AlignmentModel(
        mode="plain", c0=1.0, coefficients={}, b0=0.0,
        ridge=0.0, n_records=2, mae=0.0, rmsd=0.0,
    )
    perfect = [(FeatureVector(e0=v, counts={}), v) for v in (1.0, -3.0, 8.0)]
    stats = residual_stats(ident, perfect)
    assert (stats.mae, stats.rmsd, stats.outliers) == (0.0, 0.0, 0)
    off = [
        (FeatureVector(e0=0.0, counts={}), -1.0),
        (FeatureVector(e0=0.0, counts={}), 1.0),
    ]
    stats = residual_stats(ident, off)
    assert stats.mae == pytest.approx(1.0)
    assert stats.rmsd == pytest.approx(1.0)
    assert stats.outliers == 0
    wild = [
        (FeatureVector(e0=0.0, counts={}), 0.0),
        (FeatureVector(e0=0.0, counts={}), -40.0),
    ]
    stats = residual_stats(ident, wild)
    assert stats.outliers == 1


def test_model_round_trips_through_text():
    rng = random.Random(137)
    table = pool_table(rng)
    pairs = feature_pairs(table, "e0", "gcn1", "e1")
    model = fit(pairs, "gcn1", ridge=1e-8)
    text = save_model(model)
    again = load_model(text)
    assert again == model
    assert save_model(again) == text
    stats = residual_stats(again, [(fv, t) for fv, t in pairs])
    assert stats.mae == pytest.approx(model.mae, rel=1e-12, abs=1e-15)
    assert stats.rmsd == pytest.approx(model.rmsd, rel=1e-12, abs=1e-15)
    with pytest.raises(ParseError):
        load_model("mode\tplain\n")
    with pytest.raises(ParseError):
        load_model("# nothing\nridge\tnot_a_number\n")
    # A malformed number or an unknown mode in a complete model text.
    for field, bad in (("c0", "abc"), ("n_records", "1.5"), ("mode", "magic")):
        broken = re.sub(rf"^{field}\t.*$", f"{field}\t{bad}", text, flags=re.M)
        assert broken != text
        with pytest.raises(ParseError):
            load_model(broken)
    with pytest.raises(ParseError):
        load_model(text + "coef\tC\tabc\n")


def test_a_fit_that_overflows_is_rank_deficient():
    # Finite energies whose squares overflow in the normal equations.
    pairs = [(FeatureVector(e0=i * 3e299, counts={}), (i + 1) * 3e299)
             for i in range(1, 4)]
    with pytest.raises(RankDeficient, match="not finite"):
        fit(pairs, "plain")


@pytest.mark.parametrize("field", ["ridge", "c0", "b0", "mae", "rmsd", "coef"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_a_model_number_that_is_not_finite_is_a_parse_error(field, value):
    model = fit([(FeatureVector(e0=1.0, counts={"C": 1}), 1.0),
                 (FeatureVector(e0=2.0, counts={"C": 2}), 2.5)], "composition")
    pattern = r"^coef\tC\t.*$" if field == "coef" else rf"^{field}\t.*$"
    replacement = f"coef\tC\t{value}" if field == "coef" else f"{field}\t{value}"
    broken = re.sub(pattern, replacement, save_model(model), flags=re.M)
    with pytest.raises(ParseError, match=f"must be finite, got '{value}'"):
        load_model(broken)


def test_fit_input_validation():
    with pytest.raises(InvalidArgument):
        fit([], "plain")
    with pytest.raises(InvalidArgument):
        fit([(FeatureVector(e0=1.0, counts={}), None)], "plain")
    with pytest.raises(InvalidArgument):
        fit([(FeatureVector(e0=1.0, counts={}), 1.0)], "plain", ridge=-1e-3)
    with pytest.raises(InvalidArgument):
        fit([(FeatureVector(e0=1.0, counts={}), 1.0)], "magic")


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_ridge_and_threshold_are_finite_and_non_negative(value):
    pairs = [(FeatureVector(e0=1.0, counts={}), 1.0),
             (FeatureVector(e0=2.0, counts={}), 2.0)]
    with pytest.raises(InvalidArgument, match="ridge must be finite"):
        fit(pairs, "plain", ridge=value)
    model = fit(pairs, "plain")
    with pytest.raises(InvalidArgument, match="threshold must be finite"):
        residual_stats(model, pairs, value)
