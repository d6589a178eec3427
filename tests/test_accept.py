"""One accept rule for every record command, and one pass of each
per-record feature function per record."""

import json
import random
import subprocess
import sys
import time
from collections import Counter
from functools import partial

import pytest

from molspace import cli, gcn, nbg
from molspace.cli import main
from molspace.coverage import (
    coverage_features,
    coverage_report,
    ingest,
)
from molspace.molgraph import heavy_graph, parse_record_line

from conftest import (
    child_env,
    hexa_tert_butyl_ethane,
    random_molecule,
    record_line,
    tert_butyl_methane,
)

C2_TRIPLE = ["C", "C"], [(1, 2, 3)]

# (id shown on the reject line or None for an accepted record, line text)
NAMED_RECORDS = [
    (None, "# named records: four accepted, eleven rejected"),
    (None, record_line("methane", ["C"], [], props={"e": -40.0})),
    (None, record_line("dup", ["C"] * 3, [(1, 2, 1), (2, 3, 1)])),
    ("overvalent", record_line("overvalent", *C2_TRIPLE, h=[3, 3])),
    ("c03", record_line("c03", ["C"], [], h=[3])),
    (None, ""),
    (None, record_line("ethane", ["C", "C"], [(1, 2, 1)], props={"e": -79.0})),
    ("dup", record_line("dup", ["O"], [])),
    ("strprop", record_line("strprop", ["C"], [], props={"e": "low"})),
    ("nanprop", record_line("nanprop", ["C"], [], props={"e": float("nan")})),
    ("c33", record_line("c33", ["C"] * 33, [(i, i + 1, 1) for i in range(1, 33)])),
    ("ring34", record_line(
        "ring34", ["C"] * 34, [(i, i % 34 + 1, 1) for i in range(1, 35)])),
    ("fragment", record_line("fragment", ["C", "C"], [])),
    ("order4", record_line("order4", ["C", "C"], [(1, 2, 4)])),
    ("?", '{"id": "truncated", "elements": ["C"], "bo'),
    (None, record_line("benzene", ["C"] * 6, [
        (1, 2, 2), (2, 3, 1), (3, 4, 2), (4, 5, 1), (5, 6, 2), (6, 1, 1)])),
]
ACCEPTED = ["methane", "dup", "ethane", "benzene"]
EXPECTED_REJECTS = [
    (line_no, shown)
    for line_no, (shown, _) in enumerate(NAMED_RECORDS, start=1)
    if shown is not None
]


def body(path):
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


def json_body(path):
    return json.loads(body(path)[0])


# command -> (argv after the input paths are filled in, check of the output)
COMMANDS = {
    "encode": (["encode", "--input", "{bad}"],
               lambda out: [json.loads(ln)["id"] for ln in body(out)] == ACCEPTED),
    "encode-w2": (["encode", "--input", "{bad}", "--workers", "2"],
                  lambda out: [json.loads(ln)["id"] for ln in body(out)] == ACCEPTED),
    "cutset": (["cutset", "--input", "{bad}"],
               lambda out: [ln.split("\t")[0] for ln in body(out)] == ACCEPTED),
    "coverage": (["coverage", "--input", "{bad}"],
                 lambda out: json_body(out)["conformation_count"] == len(ACCEPTED)),
    "compare": (["compare", "{bad}", "{good}", "--feature", "nbg_plus"],
                lambda out: body(out)[0] == "region\tcount"),
    "kl": (["kl", "{bad}", "{good}", "--feature", "nbg_plus"],
           lambda out: body(out)[0] == "name\tbad\tgood"),
    "subset": (["subset", "--input", "{bad}"],
               lambda out: body(out) == sorted(ACCEPTED)),
    "hist": (["hist", "--input", "{bad}", "--property", "e", "--bins", "4"],
             lambda out: f"used=2 skipped={len(ACCEPTED) - 2}" in out.read_text()),
    "complement": (["complement", "--train", "{empty}", "--eval", "{bad}"],
                   lambda out: body(out) == sorted(ACCEPTED)),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_record_command_gives_the_same_verdicts(command, tmp_path, capsys):
    paths = {
        "bad": tmp_path / "bad.jsonl",
        "good": tmp_path / "good.jsonl",
        "empty": tmp_path / "empty.jsonl",
    }
    paths["bad"].write_text("\n".join(text for _, text in NAMED_RECORDS) + "\n")
    paths["good"].write_text(record_line("water", ["O"], []) + "\n")
    paths["empty"].write_text("# no records\n")
    out, rejects = tmp_path / "out.txt", tmp_path / "rejects.txt"
    argv, check = COMMANDS[command]
    argv = [arg.format(**paths) for arg in argv]

    code = main(argv + ["--out", str(out), "--rejects", str(rejects)])

    assert code == 1
    assert check(out)
    shown = []
    for line in rejects.read_text().splitlines():
        words = line.split(" ")
        assert words[0] == "line" and words[2].startswith("id=")
        shown.append((int(words[1]), words[2][len("id="):]))
    assert shown == EXPECTED_REJECTS
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("value", [
    "NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="int-1e400")])
def test_hist_rejects_non_finite_property(value, tmp_path, capsys):
    path = tmp_path / "in.jsonl"
    path.write_text(
        record_line("ok", ["C"], [], props={"x": 1.0}) + "\n"
        + f'{{"id": "odd", "elements": ["C"], "bonds": [], "h": "auto", '
        f'"props": {{"x": {value}}}}}\n'
    )
    code = main(["hist", "--input", str(path), "--property", "x", "--bins", "4"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "# used=1 skipped=0" in out
    assert "line 2 id=odd ParseError: property 'x' is not a finite number" in err


@pytest.mark.parametrize("command", ["encode", "cutset"])
def test_reject_lines_carry_the_parsed_id(command, tmp_path, capsys):
    path = tmp_path / "in.jsonl"
    path.write_text(record_line("overvalent", *C2_TRIPLE, h=[3, 3]) + "\n")
    code = main([command, "--input", str(path)])
    out, err = capsys.readouterr()
    assert code == 1
    assert [ln for ln in out.splitlines() if not ln.startswith("#")] == []
    assert err.startswith("line 1 id=overvalent ParseError: atom 1 (C)")


ETHYNE_WITH_SIX_H = "\n".join(
    ["ethyne6h", "  test", "",
     "  8  7  0  0  0  0  0  0  0  0999 V2000"]
    + ["    0.0000    0.0000    0.0000 C   0  0  0  0  0  0  0  0  0  0  0  0"] * 2
    + ["    0.0000    0.0000    0.0000 H   0  0  0  0  0  0  0  0  0  0  0  0"] * 6
    + ["  1  2  3  0  0  0  0"]
    + [f"  {c}  {h}  1  0  0  0  0" for c, h in
       [(1, 3), (1, 4), (1, 5), (2, 6), (2, 7), (2, 8)]]
    + ["M  END", ""]
)


@pytest.mark.parametrize("command", ["encode", "cutset"])
def test_molfile_goes_through_validation(command, tmp_path, capsys):
    path = tmp_path / "ethyne6h.mol"
    path.write_text(ETHYNE_WITH_SIX_H)
    code = main([command, "--input", str(path), "--input-format", "molfile"])
    out, err = capsys.readouterr()
    assert code == 1
    assert [ln for ln in out.splitlines() if not ln.startswith("#")] == []
    assert err.startswith(
        "line 1 id=ethyne6h ParseError: atom 1 (C): bond order sum plus "
        "hydrogens is 6"
    )


TWO_METHANES_MOLFILE = "\n".join(
    ["two methanes", "  test", "",
     "  2  0  0  0  0  0  0  0  0  0999 V2000"]
    + ["    0.0000    0.0000    0.0000 C   0  0  0  0  0  0  0  0  0  0  0  0"] * 2
    + ["M  END", ""]
)


@pytest.mark.parametrize("input_format, text, reason", [
    ("records", record_line("pair", ["C", "O"], []) + "\n",
     "line 1 id=pair ParseError: record describes more than one fragment"),
    ("molfile", TWO_METHANES_MOLFILE,
     "line 1 id=two methanes ParseError: molfile describes more than one fragment"),
], ids=["records", "molfile"])
def test_two_fragments_are_rejected_by_the_parser(
    input_format, text, reason, tmp_path, capsys
):
    path = tmp_path / "in.txt"
    path.write_text(text)
    code = main(
        ["encode", "--input", str(path), "--input-format", input_format]
    )
    assert code == 1
    assert capsys.readouterr().err.startswith(reason + "\n")


def skeleton_line(rec_id, skeleton):
    labels, edges = skeleton
    return record_line(rec_id, labels, [(a + 1, b + 1, c) for a, b, c in edges])


@pytest.mark.parametrize("argv", [
    ["kl", "{a}", "{b}", "--feature", "nbg_plus"],
    ["compare", "{a}", "{b}", "--feature", "nbg_plus"],
    ["complement", "--train", "{b}", "--eval", "{a}", "--feature", "nbg_plus"],
], ids=["kl", "compare", "complement"])
def test_highly_symmetric_molecules_finish_quickly(argv, tmp_path, capsys):
    a, b, out = tmp_path / "a.jsonl", tmp_path / "b.jsonl", tmp_path / "out.txt"
    a.write_text(
        skeleton_line("hexa-tBu-ethane", hexa_tert_butyl_ethane()) + "\n"
        + skeleton_line("tetra-tBu-methane", tert_butyl_methane(4)) + "\n"
    )
    b.write_text(
        record_line("methane", ["C"], []) + "\n"
        + skeleton_line("tri-tBu-methane", tert_butyl_methane(3)) + "\n"
    )
    t0 = time.perf_counter()
    code = main([arg.format(a=a, b=b) for arg in argv] + ["--out", str(out)])
    assert time.perf_counter() - t0 < 3.0
    assert code == 0
    assert capsys.readouterr().err == ""
    if argv[0] == "complement":
        assert body(out) == ["hexa-tBu-ethane", "tetra-tBu-methane"]


# The per-record feature functions; each runs at most once per record,
# and nbg.scaffold only for a record with two or more cores.
PER_RECORD_CALLS = [
    (gcn, "atom_codes"),
    (nbg, "cut_decomposition"),
    (nbg, "nbg0_extract"),
    (nbg, "scaffold"),
]


@pytest.fixture
def count_per_record_calls(monkeypatch):
    calls = Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for module, name in PER_RECORD_CALLS:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def once_each(records, multi_core):
    calls = {name: len(records) for _, name in PER_RECORD_CALLS}
    calls["scaffold"] = multi_core
    return calls


RING_RECORDS = [
    record_line("biphenyl", ["C"] * 12, [
        (1, 2, 2), (2, 3, 1), (3, 4, 2), (4, 5, 1), (5, 6, 2), (6, 1, 1),
        (7, 8, 2), (8, 9, 1), (9, 10, 2), (10, 11, 1), (11, 12, 2), (12, 7, 1),
        (1, 7, 1)]),
    record_line("propanol", ["C", "C", "C", "O"], [(1, 2, 1), (2, 3, 1), (3, 4, 1)]),
    record_line("cyclopropane", ["C"] * 3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)]),
]


def test_coverage_decomposes_each_record_once(count_per_record_calls):
    (features,), rejects = ingest(["\n".join(RING_RECORDS)], coverage_features, [list])
    assert rejects == []
    report = coverage_report(features, "t")
    assert report["nbg0_types"] == {
        "element-order": 2, "skeleton": 2, "skeleton-no-order": 2}
    # Only biphenyl has two cores.
    assert count_per_record_calls == once_each(RING_RECORDS, 1)


def test_encode_decomposes_each_record_once(count_per_record_calls):
    (lines,), rejects = ingest(
        ["\n".join(RING_RECORDS)], partial(cli._encode_record, mode="skeleton"), [list])
    assert rejects == [] and len(lines) == len(RING_RECORDS)
    assert count_per_record_calls == once_each(RING_RECORDS, 1)


# Lines that the JSON reader, a message or an output encoder cannot take,
# each with the reject line it gives; the records around it are kept.
MALFORMED_LINES = {
    "deep-nesting": (
        "[" * 200_000,
        "id=? ParseError: record line is not valid structured text: "
        "nesting is too deep to read"),
    "huge-integer": (
        '{"id": "big", "elements": ["C"], "bonds": [], "h": "auto", '
        '"props": {"x": ' + "1" * 5000 + "}}",
        "id=? ParseError: record line is not valid structured text: "
        f"an integer has more than {sys.get_int_max_str_digits()} digits"),
    "huge-hydrogen-count": (
        '{"id": "hbig", "elements": ["C", "C"], "bonds": [[1, 2, 1]], '
        '"h": [' + "9" * 4300 + ", 3]}",
        "id=hbig ParseError: hydrogen count for atom 1 is out of range"),
    "lone-surrogate-id": (
        '{"id": "\\ud800x", "elements": ["C"], "bonds": [], "h": "auto"}',
        "id=\\ud800x ParseError: field 'id' is not encodable as UTF-8"),
    "lone-surrogate-mol": (
        '{"id": "m", "mol": "\\udfff", "elements": ["C"], "bonds": [], '
        '"h": "auto"}',
        "id=m ParseError: field 'mol' is not encodable as UTF-8"),
    "line-break-id": (
        '{"id": "x\\ny", "elements": ["C"], "bonds": [], "h": "auto"}',
        "id=? ParseError: field 'id' holds a tab or a line break"),
    "tab-id": (
        '{"id": "p\\tq", "elements": ["C"], "bonds": [], "h": "auto"}',
        "id=? ParseError: field 'id' holds a tab or a line break"),
}
GOOD_IDS = ["ok1", "ok2", "ok3"]

# command -> (argv without the paths, check that the good records are kept)
FAULT_COMMANDS = {
    "encode": (["encode"],
               lambda out: [json.loads(ln)["id"] for ln in body(out)] == GOOD_IDS),
    "encode-w2": (["encode", "--workers", "2"],
                  lambda out: [json.loads(ln)["id"] for ln in body(out)] == GOOD_IDS),
    "cutset": (["cutset"],
               lambda out: [ln.split("\t")[0] for ln in body(out)] == GOOD_IDS),
    "coverage": (["coverage"],
                 lambda out: json_body(out)["conformation_count"] == len(GOOD_IDS)),
}


def fault_file(tmp_path, names):
    """Write ok1, the first named fault, ok2, the second, ok3; return the
    path and the two expected reject lines."""
    bad = [MALFORMED_LINES[name] for name in names]
    good = [record_line(rec_id, ["C", "C", "O"], [(1, 2, 1), (2, 3, 1)])
            for rec_id in GOOD_IDS]
    lines = [good[0], bad[0][0], good[1], bad[-1][0], good[2]]
    path = tmp_path / "in.jsonl"
    path.write_text("\n".join(lines) + "\n")
    rejects = [f"line 2 {bad[0][1]}", f"line 4 {bad[-1][1]}"]
    return path, rejects


@pytest.mark.parametrize("command", sorted(FAULT_COMMANDS))
@pytest.mark.parametrize("names", [
    ("deep-nesting", "huge-integer"),
    ("huge-hydrogen-count", "huge-hydrogen-count"),
    ("lone-surrogate-id", "lone-surrogate-mol"),
], ids=["deep-or-huge-integer", "huge-hydrogen-count", "lone-surrogate"])
def test_a_malformed_line_is_one_reject_line(names, command, tmp_path, capsys):
    path, expected = fault_file(tmp_path, names)
    out, rejects = tmp_path / "out.txt", tmp_path / "rejects.txt"
    argv, check = FAULT_COMMANDS[command]

    code = main(argv + ["--input", str(path), "--out", str(out),
                        "--rejects", str(rejects)])

    assert code == 1
    assert check(out)
    assert rejects.read_text(encoding="utf-8").splitlines() == expected
    assert capsys.readouterr().err == "2 record(s) rejected\n"


@pytest.mark.parametrize("argv, check", [
    (["subset"], lambda out: body(out) == GOOD_IDS),
    FAULT_COMMANDS["cutset"],
], ids=["subset", "cutset"])
def test_an_id_with_a_tab_or_a_line_break_is_one_reject_line(
    argv, check, tmp_path, capsys
):
    # Such an id would split its output line or add a column.
    path, expected = fault_file(tmp_path, ("line-break-id", "tab-id"))
    out, rejects = tmp_path / "out.txt", tmp_path / "rejects.txt"

    code = main(argv + ["--input", str(path), "--out", str(out),
                        "--rejects", str(rejects)])

    assert code == 1
    assert check(out)
    assert rejects.read_text(encoding="utf-8").splitlines() == expected
    assert capsys.readouterr().err == "2 record(s) rejected\n"


def body_lines(data):
    return [ln for ln in data.decode("utf-8").splitlines() if not ln.startswith("#")]


def test_a_lone_surrogate_id_is_escaped_on_stderr(tmp_path):
    path, expected = fault_file(tmp_path, ("lone-surrogate-id", "lone-surrogate-mol"))
    run = subprocess.run(
        [sys.executable, "-m", "molspace", "cutset", "--input", str(path)],
        capture_output=True, env=child_env(), check=False,
    )
    assert run.returncode == 1
    assert [ln.split("\t")[0] for ln in body_lines(run.stdout)] == GOOD_IDS
    assert run.stderr.decode("utf-8").splitlines() == expected + [
        "2 record(s) rejected"]


@pytest.mark.parametrize("command", sorted(FAULT_COMMANDS))
def test_invalid_utf8_input_is_one_error_line(command, tmp_path, capsys):
    good = record_line("ok1", ["C"], []).encode("utf-8")
    path = tmp_path / "in.jsonl"
    path.write_bytes(good + b"\n" + b'{"id": "\xff"}\n' + good + b"\n")
    argv, _ = FAULT_COMMANDS[command]

    code = main(argv + ["--input", str(path), "--out", str(tmp_path / "out.txt")])

    assert code == 1
    offset = len(good) + 1 + len('{"id": "')
    assert capsys.readouterr().err == (
        f"error: ParseError: {path} is not valid UTF-8 "
        f"(byte 0xff at offset {offset})\n"
    )


def ring_chain_ring(rng):
    """Two rings joined by a chain: two cores, and a scaffold that is
    neither of them."""
    a, b, chain = rng.randint(3, 6), rng.randint(3, 6), rng.randint(0, 3)
    n = a + b + chain
    bonds = [(i, i % a + 1, 1) for i in range(1, a + 1)]
    bonds += [(a + i, a + i % b + 1, 1) for i in range(1, b + 1)]
    path = [1] + list(range(a + b + 1, n + 1)) + [a + 1]
    bonds += list(zip(path, path[1:], [1] * (len(path) - 1)))
    return ["C"] * n, bonds


def scaffold_oracle_records():
    rng = random.Random(14)
    lines = []
    for k in range(120):
        elements, bonds = random_molecule(rng, max_heavy=16, ring_chance=0.9)
        lines.append(record_line(f"r{k}", elements, bonds))
    for k in range(30):
        lines.append(record_line(f"rcr{k}", *ring_chain_ring(rng)))
    lines.append(record_line("spiro", ["C"] * 5, [
        (1, 2, 1), (2, 3, 1), (3, 1, 1), (1, 4, 1), (4, 5, 1), (5, 1, 1)]))
    return lines


@pytest.mark.parametrize("mode", nbg.MODES)
def test_encode_scaffold_equals_the_scaffold_signature(mode, tmp_path):
    lines = scaffold_oracle_records()
    path, out = tmp_path / "in.jsonl", tmp_path / "out.txt"
    path.write_text("\n".join(lines) + "\n")

    assert main(["encode", "--input", str(path), "--mode", mode,
                 "--out", str(out)]) == 0

    shapes = Counter()
    for line, row in zip(lines, body(out)):
        g = heavy_graph(parse_record_line(line))
        sc = nbg.scaffold(g)
        expected = None if sc is None else nbg.topology_of(*sc, mode)
        assert json.loads(row)["scaffold"] == expected, line
        cores = nbg.nbg0_extract(g, nbg.cut_decomposition(g).bridges)
        shapes["acyclic" if sc is None
               else "one core" if sc == cores[0] else "more"] += 1
    # Both the reused signature and the canonicalized scaffold are tried.
    assert shapes["one core"] >= 20 and shapes["more"] >= 30


def test_coverage_scaffold_types_equal_the_scaffold_signatures():
    lines = scaffold_oracle_records()
    scaffolds = [nbg.scaffold(heavy_graph(parse_record_line(line))) for line in lines]
    expected = {nbg.topology_of(*sc) for sc in scaffolds if sc is not None}
    (features,), rejects = ingest(["\n".join(lines)], coverage_features, [list])
    assert rejects == []
    assert coverage_report(features, "t")["scaffold_types"] == len(expected)
