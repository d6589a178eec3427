"""Command line behavior: formats, determinism, exit codes."""

import json
import math

import pytest

from molspace.cli import main

from conftest import WATER_MOLFILE, record_line

BENZOIC = record_line(
    "benzoic",
    ["C"] * 7 + ["O", "O"],
    [(1, 2, 2), (2, 3, 1), (3, 4, 2), (4, 5, 1), (5, 6, 2), (6, 1, 1),
     (1, 7, 1), (7, 8, 2), (7, 9, 1)],
)
METHANE = record_line("methane", ["C"], [], props={"e0": -40.5, "e1": -40.2})
ETHANE = record_line(
    "ethane", ["C", "C"], [(1, 2, 1)], props={"e0": -79.8, "e1": -79.1}
)
WATER = record_line("water", ["O"], [], props={"e0": -76.4, "e1": -76.0})


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def body_lines(text):
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


def write(tmp_path, name, *lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("molspace ")


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_enumerate_gcn0_plain_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "gcn0")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 30
    assert not any(ln.startswith("#") for ln in lines)
    assert lines == sorted(lines, reverse=True)


def test_enumerate_gcn1_subset(capsys):
    code, out, _ = run(capsys, "enumerate", "gcn1", "--elements", "OF")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 24
    assert lines == sorted(lines, reverse=True)


def test_count_gcn2_prints_bare_integer(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate", "gcn1", "--elements", "OF")
    listing = write(tmp_path, "gcn1.txt", *out.splitlines())
    code, out, _ = run(capsys, "count-gcn2", "--gcn1-list", listing)
    assert code == 0
    assert out == "51\n"


def test_generate_nbg0_header_and_sorted_body(capsys):
    code, out, _ = run(capsys, "generate-nbg0", "--max-heavy", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# generator=nbg0 max_heavy=3 mode=skeleton"
    body = lines[1:]
    assert len(body) == 5
    assert body == sorted(body)


def test_generate_nbg0_bad_range_is_usage_error(capsys):
    code, _, err = run(capsys, "generate-nbg0", "--max-heavy", "99")
    assert code == 2
    assert "usage error" in err


def test_cutset_worked_example(capsys, tmp_path):
    data = write(tmp_path, "in.jsonl", BENZOIC)
    code, out, _ = run(capsys, "cutset", "--input", data)
    assert code == 0
    assert body_lines(out) == ["benzoic\tvc=2 ec=3 level=3"]


def test_encode_emits_headers_and_payload(capsys, tmp_path):
    data = write(tmp_path, "in.jsonl", METHANE, ETHANE)
    code, out, _ = run(capsys, "encode", "--input", data)
    assert code == 0
    headers = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert headers[0].startswith("# molspace ")
    assert any(ln.startswith("# config ") for ln in headers)
    assert any("sha256=" in ln for ln in headers)
    payload = [json.loads(ln) for ln in body_lines(out)]
    assert [p["id"] for p in payload] == ["methane", "ethane"]
    assert payload[0]["gcn0"] == ["C04"]
    assert payload[1]["gcn2"] == ["C13[C13(C13)]", "C13[C13(C13)]"]
    assert payload[1]["nbg_level"] == 1


def test_encode_molfile_input(capsys, tmp_path):
    path = tmp_path / "water.mol"
    path.write_text(WATER_MOLFILE, encoding="utf-8")
    code, out, _ = run(
        capsys, "encode", "--input", str(path), "--input-format", "molfile"
    )
    assert code == 0
    payload = json.loads(body_lines(out)[0])
    assert payload["id"] == "water"
    assert payload["gcn0"] == ["O02"]


def test_encode_rejects_exit_one_and_reject_file(capsys, tmp_path):
    bad = record_line("bad", ["C"], [], h=[9])
    data = write(tmp_path, "in.jsonl", METHANE, bad)
    rejects = tmp_path / "rejects.txt"
    code, out, _ = run(
        capsys, "encode", "--input", data, "--rejects", str(rejects)
    )
    assert code == 1
    assert [json.loads(ln)["id"] for ln in body_lines(out)] == ["methane"]
    content = rejects.read_text(encoding="utf-8")
    assert "line 2" in content and "above the cap" in content


def test_encode_byte_determinism_and_worker_independence(tmp_path, capsys):
    lines = [
        record_line(f"m{i}", ["C", "C", "O"], [(1, 2, 1), (2, 3, 1)])
        for i in range(40)
    ]
    data = write(tmp_path, "in.jsonl", *lines)
    out1 = tmp_path / "w1.txt"
    out2 = tmp_path / "w2.txt"
    assert main(["encode", "--input", data, "--out", str(out1), "--workers", "1"]) == 0
    assert main(["encode", "--input", data, "--out", str(out2), "--workers", "3"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert main(["encode", "--input", data, "--out", str(out2), "--workers", "1"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    capsys.readouterr()


def test_config_file_supplies_defaults_and_flags_win(capsys, tmp_path):
    data = write(tmp_path, "in.jsonl", BENZOIC)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mode": "element-order", "input": data}))
    code, out, _ = run(capsys, "encode", "--config", str(cfg))
    assert code == 0
    assert '"mode": "element-order"' in out
    code, out, _ = run(
        capsys, "encode", "--config", str(cfg), "--mode", "skeleton"
    )
    assert code == 0
    assert '"mode": "skeleton"' in out


def test_coverage_json_and_table(capsys, tmp_path):
    data = write(tmp_path, "ds.jsonl", METHANE, ETHANE)
    code, out, _ = run(capsys, "coverage", "--input", data)
    assert code == 0
    report = json.loads(body_lines(out)[0])
    assert report["conformation_count"] == 2
    assert report["gcn0_types"] == 2
    code, out, _ = run(
        capsys, "coverage", "--input", data, "--format", "table"
    )
    assert code == 0
    assert any(ln.startswith("molecule_count") for ln in body_lines(out))


def test_compare_regions(capsys, tmp_path):
    a = write(tmp_path, "a.jsonl", METHANE, ETHANE)
    b = write(tmp_path, "b.jsonl", ETHANE, WATER)
    code, out, _ = run(capsys, "compare", a, b, "--feature", "gcn0")
    assert code == 0
    rows = dict(
        ln.split("\t") for ln in body_lines(out) if not ln.startswith("region")
    )
    assert rows == {"a": "1", "b": "1", "a&b": "1"}


def test_compare_duplicate_basenames_need_names(capsys, tmp_path):
    a = write(tmp_path, "same.jsonl", METHANE)
    sub = tmp_path / "sub"
    sub.mkdir()
    b = sub / "same.jsonl"
    b.write_text(WATER + "\n", encoding="utf-8")
    code, _, err = run(capsys, "compare", a, str(b), "--feature", "gcn0")
    assert code == 2
    code, out, _ = run(
        capsys, "compare", a, str(b), "--feature", "gcn0", "--names", "x,y"
    )
    assert code == 0
    assert any(ln.startswith("x&y\t") or ln.startswith("x\t") for ln in body_lines(out))


def test_kl_matrix_output(capsys, tmp_path):
    a = write(tmp_path, "a.jsonl", METHANE)
    b = write(tmp_path, "b.jsonl", METHANE, WATER)
    code, out, _ = run(capsys, "kl", a, b, "--feature", "gcn0")
    assert code == 0
    rows = body_lines(out)
    assert rows[0] == "name\ta\tb"
    cells = rows[1].split("\t")
    assert cells[0] == "a" and float(cells[1]) == 0.0
    off_diag = float(rows[2].split("\t")[1])
    assert abs(off_diag - math.log(2.0)) < 1e-4


def test_hist_output(capsys, tmp_path):
    data = write(tmp_path, "ds.jsonl", METHANE, ETHANE, WATER)
    code, out, _ = run(capsys, "hist", "--input", data, "--property", "Na")
    assert code == 0
    rows = body_lines(out)
    assert rows[0] == "low\thigh\tcount"
    assert rows[1].endswith("\t2")


def test_subset_and_complement(capsys, tmp_path):
    data = write(tmp_path, "ds.jsonl", METHANE, ETHANE, BENZOIC)
    code, out, _ = run(
        capsys, "subset", "--input", data,
        "--gcn2-level", "1", "--nbg-level", "1",
    )
    assert code == 0
    assert body_lines(out) == ["ethane", "methane"]
    train = write(tmp_path, "train.jsonl", METHANE)
    code, out, _ = run(
        capsys, "complement", "--train", train, "--eval", data,
        "--feature", "gcn1",
    )
    assert code == 0
    assert body_lines(out) == ["benzoic", "ethane"]


def test_egcn0_and_stats(capsys, tmp_path):
    orbs = write(
        tmp_path, "orbs.jsonl",
        '{"atom":"a1","occ":2.0,"energy":-1.0,"group":"g"}',
        '{"atom":"a1","occ":2.0,"energy":-0.5,"group":"g"}',
    )
    code, out, _ = run(capsys, "egcn0", "--orbitals", orbs)
    assert code == 0
    assert body_lines(out) == ["atom\te_gcn0", "a1\t-0.75"]
    code, out, _ = run(capsys, "egcn0", "--orbitals", orbs, "--stats")
    assert code == 0
    assert body_lines(out)[1].startswith("g\t1\t-0.75")


def test_bind_energy(capsys, tmp_path):
    refs = write(
        tmp_path, "refs.jsonl",
        '{"element":"C","energy":-37.8}',
        '{"element":"H","energy":-0.5}',
    )
    mol = record_line("methane", ["C"], [], props={"e_tot": -40.3})
    data = write(tmp_path, "ds.jsonl", mol)
    code, out, _ = run(
        capsys, "bind-energy", "--input", data, "--refs", refs,
        "--property", "e_tot",
    )
    assert code == 0
    rows = body_lines(out)
    assert rows[0] == "id\te_bind"
    assert float(rows[1].split("\t")[1]) == pytest.approx(-0.5)


def test_bind_energy_missing_reference_is_data_error(capsys, tmp_path):
    refs = write(tmp_path, "refs.jsonl", '{"element":"C","energy":-37.8}')
    data = write(tmp_path, "ds.jsonl", METHANE)
    code, _, err = run(
        capsys, "bind-energy", "--input", data, "--refs", refs,
        "--property", "e0",
    )
    assert code == 1
    assert "rejected" in err


def test_bind_energy_rejects_a_record_without_the_property(capsys, tmp_path):
    refs = write(
        tmp_path, "refs.jsonl",
        '{"element":"C","energy":-37.8}',
        '{"element":"H","energy":-0.5}',
    )
    data = write(
        tmp_path, "ds.jsonl",
        record_line("a", ["C"], [], props={"e_tot": -40.3}),
        record_line("b", ["C"], [], props={"e0": -40.3}),
    )
    code, out, err = run(
        capsys, "bind-energy", "--input", data, "--refs", refs,
        "--property", "e_tot",
    )
    assert code == 1
    assert [row.split("\t")[0] for row in body_lines(out)] == ["id", "a"]
    assert err.startswith(
        "line 2 id=b MissingProperty: record lacks property 'e_tot'\n"
    )


def test_align_cli_round_trip(capsys, tmp_path):
    data = write(tmp_path, "ds.jsonl", METHANE, ETHANE, WATER)
    model_path = tmp_path / "model.txt"
    code, _, _ = run(
        capsys, "align", "fit", "--input", data, "--mode", "composition",
        "--e0", "e0", "--e1", "e1", "--out", str(model_path),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "align", "apply", "--input", data,
        "--model", str(model_path), "--e0", "e0",
    )
    assert code == 0
    rows = body_lines(out)
    assert rows[0] == "id\taligned"
    predicted = {r.split("\t")[0]: float(r.split("\t")[1]) for r in rows[1:]}
    assert predicted["methane"] == pytest.approx(-40.2, abs=1e-6)
    code, out, _ = run(
        capsys, "align", "stats", "--input", data,
        "--model", str(model_path), "--e0", "e0", "--e1", "e1",
    )
    assert code == 0
    stats = dict(r.split("\t") for r in body_lines(out))
    assert float(stats["mae"]) < 1e-6
    assert stats["outliers"] == "0"
    assert stats["n"] == "3"
