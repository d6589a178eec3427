"""Command line behavior: formats, determinism, exit codes."""

import argparse
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from molspace import cli, coverage
from molspace.cli import build_parser, main
from molspace.errors import InvalidArgument

from conftest import (
    ETHANOL_MOLFILE, ETHANOL_RECORD, WATER_MOLFILE, child_env, record_line,
)

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


def run_on_two_files(capsys, tmp_path, argv, config):
    """Run argv with {a} and {b} naming two record files, and with config,
    unless it is None, as a --config file."""
    paths = {"a": write(tmp_path, "a.jsonl", METHANE),
             "b": write(tmp_path, "b.jsonl", ETHANE)}
    argv = [arg.format(**paths) for arg in argv]
    if config is not None:
        argv += ["--config", write(tmp_path, "cfg.json", json.dumps(config))]
    return run(capsys, *argv)


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
    codes = out.splitlines()
    listing = write(tmp_path, "gcn1.txt", *codes)
    code, out, _ = run(capsys, "count-gcn2", "--gcn1-list", listing)
    assert code == 0
    assert out == "51\n"
    # A comment counts as one after its leading blanks are stripped.
    listing = write(tmp_path, "noted.txt", "  # a note", *codes, "\t# end")
    code, out, err = run(capsys, "count-gcn2", "--gcn1-list", listing)
    assert (code, out, err) == (0, "51\n", "")


@pytest.mark.parametrize("argv, config, message", [
    (["hist", "--input", "{a}", "--bins", "abc"], None,
     "bins must be an integer, got 'abc'"),
    (["generate-nbg0"], {"max_heavy": "x"},
     "max_heavy must be an integer, got 'x'"),
    (["kl", "{a}", "{b}"], {"epsilon": "abc"},
     "epsilon must be a number, got 'abc'"),
    (["subset", "--input", "{a}"], {"gcn2_level": None},
     "gcn2_level must be an integer, got None"),
    (["complement", "--train", "{a}", "--eval", "{b}"], {"na_cap": "big"},
     "na_cap must be an integer, got 'big'"),
    (["encode", "--input", "{a}"], {"workers": "two"},
     "workers must be an integer, got 'two'"),
    # Integer settings do not truncate a fraction or read a bool as 1.
    (["generate-nbg0"], {"max_heavy": 4.9},
     "max_heavy must be an integer, got 4.9"),
    (["encode", "--input", "{a}"], {"workers": True},
     "workers must be an integer, got True"),
    (["subset", "--input", "{a}"], {"nbg_level": 2.5},
     "nbg_level must be an integer, got 2.5"),
    (["hist", "--input", "{a}"], {"bins": False},
     "bins must be an integer, got False"),
    (["kl", "{a}", "{b}"], {"epsilon": True},
     "epsilon must be a number, got True"),
], ids=["hist-bins", "generate-max_heavy", "kl-epsilon", "subset-gcn2_level",
        "complement-na_cap", "encode-workers", "generate-max_heavy-fraction",
        "encode-workers-bool", "subset-nbg_level-fraction", "hist-bins-bool",
        "kl-epsilon-bool"])
def test_unconvertible_numeric_setting_is_usage_error(
    argv, config, message, capsys, tmp_path
):
    assert run_on_two_files(capsys, tmp_path, argv, config) == (
        2, "", f"usage error: {message}\n"
    )


@pytest.mark.parametrize("argv, config, message", [
    (["enumerate", "gcn0"], {"elements": 5}, "elements must be a string, got 5"),
    (["coverage"], {"input": 5}, "input must be a string, got 5"),
    (["hist", "--input", "{a}"], {"property": 3},
     "property must be a string, got 3"),
    (["coverage", "--input", "{a}"], {"out": 7}, "out must be a string, got 7"),
    (["encode", "--input", "{a}"], {"mode": "bogus"},
     "mode must be one of element-order, skeleton, skeleton-no-order, "
     "got 'bogus'"),
    (["encode", "--input", "{a}"], {"input_format": "xml"},
     "input_format must be one of records, molfile, got 'xml'"),
    (["coverage", "--input", "{a}"], {"format": "xml"},
     "format must be one of json, table, got 'xml'"),
    (["egcn0"], {"stats": "false"}, "stats must be true or false, got 'false'"),
    (["complement", "--train", "{a}", "--eval", "{b}"], {"na_cap": None},
     "na_cap must be an integer, got None"),
    (["encode", "--input", "{a}", "--workers", "-3"], None,
     "workers must be at least 1, got -3"),
    (["encode", "--input", "{a}", "--workers", "two"], None,
     "workers must be an integer, got 'two'"),
    (["cutset", "--input", "{a}"], {"workers": 0},
     "workers must be at least 1, got 0"),
    (["coverage", "--input", "{a}"], {"workers": -1},
     "workers must be at least 1, got -1"),
    (["complement", "--train", "{a}", "--eval", "{b}", "--na-cap", "-5"], None,
     "na_cap must be non-negative, got -5"),
    (["complement", "--train", "{a}", "--eval", "{b}"], {"na_cap": -1},
     "na_cap must be non-negative, got -1"),
], ids=["enumerate-elements", "coverage-input", "hist-property", "out",
        "encode-mode", "encode-input_format", "coverage-format", "egcn0-stats",
        "complement-na_cap-null", "workers-negative-flag", "workers-text-flag",
        "workers-zero", "workers-unused", "na_cap-negative-flag",
        "na_cap-negative"])
def test_setting_a_flag_could_not_take_is_usage_error(
    argv, config, message, capsys, tmp_path
):
    # METHANE is acyclic, so a bad mode is refused before any core needs it.
    assert run_on_two_files(capsys, tmp_path, argv, config) == (
        2, "", f"usage error: {message}\n"
    )


def _options():
    """(command, action) for every option of every subcommand."""
    (subparsers,) = [
        a for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    for command, sp in subparsers.choices.items():
        for action in sp._actions:
            if action.option_strings and action.dest != "help":
                yield command, action


def _bad_values(action):
    """Config values the option's flag could never produce."""
    if action.choices is not None:
        return ["bogus", 5]
    if action.nargs == 0:
        return ["false", 1]
    if action.type is None:
        return [5, True]
    return [True, [1]]


POSITIONALS = {"enumerate": ["gcn0"], "compare": ["{a}", "{b}"],
               "kl": ["{a}", "{b}"], "align": ["fit"]}
BAD_CONFIGS = [
    (command, action.dest, value)
    for command, action in _options()
    for value in _bad_values(action)
]


@pytest.mark.parametrize(
    "command, name, value", BAD_CONFIGS,
    ids=[f"{c}-{n}-{v!r}" for c, n, v in BAD_CONFIGS],
)
def test_every_option_checks_its_config_value(
    command, name, value, capsys, tmp_path
):
    argv = [command, *POSITIONALS.get(command, [])]
    code, out, err = run_on_two_files(capsys, tmp_path, argv, {name: value})
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: {name} must be ")
    assert err.endswith(f", got {value!r}\n")


# Non-default settings for every command: (positionals, settings).
EQUIVALENT_RUNS = {
    "encode": ([], {"input": "{a}", "mode": "element-order", "workers": 2}),
    "cutset": ([], {"input": "{mol}", "input_format": "molfile"}),
    "enumerate": (["gcn1"], {"elements": "OF"}),
    "count-gcn2": ([], {"gcn1_list": "{codes}", "elements": "O"}),
    "generate-nbg0": ([], {"max_heavy": 4}),
    "coverage": ([], {"input": "{a}", "name": "ds", "format": "table"}),
    "compare": (["{a}", "{b}"],
                {"feature": "nbg0", "mode": "element-order", "names": "x,y"}),
    "kl": (["{a}", "{b}"], {"feature": "gcn0", "mode": "skeleton-no-order",
                            "epsilon": 1e-6, "names": "x,y"}),
    "hist": ([], {"input": "{a}", "property": "e0", "bins": "3"}),
    "subset": ([], {"input": "{b}", "gcn2_level": 1, "nbg_level": 1}),
    "complement": ([], {"train": "{a}", "eval": "{b}", "feature": "scaffold",
                        "na_cap": 7}),
    "egcn0": ([], {"orbitals": "{orbs}", "stats": True}),
    "bind-energy": ([], {"input": "{a}", "refs": "{refs}", "property": "e1"}),
    "align fit": (["fit"], {"input": "{a}", "mode": "plain", "ridge": 0.5,
                            "e0": "e1", "e1": "e0"}),
    "align stats": (["stats"], {"input": "{a}", "model": "{model}",
                                "threshold": 0.01, "e0": "e1", "e1": "e0"}),
}


@pytest.mark.parametrize("run_name", list(EQUIVALENT_RUNS))
def test_flags_and_config_file_give_the_same_bytes(run_name, capsys, tmp_path):
    command = run_name.split()[0]
    positionals, settings = EQUIVALENT_RUNS[run_name]
    mol = tmp_path / "water.mol"
    mol.write_text(WATER_MOLFILE, encoding="utf-8")
    paths = {
        "a": write(tmp_path, "a.jsonl", METHANE, ETHANE, WATER),
        "b": write(tmp_path, "b.jsonl", ETHANE, BENZOIC),
        "mol": str(mol),
        "codes": write(tmp_path, "codes.txt", "O02", "O11[C13]"),
        "orbs": write(tmp_path, "orbs.jsonl",
                      '{"atom":"a1","occ":2.0,"energy":-1.0,"group":"g"}'),
        "refs": write(tmp_path, "refs.jsonl", '{"element":"C","energy":-37.8}',
                      '{"element":"H","energy":-0.5}',
                      '{"element":"O","energy":-75.0}'),
        "model": str(tmp_path / "model.txt"),
    }
    assert main(["align", "fit", "--input", paths["a"],
                 "--out", paths["model"]]) == 0
    settings = {k: v.format(**paths) if isinstance(v, str) else v
                for k, v in settings.items()}
    positionals = [p.format(**paths) for p in positionals]
    flags = {a.dest: a.option_strings[0] for c, a in _options() if c == command}
    argv = []
    for name, value in settings.items():
        argv += [flags[name]] if value is True else [flags[name], str(value)]
    by_flags, by_config = tmp_path / "flags.out", tmp_path / "config.out"
    cfg = write(tmp_path, "cfg.json", json.dumps(settings))
    assert main([command, *positionals, *argv, "--out", str(by_flags)]) == 0
    assert main([command, *positionals, "--config", cfg,
                 "--out", str(by_config)]) == 0
    assert by_flags.read_bytes() == by_config.read_bytes()
    capsys.readouterr()


def test_config_keys_of_no_option_are_ignored(capsys, tmp_path):
    # cutset has no --mode: a shared file's mode no longer shows in its header.
    data = write(tmp_path, "in.jsonl", BENZOIC)
    cfg = write(tmp_path, "cfg.json", json.dumps(
        {"mode": "element-order", "bins": "abc", "help": 3, "inputs": 1}
    ))
    expected = run(capsys, "cutset", "--input", data)
    assert '"mode": "skeleton"' in expected[1]
    assert run(capsys, "cutset", "--input", data, "--config", cfg) == expected


def stand_in_pool(monkeypatch):
    """The size of each pool that coverage.ingest starts; each maps in this
    process."""
    sizes = []

    class StandInPool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items):
            return map(fn, items)

    # coverage.ingest imports multiprocessing when it starts a pool.
    monkeypatch.setattr(multiprocessing, "Pool", StandInPool)
    return sizes


def test_pool_is_no_larger_than_the_records_or_the_cores(
    monkeypatch, capsys, tmp_path
):
    sizes = stand_in_pool(monkeypatch)
    monkeypatch.setattr(coverage, "CHUNK_LINES", 1)
    data = write(tmp_path, "in.jsonl", METHANE, ETHANE, WATER)
    expected = run(capsys, "encode", "--input", data)
    for cores in (64, 2, None):
        monkeypatch.setattr(coverage.os, "cpu_count", lambda: cores)
        assert run(capsys, "encode", "--input", data, "--workers", "64") == expected
    assert sizes == [3, 2]


def test_an_input_of_one_chunk_starts_no_pool(monkeypatch, capsys, tmp_path):
    sizes = stand_in_pool(monkeypatch)
    monkeypatch.setattr(coverage.os, "cpu_count", lambda: 2)
    data = write(tmp_path, "in.jsonl", METHANE, ETHANE, WATER)
    expected = run(capsys, "encode", "--input", data)
    assert run(capsys, "encode", "--input", data, "--workers", "2") == expected
    assert sizes == []
    # CHUNK_LINES records are one chunk; one more are two, and two workers.
    monkeypatch.setattr(coverage, "CHUNK_LINES", 3)
    assert run(capsys, "encode", "--input", data, "--workers", "2") == expected
    assert sizes == []
    more = write(tmp_path, "more.jsonl", METHANE, ETHANE, WATER, BENZOIC)
    run(capsys, "encode", "--input", more, "--workers", "2")
    assert sizes == [2]


def test_integer_settings_accept_integral_values(capsys, tmp_path):
    expected = run(capsys, "generate-nbg0", "--max-heavy", "4")
    assert expected[0] == 0
    for value in (4, "4", 4.0):
        cfg = write(tmp_path, "cfg.json", json.dumps({"max_heavy": value}))
        assert run(capsys, "generate-nbg0", "--config", cfg) == expected


@pytest.mark.parametrize("argv, config, shown", [
    (["--epsilon", "nan"], None, "nan"),
    (["--epsilon", "inf"], None, "inf"),
    (["--epsilon=-1e-9"], None, "-1e-09"),
    ([], {"epsilon": "inf"}, "inf"),
    ([], {"epsilon": "-inf"}, "-inf"),
    ([], {"epsilon": 0}, "0.0"),
], ids=["nan", "inf", "negative", "config-inf", "config-minus-inf", "zero"])
def test_kl_epsilon_must_be_positive_and_finite(
    argv, config, shown, capsys, tmp_path
):
    argv = ["kl", write(tmp_path, "a.jsonl", METHANE),
            write(tmp_path, "b.jsonl", ETHANE)] + argv
    if config is not None:
        argv += ["--config", write(tmp_path, "cfg.json", json.dumps(config))]
    code, out, err = run(capsys, *argv)
    message = f"epsilon must be positive and finite, got {shown}"
    assert (code, out, err) == (2, "", f"usage error: {message}\n")


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value, shown", [
    ("nan", "nan"), ("inf", "inf"), ("-1", "-1.0"),
])
@pytest.mark.parametrize("action, name", [
    ("fit", "ridge"), ("stats", "threshold"),
])
def test_ridge_and_threshold_must_be_finite_and_non_negative(
    action, name, value, shown, source, capsys, tmp_path
):
    # The inputs do not exist: the setting is refused before any is read.
    missing = str(tmp_path / "missing.jsonl")
    argv = ["align", action, "--input", missing, "--model", missing]
    if source == "flag":
        argv.append(f"--{name}={value}")
    else:
        argv += ["--config", write(tmp_path, "cfg.json", json.dumps({name: value}))]
    message = f"{name} must be finite and non-negative, got {shown}"
    assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["enumerate", "gcn0"], ["count-gcn2", "--gcn1-list", "{codes}"],
], ids=["enumerate", "count-gcn2"])
def test_an_empty_element_set_is_usage_error(argv, capsys, tmp_path):
    codes = write(tmp_path, "codes.txt", "O02", "O11[C13]")
    argv = [arg.format(codes=codes) for arg in argv]
    assert run(capsys, *argv, "--elements", "") == (
        2, "", "usage error: element set must not be empty\n"
    )


RECORD_COMMANDS = {"encode", "cutset", "coverage", "compare", "kl", "hist",
                   "subset", "complement", "bind-energy", "align"}


def test_only_the_record_commands_declare_rejects_and_workers():
    for name in ("rejects", "workers"):
        assert {c for c, a in _options() if a.dest == name} == RECORD_COMMANDS


def test_a_command_without_a_record_pass_takes_no_workers(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "gcn0", "--workers", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


NUMERIC_OPTIONS = [(c, a) for c, a in _options() if a.type is not None]


def test_the_numeric_settings_have_their_own_types():
    assert {a.dest for _, a in NUMERIC_OPTIONS} == {
        "workers", "max_heavy", "epsilon", "bins", "gcn2_level", "nbg_level",
        "na_cap", "ridge", "threshold",
    }
    assert not any(a.type in (int, float) for _, a in NUMERIC_OPTIONS)


@pytest.mark.parametrize(
    "command, action", NUMERIC_OPTIONS,
    ids=[f"{c}-{a.dest}" for c, a in NUMERIC_OPTIONS],
)
def test_a_bad_numeric_flag_and_config_value_give_the_same_usage_error(
    command, action, capsys, tmp_path
):
    argv = [command, *POSITIONALS.get(command, [])]
    by_flag = run_on_two_files(
        capsys, tmp_path, argv + [action.option_strings[0], "x"], None
    )
    by_config = run_on_two_files(capsys, tmp_path, argv, {action.dest: "x"})
    assert by_flag == by_config
    assert by_flag[:2] == (2, "")
    assert by_flag[2].startswith(f"usage error: {action.dest} must be ")


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


def test_generate_nbg0_one_above_the_cap_is_usage_error(capsys):
    code, out, err = run(capsys, "generate-nbg0", "--max-heavy", "11")
    assert (code, out) == (2, "")
    assert err == "usage error: max_heavy must lie in [3, 10], got 11\n"


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


@pytest.mark.parametrize("command", ["kl", "compare"])
@pytest.mark.parametrize("names, files", [
    ("x,x", ("a", "b")),
    (",y", ("a", "b")),
    (",", ("a", "a")),
], ids=["duplicate", "empty-first", "both-empty"])
def test_names_must_be_distinct_and_non_empty(
    command, names, files, capsys, tmp_path
):
    paths = {"a": write(tmp_path, "a.jsonl", METHANE),
             "b": write(tmp_path, "b.jsonl", WATER)}
    code, out, err = run(
        capsys, command, *(paths[f] for f in files), "--names", names
    )
    assert (code, out) == (2, "")
    assert err == "usage error: --names must list distinct, non-empty names\n"


@pytest.mark.parametrize("argv, message", [
    (["compare", "a", "b", "c", "--names", "a,b,a&b"],
     "dataset name 'a&b' holds '&', the region separator"),
    (["compare", "a", "x&y.jsonl"],
     "dataset name 'x&y' holds '&', the region separator; pass --names"),
    (["kl", "a", "b", "--names", "a\nb,c"],
     "dataset name 'a\\nb' holds a tab or a line break"),
    (["compare", "a", "b", "--names", "a\tx,c"],
     "dataset name 'a\\tx' holds a tab or a line break"),
    (["kl", "a", "b\u2028c.jsonl"],
     "dataset name 'b\\u2028c' holds a tab or a line break; pass --names"),
    (["coverage", "--input", "a", "--format", "table", "--name", "q\nr"],
     "dataset name 'q\\nr' holds a tab or a line break"),
    (["coverage", "--input", "q\rr.jsonl"],
     "dataset name 'q\\rr' holds a tab or a line break; pass --name"),
], ids=["compare-amp", "compare-amp-stem", "kl-newline", "compare-tab", "kl-stem",
        "coverage-name", "coverage-stem"])
def test_a_dataset_name_that_would_corrupt_the_report_is_usage_error(
    argv, message, capsys, tmp_path, monkeypatch
):
    # None of the inputs exists: reading one would be a ParseError (exit 1).
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["compare", "a.jsonl"], "compare takes two or three inputs, got 1"),
    (["compare", "a.jsonl", "b.jsonl", "c.jsonl", "d.jsonl"],
     "compare takes two or three inputs, got 4"),
    (["kl", "a.jsonl"], "kl takes at least two inputs, got 1"),
], ids=["compare-1", "compare-4", "kl-1"])
def test_input_count_is_checked_before_any_input_is_read(
    argv, message, capsys, tmp_path, monkeypatch
):
    # None of the inputs exists: reading one would be a ParseError (exit 1).
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")


@pytest.mark.parametrize("argv, names", [
    (["complement"], "--train and --eval"),
    (["compare", "-", "-", "--names", "a,b"], "input 1 and input 2"),
    (["kl", "-", "{a}", "-", "--names", "a,b,c"], "input 1 and input 3"),
    (["bind-energy"], "--input and --refs"),
    (["align", "apply"], "--input and --model"),
    (["align", "stats"], "--input and --model"),
], ids=["complement", "compare", "kl", "bind-energy", "align-apply", "align-stats"])
def test_standard_input_for_two_inputs_is_usage_error(
    argv, names, capsys, tmp_path, monkeypatch
):
    stdin = io.TextIOWrapper(io.BytesIO(f"{METHANE}\n{ETHANE}\n".encode()))
    monkeypatch.setattr(sys, "stdin", stdin)
    argv = [arg.format(a=write(tmp_path, "a.jsonl", WATER)) for arg in argv]
    message = f"standard input can be read once, but {names} name '-'"
    assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")
    assert stdin.buffer.tell() == 0


def test_align_fit_reads_only_its_input_from_standard_input(
    capsys, tmp_path, monkeypatch
):
    stdin = io.TextIOWrapper(io.BytesIO(f"{METHANE}\n{ETHANE}\n".encode()))
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, _ = run(capsys, "align", "fit", "--mode", "plain")
    assert code == 0
    assert "n_records\t2" in out.splitlines()


def test_molfile_and_record_of_one_molecule_encode_alike(capsys, tmp_path):
    mol = tmp_path / "ethanol.mol"
    mol.write_text(ETHANOL_MOLFILE, encoding="utf-8")
    code, from_molfile, _ = run(
        capsys, "encode", "--input", str(mol), "--input-format", "molfile")
    assert code == 0
    data = write(tmp_path, "ethanol.jsonl", json.dumps(ETHANOL_RECORD))
    code, from_record, _ = run(capsys, "encode", "--input", data)
    assert code == 0
    assert body_lines(from_molfile) == body_lines(from_record)
    assert json.loads(body_lines(from_record)[0])["gcn0"] == ["C13", "C22", "O11"]


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


@pytest.mark.parametrize("argv, file, line, message", [
    (["bind-energy", "--input", "{a}", "--refs"], "refs.jsonl",
     '{"element":"C","energy":"abc"}',
     "reference line 1: energy is not a number: 'abc'"),
    (["bind-energy", "--input", "{a}", "--refs"], "refs.jsonl",
     '{"element":"C","energy":null}',
     "reference line 1: energy is not a number: None"),
    (["bind-energy", "--input", "{a}", "--refs"], "refs.jsonl",
     '{"element":"C","energy":false}',
     "reference line 1: energy is not a number: False"),
    (["egcn0", "--orbitals"], "orbs.jsonl",
     '{"atom":"a1","occ":NaN,"energy":-1.0}',
     "orbital line 1: occ is not finite: nan"),
    (["egcn0", "--orbitals"], "orbs.jsonl",
     '{"atom":"a","occ":"2","energy":-0.5}',
     "orbital line 1: occ is not a number: '2'"),
    (["bind-energy", "--input", "{a}", "--refs"], "refs.jsonl",
     '{"element":"C","energy":"-37.8"}',
     "reference line 1: energy is not a number: '-37.8'"),
    (["egcn0", "--orbitals"], "orbs.jsonl",
     '{"atom":"a","occ":true,"energy":-1}',
     "orbital line 1: occ is not a number: True"),
    (["egcn0", "--orbitals"], "orbs.jsonl",
     '{"atom":"a","occ":1,"energy":true}',
     "orbital line 1: energy is not a number: True"),
], ids=["refs-text", "refs-null", "refs-bool", "orbitals-nan", "orbitals-occ-text",
        "refs-numeric-text", "orbitals-occ-bool", "orbitals-energy-bool"])
def test_unusable_loader_value_is_parse_error(
    argv, file, line, message, capsys, tmp_path
):
    paths = {"a": write(tmp_path, "a.jsonl", METHANE)}
    argv = [arg.format(**paths) for arg in argv] + [write(tmp_path, file, line)]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: ParseError: {message}\n")


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


def test_align_rejects_records_that_lack_a_property(capsys, tmp_path):
    data = write(
        tmp_path, "ds.jsonl", METHANE, ETHANE,
        record_line("w", ["C"], [], props={"e0": -40.1}),
        WATER,
        record_line("v", ["O"], [], props={"e1": -76.1}),
    )
    lacks_e1 = "line 3 id=w MissingProperty: record lacks property 'e1'\n"
    lacks_e0 = "line 5 id=v MissingProperty: record lacks property 'e0'\n"
    model_path = str(tmp_path / "model.txt")
    code, _, err = run(
        capsys, "align", "fit", "--input", data, "--mode", "plain",
        "--out", model_path,
    )
    assert (code, err) == (1, lacks_e1 + lacks_e0 + "2 record(s) rejected\n")
    assert "n_records\t3\n" in Path(model_path).read_text()
    code, out, err = run(
        capsys, "align", "stats", "--input", data, "--model", model_path
    )
    assert (code, err) == (1, lacks_e1 + lacks_e0 + "2 record(s) rejected\n")
    assert "n\t3" in body_lines(out)
    code, out, err = run(
        capsys, "align", "apply", "--input", data, "--model", model_path
    )
    assert (code, err) == (1, lacks_e0 + "1 record(s) rejected\n")
    ids = [row.split("\t")[0] for row in body_lines(out)]
    assert ids == ["id", "methane", "ethane", "w", "water"]


def test_align_with_no_record_left_writes_rejects_then_an_error(capsys, tmp_path):
    model_path = str(tmp_path / "model.txt")
    code, _, _ = run(
        capsys, "align", "fit", "--input", write(tmp_path, "t.jsonl", METHANE, ETHANE),
        "--mode", "plain", "--out", model_path,
    )
    assert code == 0
    data = write(tmp_path, "ds.jsonl", record_line("w", ["C"], [], props={"e0": -40.1}))
    lacks_e1 = (
        "line 1 id=w MissingProperty: record lacks property 'e1'\n"
        "1 record(s) rejected\n"
    )
    for argv, action in [
        (["--mode", "plain", "--out", str(tmp_path / "m2.txt")], "fit"),
        (["--model", model_path], "stats"),
    ]:
        code, out, err = run(capsys, "align", action, "--input", data, *argv)
        assert (code, out) == (1, "")
        assert err == lacks_e1 + f"error: NoRecords: no record left to {action}\n"
    assert not (tmp_path / "m2.txt").exists()


def test_align_rejects_records_with_an_unseen_feature(capsys, tmp_path):
    train = write(tmp_path, "train.jsonl", METHANE, ETHANE)
    model_path = str(tmp_path / "model.txt")
    code, _, _ = run(
        capsys, "align", "fit", "--input", train, "--mode", "composition",
        "--out", model_path,
    )
    assert code == 0
    data = write(tmp_path, "ds.jsonl", METHANE, WATER, ETHANE)
    unseen = (
        "line 2 id=water UnseenFeature: feature 'O' not in the fitted model\n"
        "1 record(s) rejected\n"
    )
    code, out, err = run(
        capsys, "align", "apply", "--input", data, "--model", model_path
    )
    assert (code, err) == (1, unseen)
    ids = [row.split("\t")[0] for row in body_lines(out)]
    assert ids == ["id", "methane", "ethane"]
    code, out, err = run(
        capsys, "align", "stats", "--input", data, "--model", model_path
    )
    assert (code, err) == (1, unseen)
    assert "n\t2" in body_lines(out)


LOADED_AFTER_EACH_STEP = """
import json, os, sys
from molspace import cli, coverage

HEAVY = ("dataclasses", "multiprocessing", "numpy")
data, gcn0, w1, w2 = sys.argv[1:]
steps = [[m for m in HEAVY if m in sys.modules]]
assert cli.main(["enumerate", "gcn0", "--out", gcn0]) == 0
steps.append([m for m in HEAVY if m in sys.modules])
assert cli.main(["encode", "--input", data, "--workers", "1", "--out", w1]) == 0
steps.append([m for m in HEAVY if m in sys.modules])
coverage.CHUNK_LINES = 4  # three chunks, so that two workers start a pool
assert cli.main(["encode", "--input", data, "--workers", "2", "--out", w2]) == 0
pool = "multiprocessing" in sys.modules
print(json.dumps({"steps": steps, "pool": pool, "cores": os.cpu_count() or 1}))
"""


def test_a_launch_without_a_pool_loads_no_dataclasses_multiprocessing_or_numpy(
    tmp_path,
):
    # pytest itself loads dataclasses, so the launch runs in a child. Only
    # `align fit` needs numpy, and only a pool needs multiprocessing.
    lines = [record_line(f"m{i}", ["C", "C", "O"], [(1, 2, 1), (2, 3, 1)])
             for i in range(12)]
    data = write(tmp_path, "in.jsonl", *lines)
    outs = [tmp_path / name for name in ("gcn0.txt", "w1.txt", "w2.txt")]
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER_EACH_STEP, data, *map(str, outs)],
        capture_output=True, text=True, env=child_env(), check=True,
    )
    result = json.loads(proc.stdout)
    # After import, after `enumerate gcn0` and after `encode --workers 1`.
    assert result["steps"] == [[], [], []]
    assert result["pool"] == (result["cores"] >= 2)
    assert outs[2].read_bytes() == outs[1].read_bytes()


def test_out_gets_the_bytes_of_stdout_for_argument_text_that_is_not_utf8(tmp_path):
    # Python hands an argument byte that is not UTF-8 over as a surrogate.
    raw = os.fsdecode(b"\xff")
    data = write(tmp_path, "a.jsonl", METHANE, ETHANE)
    named = write(tmp_path, f"{raw}.jsonl", METHANE, ETHANE)
    env = child_env()
    out = tmp_path / "out.txt"
    for argv in (
        ["kl", data, data, "--names", f"{raw},y", "--feature", "gcn0"],
        ["coverage", "--input", data, "--name", raw, "--format", "table"],
        ["encode", "--input", named],
    ):
        command = [sys.executable, "-m", "molspace", *argv]
        to_stdout = subprocess.run(command, capture_output=True, env=env)
        to_file = subprocess.run(command + ["--out", str(out)],
                                 capture_output=True, env=env)
        assert (to_stdout.returncode, to_file.returncode) == (0, 0), argv[0]
        assert (to_stdout.stderr, to_file.stderr) == (b"", b"")
        assert b"\xff" in to_stdout.stdout
        assert out.read_bytes() == to_stdout.stdout


def test_a_clamped_hydrogen_count_is_one_plain_warning_line(tmp_path):
    # N(=O)(C)C: the nitrogen's order sum 4 exceeds its default valence 3,
    # so its inferred count is clamped to 0; the record is still accepted.
    nitro = record_line("nitro", ["C", "N", "O", "C"],
                        [(1, 2, 1), (2, 3, 2), (2, 4, 1)])
    data = write(tmp_path, "in.jsonl", nitro)
    proc = subprocess.run(
        [sys.executable, "-m", "molspace", "encode", "--input", data],
        capture_output=True, text=True, env=child_env(), check=False,
    )
    assert proc.returncode == 0
    assert proc.stderr == (
        "warning: HydrogenClampWarning: record 'nitro': atom 2 (N) has bond "
        "order sum 4 above the default valence; hydrogen count clamped to 0\n"
    )
    assert body_lines(proc.stdout)[0].startswith('{"id":"nitro"')


def test_readme_library_example_runs(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    # Each print line ends in a comment holding what it prints.
    expected = [
        line.split("  # ", 1)[1]
        for line in blocks[0].splitlines()
        if line.startswith("print(")
    ]
    assert expected and capsys.readouterr().out.splitlines() == expected


REFS = ['{"element":"C","energy":-37.8}', '{"element":"H","energy":-0.5}',
        '{"element":"N","energy":-54.6}', '{"element":"O","energy":-75.0}']


def test_a_record_rejected_after_acceptance_still_claims_its_id(capsys, tmp_path):
    # The first `a` lacks the property and is rejected by the command, not
    # by the accept rule; the second `a` is still a duplicate.
    data = write(
        tmp_path, "ds.jsonl",
        record_line("a", ["C"], [], props={"e0": -40.1}),
        record_line("a", ["O"], [], props={"e0": -76.1, "e1": -76.4, "e_tot": -76.2}),
        record_line("b", ["C", "C"], [(1, 2, 1)],
                    props={"e0": -79.8, "e1": -79.1, "e_tot": -79.5}),
    )
    duplicate = "line 2 id=a DuplicateRecord: id 'a' already present"
    for argv, lacks in (
        (["bind-energy", "--refs", write(tmp_path, "refs.jsonl", *REFS)], "e_tot"),
        (["align", "fit", "--mode", "plain", "--out", str(tmp_path / "m.txt")], "e1"),
    ):
        code, _, err = run(capsys, *argv, "--input", data)
        lines = err.splitlines()
        assert code == 1
        assert sorted(lines[:-1]) == [
            f"line 1 id=a MissingProperty: record lacks property {lacks!r}", duplicate]
        assert lines[-1] == "2 record(s) rejected"
    assert "n_records\t1\n" in (tmp_path / "m.txt").read_text()


def test_reject_lines_come_in_input_order(capsys, tmp_path):
    data = write(
        tmp_path, "ds.jsonl",
        record_line("a", ["C"], [], props={"e_tot": -40.3}),
        record_line("b", ["C"], [], props={"e0": -40.3}),
        "{bad json",
        record_line("a", ["O"], [], props={"e_tot": -76.2}),
        record_line("f", ["F"], [], props={"e_tot": -99.0}),
    )
    code, out, err = run(capsys, "bind-energy", "--input", data,
                         "--refs", write(tmp_path, "refs.jsonl", *REFS))
    assert code == 1
    assert [row.split("\t")[0] for row in body_lines(out)] == ["id", "a"]
    assert [line.split(" ", 3)[1:3] for line in err.splitlines()[:-1]] == [
        ["2", "id=b"], ["3", "id=?"], ["4", "id=a"], ["5", "id=f"]]


@pytest.mark.parametrize("command", ["kl", "compare", "complement"])
def test_an_invalid_feature_is_one_invalid_argument(command, capsys, tmp_path):
    a = write(tmp_path, "a.jsonl", METHANE, ETHANE, WATER)
    b = write(tmp_path, "b.jsonl", ETHANE, BENZOIC)
    common = dict(workers=1, out=str(tmp_path / "out.txt"), rejects="-",
                  mode="skeleton")
    if command == "complement":
        args = argparse.Namespace(train=a, eval=b, feature="gcn0", na_cap=None,
                                  **common)
    else:
        args = argparse.Namespace(inputs=[a, b], names=None, feature="bogus",
                                  epsilon=1e-9, **common)
    with pytest.raises(InvalidArgument):
        getattr(cli, f"cmd_{command}")(args)
    assert capsys.readouterr().err == ""
    assert not (tmp_path / "out.txt").exists()


# A parse reject, a duplicate id, two records whose hydrogen counts are
# clamped (the duplicate repeats one warning), and records without e1, e_tot.
MIXED = [
    record_line("a", ["C"], [], props={"e0": -40.1, "e1": -40.3, "e_tot": -40.5}),
    "{bad json",
    record_line("nitro", ["C", "N", "O", "C"], [(1, 2, 1), (2, 3, 2), (2, 4, 1)],
                props={"e0": -1.0, "e1": -2.0, "e_tot": -3.0}),
    record_line("b", ["C", "C"], [(1, 2, 1)], props={"e0": -79.0}),
    record_line("nitro", ["C", "N", "O", "C"], [(1, 2, 1), (2, 3, 2), (2, 4, 1)]),
    BENZOIC,
    record_line("nitro2", ["C", "N", "O", "C"], [(1, 2, 1), (2, 3, 2), (2, 4, 1)],
                props={"e0": -1.5, "e1": -2.5, "e_tot": -3.5}),
    record_line("w", ["O"], [], props={"e0": -76.1, "e1": -76.4, "e_tot": -76.3}),
]


# Runs cli.main on the arguments after the first, which names the start
# method of any pool the run starts. Each record line is a chunk, so that
# two records at --workers 2 start a pool.
UNDER_START_METHOD = """
import multiprocessing, sys
multiprocessing.set_start_method(sys.argv[1])
from molspace import cli, coverage
coverage.CHUNK_LINES = 1
sys.exit(cli.main(sys.argv[2:]))
"""


def run_under(method, argv, env=None):
    """(exit code, stdout, stderr) of a child run of argv under method, with
    chunks of one record line."""
    proc = subprocess.run(
        [sys.executable, "-c", UNDER_START_METHOD, method, *argv],
        capture_output=True, env=env or child_env(), check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_the_worker_count_changes_no_byte_of_any_record_command(tmp_path):
    data = write(tmp_path, "mixed.jsonl", *MIXED)
    other = write(tmp_path, "other.jsonl", METHANE, ETHANE, WATER, BENZOIC)
    refs = write(tmp_path, "refs.jsonl", *REFS)
    model = str(tmp_path / "model.txt")
    subprocess.run([sys.executable, "-m", "molspace", "align", "fit", "--input",
                    write(tmp_path, "fit.jsonl", METHANE, ETHANE, WATER),
                    "--mode", "gcn1", "--out", model],
                   env=child_env(), check=True)
    commands = [
        ["encode", "--input", data], ["cutset", "--input", data],
        ["coverage", "--input", data], ["compare", data, other],
        ["kl", data, other, "--feature", "nbg_plus"], ["subset", "--input", data],
        ["hist", "--input", data, "--property", "e1", "--bins", "3"],
        ["complement", "--train", other, "--eval", data],
        ["bind-energy", "--input", data, "--refs", refs],
        ["align", "fit", "--input", data, "--mode", "gcn1"],
        ["align", "apply", "--input", data, "--model", model],
        ["align", "stats", "--input", data, "--model", model],
    ]
    warning = ("warning: HydrogenClampWarning: record 'nitro': atom 2 (N) has "
               "bond order sum 4 above the default valence; hydrogen count "
               "clamped to 0\n")
    for argv in commands:
        out = tmp_path / "out-1.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "molspace", *argv, "--workers", "1",
             "--out", str(out)],
            capture_output=True, env=child_env(), check=False,
        )
        runs = [(proc.returncode, proc.stdout, proc.stderr, out.read_bytes())]
        # A pool of two, under each start method, gives the bytes of one worker.
        for method in ("fork", "forkserver", "spawn"):
            out = tmp_path / f"out-{method}.txt"
            result = run_under(method, [*argv, "--workers", "2", "--out", str(out)])
            runs.append((*result, out.read_bytes()))
        assert runs[0] == runs[1] == runs[2] == runs[3], argv[0]
        code, stdout, stderr, _ = runs[0]
        assert (code, stdout) == (1, b""), argv[0]
        assert stderr.decode().count(warning) == 1, argv[0]


# The settings of the interpreter that no command declares. A run's bytes
# and exit code do not depend on any of them.
INTERPRETER_SETTINGS = ("PYTHONIOENCODING", "PYTHONWARNINGS", "PYTHONINTMAXSTRDIGITS",
                        "PYTHONUTF8", "LC_ALL", "LC_CTYPE", "LANG")

# A record whose id is a 5,000-digit integer, past Python's default limit.
LONG_ID = '{"id": %s, "elements": ["C"], "bonds": [], "h": "auto"}' % ("7" * 5000)


def test_output_bytes_do_not_depend_on_locale_io_encoding_or_warning_filters(
    tmp_path,
):
    clamped = record_line("nitro", ["C", "N", "C", "C", "C"],
                          [(1, 2, 1), (2, 3, 1), (2, 4, 1), (2, 5, 1)])
    path = tmp_path / "m.jsonl"
    path.write_text("\n".join([
        json.dumps(json.loads(ETHANE) | {"id": "é"}, ensure_ascii=False),
        json.dumps({"id": "ü", "elements": ["X"], "bonds": [], "h": "auto"},
                   ensure_ascii=False),
        clamped, clamped,
        LONG_ID,
    ]) + "\n", encoding="utf-8")
    data = str(path)
    baseline = {k: v for k, v in child_env().items() if k not in INTERPRETER_SETTINGS}
    envs = [{}, {"PYTHONIOENCODING": "ascii"}, {"PYTHONIOENCODING": "latin-1"},
            {"PYTHONIOENCODING": "utf-8"}, {"LC_ALL": "C.UTF-8"},
            {"PYTHONWARNINGS": "error"}, {"PYTHONWARNINGS": "ignore"},
            {"PYTHONWARNINGS": "always"}, {"PYTHONINTMAXSTRDIGITS": "0"}]
    out, rejects = tmp_path / "out.txt", tmp_path / "rejects.txt"
    for argv in (["cutset", "--input", data],
                 ["kl", data, data, "--names", os.fsdecode(b"\xff,y"),
                  "--feature", "gcn0"]):
        command = [sys.executable, "-m", "molspace", *argv]
        seen = []
        for extra in envs:
            env = baseline | extra
            to_std = subprocess.run(command, capture_output=True, env=env)
            to_files = subprocess.run(
                command + ["--out", str(out), "--rejects", str(rejects)],
                capture_output=True, env=env)
            warning, *listing, count = to_std.stderr.splitlines(keepends=True)
            assert out.read_bytes() == to_std.stdout, (argv[0], extra)
            assert rejects.read_bytes() == b"".join(listing), (argv[0], extra)
            assert (to_files.returncode, to_files.stderr) == (
                to_std.returncode, warning + count), (argv[0], extra)
            seen.append((to_std.returncode, to_std.stdout, to_std.stderr))
        code, stdout, stderr = seen[0]
        assert all(result == seen[0] for result in seen), argv[0]
        assert code == 1
        assert (b"\xff\ty\n" if argv[0] == "kl" else "é\t".encode()) in stdout
        assert stderr.startswith(b"warning: HydrogenClampWarning: record 'nitro'")
        assert "line 2 id=ü UnsupportedElement".encode() in stderr
        assert b"an integer has more than 4300 digits" in stderr


def test_a_reader_that_closes_stdout_early_ends_the_run_quietly():
    # Nearly 1 MB of codes: more than a pipe holds, so the run is still
    # writing when its reader goes.
    proc = subprocess.Popen(
        [sys.executable, "-m", "molspace", "enumerate", "gcn1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (1, b"")


def test_main_reads_integers_to_python_default_digit_limit_and_restores_the_callers(
    capsys, tmp_path
):
    data = write(tmp_path, "d.jsonl", LONG_ID)
    caller = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, _, err = run(capsys, "cutset", "--input", data)
        assert sys.get_int_max_str_digits() == 0
    finally:
        sys.set_int_max_str_digits(caller)
    assert code == 1
    assert "an integer has more than 4300 digits" in err


def test_pool_workers_read_integers_to_the_runs_digit_limit(tmp_path):
    # Workers started by forkserver or spawn do not inherit the limit that
    # main sets; PYTHONINTMAXSTRDIGITS=0 would lift it in them.
    data = write(tmp_path, "d.jsonl", LONG_ID, METHANE)
    env = child_env(PYTHONINTMAXSTRDIGITS="0")
    runs = [run_under(method, ["cutset", "--input", data, "--workers", workers], env)
            for method, workers in [("fork", "1"), ("fork", "2"),
                                    ("forkserver", "2"), ("spawn", "2")]]
    assert runs[1:] == runs[:1] * 3
    code, out, err = runs[0]
    assert code == 1 and body_lines(out.decode()) == ["methane\tvc=0 ec=0 level=0"]
    assert err.decode().startswith("line 1 id=? ParseError: record line is not valid "
                                   "structured text: an integer has more than 4300 digits")


@pytest.mark.parametrize("bins, code", [("100000", 0), ("100001", 2)])
def test_hist_takes_at_most_100000_bins(bins, code, capsys, tmp_path):
    data = write(tmp_path, "d.jsonl", METHANE)
    out = tmp_path / "out.txt"
    config = write(tmp_path, "c.json", json.dumps({"bins": int(bins)}))
    for argv in (["--bins", bins], ["--config", config]):
        result = run(capsys, "hist", "--input", data, "--out", str(out), *argv)
        if code:
            assert result == (2, "", "usage error: bins must be 'unit' or an "
                              f"integer from 1 to 100000, got {bins}\n")
            assert not out.exists()
        else:
            assert result == (0, "", "")
            assert len(out.read_text().splitlines()) == 5 + 100000


# Finite properties whose squares overflow in the normal equations.
HUGE = [record_line(f"b{i}", ["C"], [], props={"e0": i * 3e299, "e1": (i + 1) * 3e299})
        for i in range(1, 4)]


def test_an_align_fit_that_is_not_finite_is_an_error_and_writes_no_model(tmp_path):
    data = write(tmp_path, "big.jsonl", *HUGE)
    out = tmp_path / "model.txt"
    # Under -W error, too, numpy's overflow is no warning and no traceback.
    for flags in ([], ["-W", "error"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "molspace", "align", "fit", "--input", data,
             "--mode", "plain", "--out", str(out)],
            capture_output=True, env=child_env(), check=False,
        )
        assert (proc.returncode, proc.stdout) == (1, b"")
        assert proc.stderr == (b"error: RankDeficient: fit has a coefficient or "
                               b"residual that is not finite\n")
        assert not out.exists()


def test_align_apply_rejects_a_model_that_is_not_finite(capsys, tmp_path):
    data = write(tmp_path, "d.jsonl", METHANE)
    fitted = str(tmp_path / "model.txt")
    assert run(capsys, "align", "fit", "--input", write(tmp_path, "fit.jsonl",
               METHANE, ETHANE, WATER), "--mode", "plain", "--out", fitted)[0] == 0
    text = Path(fitted).read_text()
    broken = re.sub(r"^c0\t.*$", "c0\tnan", text, flags=re.M)
    broken = re.sub(r"^b0\t.*$", "b0\tinf", broken, flags=re.M)
    model = write(tmp_path, "broken.txt", broken)
    assert run(capsys, "align", "apply", "--input", data, "--model", model) == (
        1, "", "error: ParseError: model c0 must be finite, got 'nan'\n")


# A record that does not parse and one with an element outside C/N/O/F.
UNREADABLE = ["{bad json", record_line("si", ["Si"], [])]
UNREADABLE_REJECTS = (
    "line 1 id=? ParseError: record line is not valid structured text: Expecting "
    "property name enclosed in double quotes: line 1 column 2 (char 1)\n"
    "line 2 id=si UnsupportedElement: unsupported element 'Si' at atom 1\n"
    "2 record(s) rejected\n"
)


def test_the_reject_lines_come_before_the_output(tmp_path):
    data = write(tmp_path, "in.jsonl", *UNREADABLE, METHANE)
    proc = subprocess.run(
        [sys.executable, "-m", "molspace", "cutset", "--input", data],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=child_env(), check=False,
    )
    assert proc.returncode == 1
    assert proc.stdout.decode().startswith(UNREADABLE_REJECTS + "# molspace ")


def test_the_rejects_stay_written_when_the_fold_fails(capsys, tmp_path):
    a = write(tmp_path, "a.jsonl", METHANE)
    b = write(tmp_path, "b.jsonl", *UNREADABLE)
    c = write(tmp_path, "c.jsonl", ETHANE, *UNREADABLE)
    # Every input is read before the fold fails on b.
    assert run(capsys, "kl", a, b, c) == (1, "", "\n".join([
        *UNREADABLE_REJECTS.splitlines()[:2],
        "line 2 id=? ParseError: record line is not valid structured text: Expecting "
        "property name enclosed in double quotes: line 1 column 2 (char 1)",
        "line 3 id=si UnsupportedElement: unsupported element 'Si' at atom 1",
        "4 record(s) rejected",
        "error: EmptyDistribution: table 'b' has no gcn1 occurrences\n"]))
    data = write(tmp_path, "big.jsonl", *HUGE, record_line("w", ["C"], [],
                                                          props={"e0": -40.1}))
    out = tmp_path / "model.txt"
    assert run(capsys, "align", "fit", "--input", data, "--mode", "plain",
               "--out", str(out)) == (1, "", (
        "line 4 id=w MissingProperty: record lacks property 'e1'\n"
        "1 record(s) rejected\n"
        "error: RankDeficient: fit has a coefficient or residual that is not finite\n"
    ))
    assert not out.exists()


def test_out_and_rejects_naming_one_file_is_usage_error(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = write(tmp_path, "in.jsonl", *UNREADABLE, METHANE)
    (tmp_path / "link.txt").symlink_to(tmp_path / "real.txt")
    (tmp_path / "hard.txt").write_text("")
    os.link(tmp_path / "hard.txt", tmp_path / "hard2.txt")
    config = write(tmp_path, "c.json", json.dumps({"rejects": "out.txt"}))
    for argv in (["--out", "same.txt", "--rejects", "same.txt"],
                 ["--out", "./same.txt", "--rejects", str(tmp_path / "same.txt")],
                 ["--out", "link.txt", "--rejects", "real.txt"],
                 ["--out", "hard.txt", "--rejects", "hard2.txt"],
                 ["--out", "out.txt", "--config", config]):
        # Raised before any input is read: the input named here is missing.
        for input_path in (data, "missing.jsonl"):
            assert run(capsys, "cutset", "--input", input_path, *argv) == (
                2, "", f"usage error: --out and --rejects name the same file, {argv[1]}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.json", "hard.txt", "hard2.txt", "in.jsonl", "link.txt"]
    assert (tmp_path / "hard.txt").read_text() == ""
    # '-' names two streams.
    assert run(capsys, "cutset", "--input", data, "--out", "-", "--rejects", "-")[0] == 1


def test_rejects_dash_means_stderr(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = write(tmp_path, "in.jsonl", *UNREADABLE)
    plain = run(capsys, "cutset", "--input", data)
    assert plain[2] == UNREADABLE_REJECTS
    assert run(capsys, "cutset", "--input", data, "--rejects", "-") == plain
    config = write(tmp_path, "c.json", json.dumps({"rejects": "-"}))
    assert run(capsys, "cutset", "--input", data, "--config", config) == plain
    assert not (tmp_path / "-").exists()


@pytest.mark.parametrize("missing", [True, False], ids=["no-parent", "a-directory"])
def test_an_output_path_that_cannot_be_written_is_one_error_line(
    missing, capsys, tmp_path
):
    data = write(tmp_path, "in.jsonl", *UNREADABLE, METHANE)
    path = str(tmp_path / "missing" / "x" if missing else tmp_path)
    refusal = f"error: OutputError: cannot write {path}: "
    # The rejects are written before the output, so a bad --out keeps them.
    code, out, err = run(capsys, "cutset", "--input", data, "--out", path)
    assert (code, out) == (1, "")
    assert err.startswith(UNREADABLE_REJECTS + refusal) and err.count("\n") == 4
    code, out, err = run(capsys, "cutset", "--input", data, "--rejects", path)
    assert (code, out) == (1, "")
    assert err.startswith(refusal) and err.count("\n") == 1
