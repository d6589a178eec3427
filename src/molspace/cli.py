"""Command line interface.

All subcommands write to ``--out`` (default ``-`` for standard output); a
record command writes its reject lines before that, when its record pass
ends. Bytes are deterministic: identical inputs and configuration always
give identical output files. Report-style outputs start with ``#`` header
lines carrying the tool version, the resolved configuration and a SHA-256
digest of every input. Exit codes: 0 success, 1 data errors (rejected records,
missing references), 2 usage errors.

``build_parser`` declares every setting once: its default, type and
choices. A numeric setting's type converts and checks its value, so a
bad value is a usage error before any input is read. A command declares
only the settings it reads: ``--rejects`` and ``--workers`` belong to the
commands that run the record pass. A structured-text config file
(``--config``) may supply any long option of the command; its values are
checked against that same declaration, so a value a flag could not take
is a usage error. Explicit flags win over the file, which wins over the
declared defaults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import warnings
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple

from . import __version__, align as align_mod, coverage as cov, gcn, nbg
from .descriptors import (
    binding_energy,
    e_gcn0,
    group_stats,
    load_orbital_lines,
    load_reference_lines,
)
from .errors import (
    InvalidArgument,
    MissingProperty,
    MolspaceError,
    NoRecords,
    OutputError,
    ParseError,
)
from .molgraph import LINE_BREAKS, HeavyGraph, load_json, record_lines


class InputText(NamedTuple):
    name: str
    text: str
    digest: str


def read_input(path: str) -> InputText:
    """Read a whole input ('-' is standard input) and hash its bytes.

    An input that cannot be read, or is not UTF-8, is a ParseError.
    """
    if path == "-":
        data = sys.stdin.buffer.read()
        name = "<stdin>"
    else:
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        name = path
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{name} is not valid UTF-8 "
            f"(byte 0x{data[exc.start]:02x} at offset {exc.start})"
        ) from None
    return InputText(name=name, text=text, digest=hashlib.sha256(data).hexdigest())


def _check_stdin(paths: dict[str, str]) -> None:
    """Standard input can be read only once: a usage error, before any
    input is read, when more than one of the inputs (by name) is '-'."""
    names = [name for name, path in paths.items() if path == "-"]
    if len(names) > 1:
        raise InvalidArgument(
            f"standard input can be read once, but {' and '.join(names)} name '-'"
        )


def _check_outputs(out: str, rejects: str) -> None:
    """The reject lines are written, then the output, each to a file of its
    own: a usage error, before any input is read, when --out and --rejects
    name one file, by one path, a link or a hard link. '-' names two
    streams, stdout and stderr."""
    if "-" in (out, rejects):
        return
    try:
        same = os.path.samefile(out, rejects)
    except OSError:  # a file not made yet is named by its path alone
        same = os.path.realpath(out) == os.path.realpath(rejects)
    if same:
        raise InvalidArgument(f"--out and --rejects name the same file, {out}")


def header_lines(
    command: str, echo: dict[str, Any], inputs: Iterable[InputText]
) -> list[str]:
    lines = [f"# molspace {__version__} {command}"]
    lines.append("# config " + json.dumps(echo, sort_keys=True, default=str))
    for item in inputs:
        lines.append(f"# input {item.name} sha256={item.digest}")
    return lines


def _write(lines: Iterable[str], path: str = "-", err: bool = False) -> None:
    """The one writer: each line and a newline, as UTF-8, to the file path or,
    for '-', stdout (stderr with err). Surrogates, argument bytes that are
    not UTF-8, go out as those bytes; with err they are escaped. A path that
    cannot be written is an OutputError; a reader that closes the stream
    ends the run with exit 1."""
    errors = "backslashreplace" if err else "surrogateescape"
    data = (f"{line}\n".encode("utf-8", errors) for line in lines)
    if path != "-":
        try:
            with open(path, "wb") as fh:
                fh.writelines(data)
        except OSError as exc:
            raise OutputError(f"cannot write {path}: {exc}") from exc
        return
    stream = (sys.stderr if err else sys.stdout).buffer
    try:
        stream.writelines(data)
        stream.flush()
    except BrokenPipeError:
        # Python's note on SIGPIPE: the flush at exit must not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        sys.exit(1)


# A command's output lines, which main writes, and the number it rejected.
Output = tuple[list[str], int]


def _record_pass(
    args: argparse.Namespace,
    sources: list[InputText],
    compute: Callable[[HeavyGraph], Any],
    folds: list[Callable[[Iterable[Any]], Any]],
    molfile: bool = False,
) -> tuple[list[Any], list[InputText], int]:
    """Run one record pass over the inputs at --workers, then write one line
    per reject, to --rejects or stderr, and their count to stderr: folds[k]
    of input k's kept values, the sources and the number rejected."""
    values, rejects = cov.ingest(
        [s.text for s in sources], compute, folds, args.workers, molfile)
    if rejects:
        _write((f"line {r.line_no} id={r.record_id or '?'} {r.reason}"
                for r in rejects), args.rejects, err=True)
        _write([f"{len(rejects)} record(s) rejected"], err=True)
    return values, sources, len(rejects)


# ---------------------------------------------------------------------------
# encode / cutset
# ---------------------------------------------------------------------------


# One encoder for every record line; json.dumps would build one per call.
_ENCODE_JSON = json.JSONEncoder(separators=(",", ":")).encode


def _encode_record(g: HeavyGraph, mode: str) -> str:
    gcn0, gcn1, gcn2 = gcn.atom_codes(g)
    cd = nbg.cut_decomposition(g)
    core_sigs = [nbg.topology_of(*core, mode) for core in nbg.nbg0_extract(g, cd.bridges)]
    scaffold_sig = nbg.scaffold_topology(g, core_sigs, mode)
    core_sigs.sort()
    return _ENCODE_JSON({
        "id": g.id,
        "na": g.na,
        "gcn0": gcn0,
        "gcn1": gcn1,
        "gcn2": gcn2,
        "gcn2_level": gcn.gcn2_level(g),
        "cut_vertices": len(cd.cut_vertices),
        "bridges": len(cd.bridges),
        "nbg_level": cd.level,
        "within_plus": cd.within_plus,
        "nbg0": core_sigs,
        "scaffold": scaffold_sig,
    })


def _cutset_record(g: HeavyGraph) -> str:
    cd = nbg.cut_decomposition(g)
    return (
        f"{g.id}\tvc={len(cd.cut_vertices)} ec={len(cd.bridges)} "
        f"level={cd.level}"
    )


def _run_per_record(
    args: argparse.Namespace, command: str, compute: Callable[[Any], str]
) -> Output:
    (body,), sources, rejected = _record_pass(
        args, [read_input(args.input)], compute, [list], args.input_format == "molfile"
    )
    # The worker count changes scheduling only, never bytes, so it is
    # deliberately left out of the echoed configuration.
    echo = {"mode": args.mode, "input_format": args.input_format}
    return header_lines(command, echo, sources) + body, rejected


def cmd_encode(args: argparse.Namespace) -> Output:
    return _run_per_record(args, "encode", partial(_encode_record, mode=args.mode))


def cmd_cutset(args: argparse.Namespace) -> Output:
    return _run_per_record(args, "cutset", _cutset_record)


# ---------------------------------------------------------------------------
# enumeration / generation
# ---------------------------------------------------------------------------


def _parse_elements(spec: str) -> list[str]:
    return sorted(set(spec.replace(",", "")))


def cmd_enumerate(args: argparse.Namespace) -> Output:
    elements = _parse_elements(args.elements)
    if args.level == "gcn0":
        codes = gcn.enumerate_gcn0(elements)
    else:
        codes = gcn.enumerate_gcn1(elements)
    return sorted(codes, reverse=True), 0


def cmd_count_gcn2(args: argparse.Namespace) -> Output:
    source = read_input(args.gcn1_list)
    codes = [code for _, code in record_lines(source.text.splitlines())]
    elements = None if args.elements is None else _parse_elements(args.elements)
    total = gcn.count_gcn2(codes, elements)
    return [str(total)], 0


def cmd_generate_nbg0(args: argparse.Namespace) -> Output:
    lines = [f"# generator=nbg0 max_heavy={args.max_heavy} mode=skeleton"]
    lines.extend(nbg.nbg0_generate(args.max_heavy))
    return lines, 0


# ---------------------------------------------------------------------------
# dataset commands
# ---------------------------------------------------------------------------


def _stem(path: str) -> str:
    return Path(path).stem if path != "-" else "stdin"


def _dataset_names(
    option: str, given: list[str] | None, paths: list[str], separator: str = ""
) -> list[str]:
    """Each input's dataset name: given, the entries of option, or else its
    file stem. A usage error, before any input is read, unless the names are
    distinct and non-empty and none holds separator, or a tab or a line
    break, which would split or widen its output line."""
    if given is None:
        names, hint = [_stem(p) for p in paths], f"; pass {option}"
        fault = f"input basenames must be distinct and non-empty; pass {option}"
    elif len(given) != len(paths):
        raise InvalidArgument(
            f"{option} lists {len(given)} names for {len(paths)} inputs")
    else:
        names, hint = given, ""
        fault = f"{option} must list distinct, non-empty names"
    if not all(names) or len(set(names)) != len(names):
        raise InvalidArgument(fault)
    for name in names:
        if not LINE_BREAKS.isdisjoint(name):
            raise InvalidArgument(
                f"dataset name {name!r} holds a tab or a line break{hint}")
        if separator and separator in name:
            raise InvalidArgument(
                f"dataset name {name!r} holds {separator!r}, the region separator{hint}")
    return names


def cmd_coverage(args: argparse.Namespace) -> Output:
    given = [args.name] if args.name else None
    (name,) = _dataset_names("--name", given, [args.input])
    (report,), sources, rejected = _record_pass(
        args, [read_input(args.input)], cov.coverage_features,
        [partial(cov.coverage_report, name=name)],
    )
    lines = header_lines("coverage", {"format": args.format, "name": name}, sources)
    if args.format == "json":
        lines.append(json.dumps(report, sort_keys=False))
    else:
        flat: list[tuple[str, Any]] = []
        for key, value in report.items():
            if isinstance(value, dict):
                for sub in value:
                    flat.append((f"{key}[{sub}]", value[sub]))
            else:
                flat.append((key, value))
        width = max(len(k) for k, _ in flat)
        for key, value in flat:
            lines.append(f"{key.ljust(width)}  {value}")
    return lines, rejected


def _type_tables(
    args: argparse.Namespace, separator: str = ""
) -> tuple[list[cov.Table], list[InputText], int]:
    """The named type_total of --feature of every input."""
    paths = args.inputs
    given = None if args.names is None else [n.strip() for n in args.names.split(",")]
    names = _dataset_names("--names", given, paths, separator)
    _check_stdin({f"input {k}": path for k, path in enumerate(paths, start=1)})
    compute = partial(cov.record_type_counts, feature=args.feature, mode=args.mode)
    totals, sources, rejected = _record_pass(
        args, [read_input(p) for p in paths], compute, [cov.type_total] * len(paths))
    return list(zip(names, totals)), sources, rejected


def cmd_compare(args: argparse.Namespace) -> Output:
    if not 2 <= len(args.inputs) <= 3:
        raise InvalidArgument(
            f"compare takes two or three inputs, got {len(args.inputs)}"
        )
    tables, sources, rejected = _type_tables(args, separator="&")
    regions = cov.overlap_report(tables)
    lines = header_lines(
        "compare", {"feature": args.feature, "mode": args.mode}, sources
    )
    lines.append("region\tcount")
    for key, value in regions.items():
        lines.append(f"{key}\t{value}")
    return lines, rejected


def cmd_kl(args: argparse.Namespace) -> Output:
    if len(args.inputs) < 2:
        raise InvalidArgument(f"kl takes at least two inputs, got {len(args.inputs)}")
    tables, sources, rejected = _type_tables(args)
    matrix = cov.kl_matrix(tables, args.feature, args.epsilon)
    echo = {"feature": args.feature, "mode": args.mode, "epsilon": args.epsilon}
    lines = header_lines("kl", echo, sources)
    lines.append("name\t" + "\t".join(name for name, _ in tables))
    for (name, _), row in zip(tables, matrix):
        lines.append(name + "\t" + "\t".join(repr(v) for v in row))
    return lines, rejected


def cmd_hist(args: argparse.Namespace) -> Output:
    bins = args.bins if args.bins == "unit" else int(args.bins)
    compute = partial(cov.property_value, prop=args.property)
    (values,), sources, rejected = _record_pass(
        args, [read_input(args.input)], compute, [list])
    hist = cov.histogram(values, bins)
    # bins is echoed as given: "5" from a flag, 5 from a config file.
    echo = {"property": args.property, "bins": args.bins}
    lines = header_lines("hist", echo, sources)
    lines.append(f"# used={hist.used} skipped={hist.skipped} kind={hist.kind}")
    lines.append("low\thigh\tcount")
    for lo, hi, count in hist.entries:
        lines.append(f"{lo!r}\t{hi!r}\t{count}")
    return lines, rejected


def cmd_subset(args: argparse.Namespace) -> Output:
    subset = partial(cov.expansion_subsets, gcn2_max=args.gcn2_level,
                     nbg_max=args.nbg_level)
    (ids,), sources, rejected = _record_pass(
        args, [read_input(args.input)], cov.record_levels, [subset]
    )
    echo = {"gcn2_level": args.gcn2_level, "nbg_level": args.nbg_level}
    lines = header_lines("subset", echo, sources)
    lines.extend(sorted(ids))
    return lines, rejected


def cmd_complement(args: argparse.Namespace) -> Output:
    _check_stdin({"--train": args.train, "--eval": args.eval})
    compute = partial(cov.complement_types, feature=args.feature)
    (known, evals), sources, rejected = _record_pass(
        args, [read_input(args.train), read_input(args.eval)], compute,
        [cov.known_types, list])
    ids = cov.structure_complement(known, evals, args.na_cap)
    echo = {"feature": args.feature, "na_cap": args.na_cap}
    lines = header_lines("complement", echo, sources)
    lines.extend(sorted(ids))
    return lines, rejected


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def cmd_egcn0(args: argparse.Namespace) -> Output:
    source = read_input(args.orbitals)
    rows = load_orbital_lines(source.text.splitlines())
    per_atom: dict[str, list] = {}
    atom_group: dict[str, str | None] = {}
    for atom, group, rec in rows:
        per_atom.setdefault(atom, []).append(rec)
        if atom not in atom_group or atom_group[atom] is None:
            atom_group[atom] = group
    energies = {atom: e_gcn0(recs) for atom, recs in per_atom.items()}
    lines = header_lines("egcn0", {"stats": args.stats}, [source])
    if args.stats:
        pairs = [
            (atom_group[atom], energies[atom])
            for atom in energies
            if atom_group[atom] is not None
        ]
        stats = group_stats(pairs)
        lines.append("group\tcount\tmean\tstd")
        for label in sorted(stats):
            st = stats[label]
            lines.append(f"{label}\t{st.count}\t{st.mean!r}\t{st.std!r}")
    else:
        lines.append("atom\te_gcn0")
        for atom in sorted(energies):
            lines.append(f"{atom}\t{energies[atom]!r}")
    return lines, 0


def _bind_energy_line(g: HeavyGraph, prop: str, refs: dict[str, float]) -> str:
    if prop not in g.props:
        raise MissingProperty(f"record lacks property {prop!r}")
    value = binding_energy(g.props[prop], g.composition(), refs)
    return f"{g.id}\t{value!r}"


def cmd_bind_energy(args: argparse.Namespace) -> Output:
    _check_stdin({"--input": args.input, "--refs": args.refs})
    refs_source = read_input(args.refs)
    refs = load_reference_lines(refs_source.text.splitlines())
    compute = partial(_bind_energy_line, prop=args.property, refs=refs)
    (body,), sources, rejected = _record_pass(
        args, [read_input(args.input)], compute, [list])
    lines = header_lines(
        "bind-energy", {"property": args.property}, sources + [refs_source]
    )
    lines.append("id\te_bind")
    return lines + body, rejected


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------


def _align_record(
    g: HeavyGraph,
    e0_prop: str,
    mode: str,
    target_prop: str | None,
    model: align_mod.AlignmentModel | None,
) -> tuple[str, tuple[align_mod.FeatureVector, Any], float | None]:
    """(id, feature/target pair, aligned value against model or None); a
    record that lacks a property, or has a feature the model lacks, is
    rejected."""
    pair = align_mod.record_features(g, e0_prop, mode, target_prop)
    return g.id, pair, None if model is None else align_mod.apply(model, pair[0])


def cmd_align(args: argparse.Namespace) -> Output:
    action = args.action
    e0_prop, e1_prop = args.e0, args.e1
    if action != "fit":
        _check_stdin({"--input": args.input, "--model": args.model})
    source = read_input(args.input)
    if action == "fit":
        mode, model, model_source = args.mode, None, None
    else:
        model_source = read_input(args.model)
        model = align_mod.load_model(model_source.text)
        mode = model.mode
    target_prop = None if action == "apply" else e1_prop
    compute = partial(_align_record, e0_prop=e0_prop, mode=mode,
                      target_prop=target_prop, model=model)
    (kept,), _, rejected = _record_pass(args, [source], compute, [list])
    if not kept and action != "apply":
        raise NoRecords(f"no record left to {action}")
    pairs = [pair for _, pair, _ in kept]

    if action == "fit":
        model = align_mod.fit(pairs, ridge=args.ridge, mode=mode)
        lines = header_lines(
            "align fit",
            {"mode": mode, "ridge": args.ridge, "e0": e0_prop, "e1": e1_prop},
            [source],
        )
        lines.extend(align_mod.save_model(model).splitlines())
    elif action == "apply":
        lines = header_lines(
            "align apply", {"e0": e0_prop, "mode": mode}, [source, model_source],
        )
        lines.append("id\taligned")
        lines.extend(f"{rec_id}\t{value!r}" for rec_id, _, value in kept)
    else:  # stats
        stats = align_mod.residual_stats(model, pairs, args.threshold)
        lines = header_lines(
            "align stats",
            {"e0": e0_prop, "e1": e1_prop, "threshold": args.threshold},
            [source, model_source],
        )
        lines.append(f"n\t{stats.n}")
        lines.append(f"mae\t{stats.mae!r}")
        lines.append(f"rmsd\t{stats.rmsd!r}")
        lines.append(f"outliers\t{stats.outliers}")
    return lines, rejected


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


# The type of every numeric option is _number with the option's name and
# rule, the one place where a setting is converted and checked: argparse
# applies it to a flag's text and _config_value to a config value. It
# raises InvalidArgument, which argparse lets through, so both sources give
# the same usage error, before any input is read.


def _number(
    name: str, rule: Callable[[str, Any], None], value: Any, kind: Callable = int
) -> Any:
    """Convert a numeric setting, then check it with rule(name, number),
    which raises InvalidArgument naming the setting; a value that
    does not convert is a usage error, not a traceback. A bool is no
    number, and an integer setting takes no fractional part."""
    try:
        if isinstance(value, bool) or (
            kind is int and isinstance(value, float) and not value.is_integer()
        ):
            raise ValueError
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise InvalidArgument(f"{name} must be {noun}, got {value!r}") from None
    rule(name, number)
    return number


def _check_workers(name: str, count: int) -> None:
    if count < 1:
        raise InvalidArgument(f"{name} must be at least 1, got {count}")


def _bins(value: Any) -> Any:
    """'unit' or a bin count, kept as given: the header echoes it."""
    if value != "unit":
        _number("bins", cov.check_bins, value)
    return value


def _config_value(action: argparse.Action, value: Any) -> Any:
    """Check a config-file value against its option's declaration."""
    name = action.dest
    if action.choices is not None:
        if value not in action.choices:
            choices = ", ".join(action.choices)
            raise InvalidArgument(f"{name} must be one of {choices}, got {value!r}")
    elif action.type is not None:
        value = action.type(value)
    elif action.nargs == 0:
        if not isinstance(value, bool):
            raise InvalidArgument(f"{name} must be true or false, got {value!r}")
    elif not isinstance(value, str):
        raise InvalidArgument(f"{name} must be a string, got {value!r}")
    return value


def _add_common(sp: argparse.ArgumentParser, record_pass: bool = True) -> None:
    """--out and --config; and, for a command that runs the record pass,
    --rejects and --workers."""
    sp.add_argument("--out", default="-",
                    help="output path, '-' for stdout (default)")
    sp.add_argument("--config", help="structured-text config file")
    if record_pass:
        sp.add_argument("--rejects", default="-",
                        help="path for reject entries, '-' for stderr (default)")
        sp.add_argument("--workers", type=partial(_number, "workers", _check_workers),
                        default=1, help="worker process count, at least 1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molspace",
        description="Local-valence codes, bridge-free topologies and "
        "dataset coverage analytics for small organic molecules.",
    )
    parser.add_argument(
        "--version", action="version", version=f"molspace {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("encode", help="per-record codes, cut sets and cores")
    sp.add_argument("--input", default="-",
                    help="record lines or molfile, '-' for stdin")
    sp.add_argument("--input-format", dest="input_format", default="records",
                    choices=("records", "molfile"))
    sp.add_argument("--mode", choices=nbg.MODES, default=nbg.DEFAULT_MODE)
    _add_common(sp)
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("cutset", help="cut vertex / bridge counts per record")
    sp.add_argument("--input", default="-")
    sp.add_argument("--input-format", dest="input_format", default="records",
                    choices=("records", "molfile"))
    _add_common(sp)
    # cutset has no --mode; its header echoes the default one.
    sp.set_defaults(func=cmd_cutset, mode=nbg.DEFAULT_MODE)

    sp = sub.add_parser("enumerate", help="enumerate admissible codes")
    sp.add_argument("level", choices=("gcn0", "gcn1"))
    sp.add_argument("--elements", default="CNOF",
                    help="element subset, e.g. CNOF or OF")
    _add_common(sp, record_pass=False)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("count-gcn2", help="exact level-2 code count")
    sp.add_argument("--gcn1-list", dest="gcn1_list", default="-",
                    help="file of level-1 codes, one per line")
    sp.add_argument("--elements")
    _add_common(sp, record_pass=False)
    sp.set_defaults(func=cmd_count_gcn2)

    sp = sub.add_parser("generate-nbg0", help="enumerate bridge-free cores")
    sp.add_argument("--max-heavy", dest="max_heavy", default=3,
                    type=partial(_number, "max_heavy", nbg.check_max_heavy))
    _add_common(sp, record_pass=False)
    sp.set_defaults(func=cmd_generate_nbg0)

    sp = sub.add_parser("coverage", help="dataset inventory report")
    sp.add_argument("--input", default="-")
    sp.add_argument("--name", help="dataset name for the report")
    sp.add_argument("--format", choices=("json", "table"), default="json")
    _add_common(sp)
    sp.set_defaults(func=cmd_coverage)

    sp = sub.add_parser("compare", help="type-set overlap regions")
    sp.add_argument("inputs", nargs="+", help="two or three record files")
    sp.add_argument("--feature", choices=cov.TYPE_FEATURES, default="gcn1")
    sp.add_argument("--mode", choices=nbg.MODES, default=nbg.DEFAULT_MODE)
    sp.add_argument("--names", help="comma-separated dataset names")
    _add_common(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("kl", help="pairwise divergence matrix")
    sp.add_argument("inputs", nargs="+")
    sp.add_argument("--feature", choices=cov.TYPE_FEATURES, default="gcn1")
    sp.add_argument("--mode", choices=nbg.MODES, default=nbg.DEFAULT_MODE)
    sp.add_argument("--epsilon", default=1e-9,
                    type=partial(_number, "epsilon", cov.check_epsilon, kind=float))
    sp.add_argument("--names")
    _add_common(sp)
    sp.set_defaults(func=cmd_kl)

    sp = sub.add_parser("hist", help="property histogram")
    sp.add_argument("--input", default="-")
    sp.add_argument("--property", default="Na")
    sp.add_argument("--bins", type=_bins, default="unit",
                    help="'unit' or a bin count")
    _add_common(sp)
    sp.set_defaults(func=cmd_hist)

    sp = sub.add_parser("subset", help="records within level thresholds")
    sp.add_argument("--input", default="-")
    sp.add_argument("--gcn2-level", dest="gcn2_level", default=16,
                    type=partial(_number, "gcn2_level", cov.check_limit))
    sp.add_argument("--nbg-level", dest="nbg_level", default=22,
                    type=partial(_number, "nbg_level", cov.check_limit))
    _add_common(sp)
    sp.set_defaults(func=cmd_subset)

    sp = sub.add_parser("complement", help="eval records with unseen types")
    sp.add_argument("--train", default="-")
    sp.add_argument("--eval", default="-")
    sp.add_argument("--feature", choices=cov.COMPLEMENT_FEATURES, default="gcn1")
    sp.add_argument("--na-cap", dest="na_cap",
                    type=partial(_number, "na_cap", cov.check_limit))
    _add_common(sp)
    sp.set_defaults(func=cmd_complement)

    sp = sub.add_parser("egcn0", help="occupation-weighted orbital energies")
    sp.add_argument("--orbitals", default="-")
    sp.add_argument("--stats", action="store_true",
                    help="emit per-group statistics instead of per-atom values")
    _add_common(sp, record_pass=False)
    sp.set_defaults(func=cmd_egcn0)

    sp = sub.add_parser("bind-energy", help="total minus atomic references")
    sp.add_argument("--input", default="-")
    sp.add_argument("--refs", default="-")
    sp.add_argument("--property", default="e_tot",
                    help="total-energy property name")
    _add_common(sp)
    sp.set_defaults(func=cmd_bind_energy)

    sp = sub.add_parser("align", help="linear cross-protocol alignment")
    non_negative = align_mod.check_non_negative
    sp.add_argument("action", choices=("fit", "apply", "stats"))
    sp.add_argument("--input", default="-")
    sp.add_argument("--mode", choices=align_mod.MODES, default="composition")
    sp.add_argument("--ridge", default=align_mod.DEFAULT_RIDGE,
                    type=partial(_number, "ridge", non_negative, kind=float))
    sp.add_argument("--e0", default="e0", help="source-protocol property name")
    sp.add_argument("--e1", default="e1", help="target-protocol property name")
    sp.add_argument("--model", default="-",
                    help="fitted model file (apply/stats)")
    sp.add_argument("--threshold", default=align_mod.DEFAULT_OUTLIER_THRESHOLD,
                    type=partial(_number, "threshold", non_negative, kind=float),
                    help="outlier threshold")
    _add_common(sp)
    sp.set_defaults(func=cmd_align)

    return parser


def _install_config(parser: argparse.ArgumentParser, command: str, path: str) -> None:
    """Make a config file's values the command's defaults, so flags still
    win over them. Each value is checked against its option's declaration;
    a key that names no option of the command is ignored, so one file can
    serve several commands."""
    try:
        obj = load_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise InvalidArgument(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidArgument("config file must hold a single object")
    # argparse has no public way to reach a subcommand's parser or options.
    (subparsers,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    sp = subparsers.choices[command]
    options = {a.dest: a for a in sp._actions if a.option_strings and a.dest != "help"}
    settings = {str(k).replace("-", "_"): v for k, v in obj.items()}
    sp.set_defaults(**{
        name: _config_value(options[name], value)
        for name, value in settings.items()
        if name in options
    })


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # The accept rule reads integers up to Python's default digit limit,
    # whatever the environment sets; the caller's limit is restored.
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    with warnings.catch_warnings():
        # One plain line per warning: no source path, line number or code.
        warnings.showwarning = lambda msg, kind, *_: _write(
            [f"warning: {kind.__name__}: {msg}"], err=True)
        try:
            args = parser.parse_args(argv)
            if args.config:
                _install_config(parser, args.command, args.config)
                args = parser.parse_args(argv)
            if "rejects" in args:
                _check_outputs(args.out, args.rejects)
            lines, rejected = args.func(args)
            _write(lines, args.out)
            return 1 if rejected else 0
        except InvalidArgument as exc:
            _write([f"usage error: {exc}"], err=True)
            return 2
        except MolspaceError as exc:
            _write([f"error: {type(exc).__name__}: {exc}"], err=True)
            return 1
        finally:
            sys.set_int_max_str_digits(digits)


if __name__ == "__main__":
    sys.exit(main())
