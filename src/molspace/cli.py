"""Command line interface.

All subcommands write to ``--out`` (default ``-`` for standard output) and
emit deterministic bytes: identical inputs and configuration always give
identical output files. Report-style outputs start with ``#`` header lines
carrying the tool version, the resolved configuration and a SHA-256 digest
of every input. Exit codes: 0 success, 1 data errors (rejected records,
missing references), 2 usage errors.

``build_parser`` declares every setting once: its default, type and
choices. A structured-text config file (``--config``) may supply any long
option of the command; its values are checked against that same
declaration, so a value a flag could not take is a usage error. Explicit
flags win over the file, which wins over the declared defaults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from functools import partial
from multiprocessing import Pool
from pathlib import Path
from typing import Any, Callable, Iterable

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
    ParseError,
    UnseenFeature,
)
from .molgraph import load_json, parse_molfile

@dataclass(frozen=True)
class InputText:
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


def header_lines(
    command: str, echo: dict[str, Any], inputs: Iterable[InputText]
) -> list[str]:
    lines = [f"# molspace {__version__} {command}"]
    lines.append("# config " + json.dumps(echo, sort_keys=True, default=str))
    for item in inputs:
        lines.append(f"# input {item.name} sha256={item.digest}")
    return lines


def _finish(
    args: argparse.Namespace, lines: list[str], rejects: list[cov.RejectEntry]
) -> int:
    """Write the output lines, then the reject lines; return the exit code."""
    if args.out == "-":
        sys.stdout.writelines(f"{line}\n" for line in lines)
        sys.stdout.flush()
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(f"{line}\n" for line in lines)
    return _write_rejects(args, rejects)


def _write_rejects(args: argparse.Namespace, rejects: list[cov.RejectEntry]) -> int:
    """Write one line per reject, to --rejects or stderr, then the count;
    return the exit code."""
    if not rejects:
        return 0
    listing = "".join(
        f"line {r.line_no} id={r.record_id or '?'} {r.reason}\n" for r in rejects
    )
    if args.rejects:
        # An id with a lone surrogate is escaped, as stderr escapes it.
        Path(args.rejects).write_text(
            listing, encoding="utf-8", errors="backslashreplace"
        )
    else:
        sys.stderr.write(listing)
    sys.stderr.write(f"{len(rejects)} record(s) rejected\n")
    return 1


def _map_ordered(
    fn: Callable[[Any], Any], items: list[Any], workers: int
) -> list[Any]:
    """Order-preserving map, optionally across a process pool.

    The output is a plain ordered list either way, so results do not
    depend on the worker count. The pool has no more processes than there
    are cores or items.
    """
    workers = min(workers, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    chunk = max(1, len(items) // (workers * 8))
    with Pool(workers) as pool:
        return pool.map(fn, items, chunksize=chunk)


# ---------------------------------------------------------------------------
# encode / cutset
# ---------------------------------------------------------------------------


# One encoder for every record line; json.dumps would build one per call.
_ENCODE_JSON = json.JSONEncoder(separators=(",", ":")).encode


def _encode_record(rec: cov.DatasetRecord, mode: str) -> str:
    g = rec.graph
    gcn0, gcn1, gcn2 = gcn.atom_codes(g)
    cd = nbg.cut_decomposition(g)
    cores = nbg.nbg0_extract(g, cd.bridges)
    sc = nbg.scaffold(g)
    core_sigs = [nbg.topology_of(*core, mode) for core in cores]
    if sc is None:
        scaffold_sig = None
    elif sc == cores[0]:
        # The scaffold is the molecule's only core, the same subgraph.
        scaffold_sig = core_sigs[0]
    else:
        scaffold_sig = nbg.topology_of(*sc, mode)
    core_sigs.sort()
    return _ENCODE_JSON({
        "id": rec.id,
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


def _cutset_record(rec: cov.DatasetRecord, mode: str) -> str:
    cd = nbg.cut_decomposition(rec.graph)
    return (
        f"{rec.id}\tvc={len(cd.cut_vertices)} ec={len(cd.bridges)} "
        f"level={cd.level}"
    )


_RENDER = {"encode": _encode_record, "cutset": _cutset_record}


def _accept_molfile(text: str) -> cov.DatasetRecord:
    return cov.accept_molecule(parse_molfile(text))


def _record_task(task: tuple[str, str, str]) -> cov.Verdict:
    """Verdict on one record line; task is (command, mode, line)."""
    command, mode, line = task
    return cov.judge(cov.accept_record, line, partial(_RENDER[command], mode=mode))


def _run_per_record(args: argparse.Namespace, command: str) -> int:
    mode = args.mode
    source = read_input(args.input)
    # The worker count changes scheduling only, never bytes, so it is
    # deliberately left out of the echoed configuration.
    echo = {"mode": mode, "input_format": args.input_format}

    if args.input_format == "molfile":
        numbered = [(1, source.text)]
        render = partial(_RENDER[command], mode=mode)
        verdicts = [cov.judge(_accept_molfile, source.text, render)]
    else:
        numbered = cov.record_lines(source.text.splitlines())
        verdicts = _map_ordered(
            _record_task,
            [(command, mode, line) for _, line in numbered],
            args.workers,
        )
    body, rejects = cov.admit(numbered, verdicts)
    return _finish(args, header_lines(command, echo, [source]) + body, rejects)


def cmd_encode(args: argparse.Namespace) -> int:
    return _run_per_record(args, "encode")


def cmd_cutset(args: argparse.Namespace) -> int:
    return _run_per_record(args, "cutset")


# ---------------------------------------------------------------------------
# enumeration / generation
# ---------------------------------------------------------------------------


def _parse_elements(spec: str) -> list[str]:
    return sorted(set(spec.replace(",", "")))


def cmd_enumerate(args: argparse.Namespace) -> int:
    elements = _parse_elements(args.elements)
    if args.level == "gcn0":
        codes = gcn.enumerate_gcn0(elements)
    else:
        codes = gcn.enumerate_gcn1(elements)
    return _finish(args, sorted(codes, reverse=True), [])


def cmd_count_gcn2(args: argparse.Namespace) -> int:
    source = read_input(args.gcn1_list)
    stripped = (line.strip() for line in source.text.splitlines())
    codes = [code for code in stripped if code and not code.startswith("#")]
    elements = _parse_elements(args.elements) if args.elements else None
    total = gcn.count_gcn2(codes, elements)
    return _finish(args, [str(total)], [])


def cmd_generate_nbg0(args: argparse.Namespace) -> int:
    lines = [f"# generator=nbg0 max_heavy={args.max_heavy} mode=skeleton"]
    lines.extend(nbg.nbg0_generate(args.max_heavy))
    return _finish(args, lines, [])


# ---------------------------------------------------------------------------
# dataset commands
# ---------------------------------------------------------------------------


def _ingest_path(path: str, name: str | None = None) -> tuple[
    cov.DatasetTable, list[cov.RejectEntry], InputText
]:
    source = read_input(path)
    table_name = name or (Path(path).stem if path != "-" else "stdin")
    table, rejects = cov.ingest(source.text.splitlines(), table_name)
    return table, rejects, source


def cmd_coverage(args: argparse.Namespace) -> int:
    table, rejects, source = _ingest_path(args.input, args.name)
    report = cov.coverage_report(table)
    lines = header_lines(
        "coverage", {"format": args.format, "name": table.name}, [source]
    )
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
    return _finish(args, lines, rejects)


def _multi_ingest(
    args: argparse.Namespace,
) -> tuple[list[cov.DatasetTable], list[cov.RejectEntry], list[InputText]]:
    paths = args.inputs
    if args.names is not None:
        names = [n.strip() for n in args.names.split(",")]
        if len(names) != len(paths):
            raise InvalidArgument(
                f"--names lists {len(names)} names for {len(paths)} inputs"
            )
        fault = "--names must list distinct, non-empty names"
    else:
        names = [Path(p).stem if p != "-" else "stdin" for p in paths]
        fault = "input basenames collide; pass --names to disambiguate"
    if not all(names) or len(set(names)) != len(names):
        raise InvalidArgument(fault)
    tables: list[cov.DatasetTable] = []
    rejects: list[cov.RejectEntry] = []
    sources: list[InputText] = []
    for path, name in zip(paths, names):
        table, rej, source = _ingest_path(path, name)
        tables.append(table)
        rejects.extend(rej)
        sources.append(source)
    return tables, rejects, sources


def cmd_compare(args: argparse.Namespace) -> int:
    tables, rejects, sources = _multi_ingest(args)
    regions = cov.overlap_report(tables, args.feature, args.mode)
    lines = header_lines(
        "compare", {"feature": args.feature, "mode": args.mode}, sources
    )
    lines.append("region\tcount")
    for key, value in regions.items():
        lines.append(f"{key}\t{value}")
    return _finish(args, lines, rejects)


def cmd_kl(args: argparse.Namespace) -> int:
    tables, rejects, sources = _multi_ingest(args)
    matrix = cov.kl_matrix(tables, args.feature, args.epsilon, args.mode)
    echo = {"feature": args.feature, "mode": args.mode, "epsilon": args.epsilon}
    lines = header_lines("kl", echo, sources)
    lines.append("name\t" + "\t".join(t.name for t in tables))
    for t, row in zip(tables, matrix):
        lines.append(t.name + "\t" + "\t".join(repr(v) for v in row))
    return _finish(args, lines, rejects)


def cmd_hist(args: argparse.Namespace) -> int:
    bins = args.bins if args.bins == "unit" else int(args.bins)
    table, rejects, source = _ingest_path(args.input)
    hist = cov.histogram(table, args.property, bins)
    # bins is echoed as given: "5" from a flag, 5 from a config file.
    echo = {"property": args.property, "bins": args.bins}
    lines = header_lines("hist", echo, [source])
    lines.append(f"# used={hist.used} skipped={hist.skipped} kind={hist.kind}")
    lines.append("low\thigh\tcount")
    for lo, hi, count in hist.entries:
        lines.append(f"{lo!r}\t{hi!r}\t{count}")
    return _finish(args, lines, rejects)


def cmd_subset(args: argparse.Namespace) -> int:
    table, rejects, source = _ingest_path(args.input)
    ids = cov.expansion_subsets(table, args.gcn2_level, args.nbg_level)
    echo = {"gcn2_level": args.gcn2_level, "nbg_level": args.nbg_level}
    lines = header_lines("subset", echo, [source])
    lines.extend(sorted(ids))
    return _finish(args, lines, rejects)


def cmd_complement(args: argparse.Namespace) -> int:
    train, rej1, src1 = _ingest_path(args.train)
    eval_table, rej2, src2 = _ingest_path(args.eval)
    ids = cov.structure_complement(train, eval_table, args.feature, args.na_cap)
    echo = {"feature": args.feature, "na_cap": args.na_cap}
    lines = header_lines("complement", echo, [src1, src2])
    lines.extend(sorted(ids))
    return _finish(args, lines, rej1 + rej2)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def cmd_egcn0(args: argparse.Namespace) -> int:
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
    return _finish(args, lines, [])


def cmd_bind_energy(args: argparse.Namespace) -> int:
    prop = args.property
    refs_source = read_input(args.refs)
    refs = load_reference_lines(refs_source.text.splitlines())
    table, rejects, source = _ingest_path(args.input)
    lines = header_lines(
        "bind-energy", {"property": prop}, [source, refs_source]
    )
    lines.append("id\te_bind")
    for record in table.records:
        try:
            if prop not in record.properties:
                raise MissingProperty(f"record lacks property {prop!r}")
            value = binding_energy(
                record.properties[prop], record.graph.composition(), refs
            )
        except MolspaceError as exc:
            rejects.append(
                cov.RejectEntry(record.line_no, record.id, cov.reject_reason(exc))
            )
            continue
        lines.append(f"{record.id}\t{value!r}")
    return _finish(args, lines, rejects)


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------


def cmd_align(args: argparse.Namespace) -> int:
    action = args.action
    e0_prop, e1_prop = args.e0, args.e1
    table, rejects, source = _ingest_path(args.input)

    def kept(
        mode: str, target_prop: str | None, model: align_mod.AlignmentModel | None
    ) -> list[tuple[cov.DatasetRecord, tuple[align_mod.FeatureVector, Any]]]:
        """(record, feature/target pair) of each record that has the
        properties and, against a model, no feature the model lacks; every
        other record becomes a reject entry."""
        out = []
        for record in table.records:
            try:
                pair = align_mod.record_features(record, e0_prop, mode, target_prop)
                if model is not None:
                    align_mod.apply(model, pair[0])
            except (MissingProperty, UnseenFeature) as exc:
                rejects.append(
                    cov.RejectEntry(record.line_no, record.id, cov.reject_reason(exc))
                )
                continue
            out.append((record, pair))
        return out

    def pairs_left(mode: str, model: align_mod.AlignmentModel | None) -> list:
        """The kept pairs; with none left, the rejects, then an error."""
        pairs = [pair for _, pair in kept(mode, e1_prop, model)]
        if not pairs:
            _write_rejects(args, rejects)
            raise NoRecords(f"no record left to {action}")
        return pairs

    if action == "fit":
        pairs = pairs_left(args.mode, None)
        model = align_mod.fit(pairs, ridge=args.ridge, mode=args.mode)
        lines = header_lines(
            "align fit",
            {"mode": args.mode, "ridge": args.ridge, "e0": e0_prop, "e1": e1_prop},
            [source],
        )
        lines.extend(align_mod.save_model(model).splitlines())
    else:
        model_source = read_input(args.model)
        model = align_mod.load_model(model_source.text)
        if action == "apply":
            lines = header_lines(
                "align apply", {"e0": e0_prop, "mode": model.mode},
                [source, model_source],
            )
            lines.append("id\taligned")
            for record, (fv, _) in kept(model.mode, None, model):
                lines.append(f"{record.id}\t{align_mod.apply(model, fv)!r}")
        else:  # stats
            stats = align_mod.residual_stats(
                model, pairs_left(model.mode, model), args.threshold
            )
            lines = header_lines(
                "align stats",
                {"e0": e0_prop, "e1": e1_prop, "threshold": args.threshold},
                [source, model_source],
            )
            lines.append(f"n\t{stats.n}")
            lines.append(f"mae\t{stats.mae!r}")
            lines.append(f"rmsd\t{stats.rmsd!r}")
            lines.append(f"outliers\t{stats.outliers}")
    return _finish(args, lines, rejects)


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _number(name: str, value: Any, kind: Callable[[Any], Any] = int) -> Any:
    """Convert a numeric setting; a value that does not convert is a usage
    error, not a traceback. A bool is no number, and an integer setting
    takes no fractional part."""
    try:
        if isinstance(value, bool) or (
            kind is int and isinstance(value, float) and not value.is_integer()
        ):
            raise ValueError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise InvalidArgument(f"{name} must be {noun}, got {value!r}") from None


# Option types that argparse applies to a flag's text and _config_value to
# a config value. Each raises InvalidArgument, which argparse lets through,
# so both sources give the same usage error.


def _workers(value: Any) -> int:
    count = _number("workers", value)
    if count < 1:
        raise InvalidArgument(f"workers must be at least 1, got {count}")
    return count


def _bins(value: Any) -> Any:
    """'unit' or a bin count, kept as given: the header echoes it."""
    if value != "unit":
        _number("bins", value)
    return value


def _config_value(action: argparse.Action, value: Any) -> Any:
    """Check a config-file value against its option's declaration."""
    name = action.dest
    if action.choices is not None:
        if value not in action.choices:
            choices = ", ".join(action.choices)
            raise InvalidArgument(f"{name} must be one of {choices}, got {value!r}")
    elif action.type in (int, float):
        value = _number(name, value, action.type)
    elif action.type is not None:
        value = action.type(value)
    elif action.nargs == 0:
        if not isinstance(value, bool):
            raise InvalidArgument(f"{name} must be true or false, got {value!r}")
    elif not isinstance(value, str):
        raise InvalidArgument(f"{name} must be a string, got {value!r}")
    return value


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", default="-",
                    help="output path, '-' for stdout (default)")
    sp.add_argument("--rejects", help="path for reject entries (default stderr)")
    sp.add_argument("--config", help="structured-text config file")
    sp.add_argument("--workers", type=_workers, default=1,
                    help="worker process count, at least 1")


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
    _add_common(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("count-gcn2", help="exact level-2 code count")
    sp.add_argument("--gcn1-list", dest="gcn1_list", default="-",
                    help="file of level-1 codes, one per line")
    sp.add_argument("--elements")
    _add_common(sp)
    sp.set_defaults(func=cmd_count_gcn2)

    sp = sub.add_parser("generate-nbg0", help="enumerate bridge-free cores")
    sp.add_argument("--max-heavy", dest="max_heavy", type=int, default=3)
    _add_common(sp)
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
    sp.add_argument("--epsilon", type=float, default=1e-9)
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
    sp.add_argument("--gcn2-level", dest="gcn2_level", type=int, default=16)
    sp.add_argument("--nbg-level", dest="nbg_level", type=int, default=22)
    _add_common(sp)
    sp.set_defaults(func=cmd_subset)

    sp = sub.add_parser("complement", help="eval records with unseen types")
    sp.add_argument("--train", default="-")
    sp.add_argument("--eval", default="-")
    sp.add_argument("--feature", choices=cov.COMPLEMENT_FEATURES, default="gcn1")
    sp.add_argument("--na-cap", dest="na_cap", type=int)
    _add_common(sp)
    sp.set_defaults(func=cmd_complement)

    sp = sub.add_parser("egcn0", help="occupation-weighted orbital energies")
    sp.add_argument("--orbitals", default="-")
    sp.add_argument("--stats", action="store_true",
                    help="emit per-group statistics instead of per-atom values")
    _add_common(sp)
    sp.set_defaults(func=cmd_egcn0)

    sp = sub.add_parser("bind-energy", help="total minus atomic references")
    sp.add_argument("--input", default="-")
    sp.add_argument("--refs", default="-")
    sp.add_argument("--property", default="e_tot",
                    help="total-energy property name")
    _add_common(sp)
    sp.set_defaults(func=cmd_bind_energy)

    sp = sub.add_parser("align", help="linear cross-protocol alignment")
    sp.add_argument("action", choices=("fit", "apply", "stats"))
    sp.add_argument("--input", default="-")
    sp.add_argument("--mode", choices=align_mod.MODES, default="composition")
    sp.add_argument("--ridge", type=float, default=align_mod.DEFAULT_RIDGE)
    sp.add_argument("--e0", default="e0", help="source-protocol property name")
    sp.add_argument("--e1", default="e1", help="target-protocol property name")
    sp.add_argument("--model", default="-",
                    help="fitted model file (apply/stats)")
    sp.add_argument("--threshold", type=float,
                    default=align_mod.DEFAULT_OUTLIER_THRESHOLD,
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
    try:
        args = parser.parse_args(argv)
        if args.config:
            _install_config(parser, args.command, args.config)
            args = parser.parse_args(argv)
        return args.func(args)
    except InvalidArgument as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MolspaceError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
