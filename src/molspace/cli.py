"""Command line interface.

All subcommands write to ``--out`` (default ``-`` for standard output) and
emit deterministic bytes: identical inputs and configuration always give
identical output files. Report-style outputs start with ``#`` header lines
carrying the tool version, the resolved configuration and a SHA-256 digest
of every input. Exit codes: 0 success, 1 data errors (rejected records,
missing references), 2 usage errors.

A structured-text config file (``--config``) may supply any long option;
explicit flags win over the file, which wins over built-in defaults. The
default worker count comes from MOLSPACE_WORKERS.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, replace
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
from .errors import InvalidArgument, MissingProperty, MolspaceError, ParseError
from .molgraph import parse_molfile

WORKERS_ENV = "MOLSPACE_WORKERS"


@dataclass(frozen=True)
class InputText:
    name: str
    text: str
    digest: str


def read_input(path: str) -> InputText:
    """Read a whole input ('-' is standard input) and hash its bytes."""
    if path == "-":
        data = sys.stdin.buffer.read()
        name = "<stdin>"
    else:
        try:
            data = Path(path).read_bytes()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
        name = path
    return InputText(
        name=name, text=data.decode("utf-8"), digest=hashlib.sha256(data).hexdigest()
    )


def header_lines(
    command: str, echo: dict[str, Any], inputs: Iterable[InputText]
) -> list[str]:
    lines = [f"# molspace {__version__} {command}"]
    lines.append("# config " + json.dumps(echo, sort_keys=True, default=str))
    for item in inputs:
        lines.append(f"# input {item.name} sha256={item.digest}")
    return lines


def _finish(
    args: argparse.Namespace,
    cfg: dict[str, Any],
    lines: list[str],
    rejects: list[cov.RejectEntry],
) -> int:
    """Write the output lines, then the reject lines; return the exit code."""
    out = _setting(args, cfg, "out", "-")
    text = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        Path(out).write_text(text, encoding="utf-8")
    if not rejects:
        return 0
    listing = "".join(
        f"line {r.line_no} id={r.record_id or '?'} {r.reason}\n" for r in rejects
    )
    path = _setting(args, cfg, "rejects", None)
    if path:
        Path(path).write_text(listing, encoding="utf-8")
    else:
        sys.stderr.write(listing)
    sys.stderr.write(f"{len(rejects)} record(s) rejected\n")
    return 1


def _default_workers() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _map_ordered(
    fn: Callable[[Any], Any], items: list[Any], workers: int
) -> list[Any]:
    """Order-preserving map, optionally across a process pool.

    The output is a plain ordered list either way, so results do not
    depend on the worker count.
    """
    if workers <= 1 or len(items) < 2:
        return [fn(x) for x in items]
    chunk = max(1, len(items) // (workers * 8))
    with Pool(workers) as pool:
        return pool.map(fn, items, chunksize=chunk)


# ---------------------------------------------------------------------------
# encode / cutset
# ---------------------------------------------------------------------------


def _encode_record(rec: cov.DatasetRecord, mode: str) -> str:
    g = rec.graph
    gcn0, gcn1, gcn2 = rec.codes
    cd = nbg.cut_decomposition(g)
    cls = nbg.nbg_plus_class(cd)
    cores = nbg.nbg0_extract(g, cd.bridges, mode)
    sc = nbg.scaffold(g, mode)
    obj = {
        "id": rec.id,
        "na": g.na,
        "gcn0": gcn0,
        "gcn1": gcn1,
        "gcn2": gcn2,
        "gcn2_level": gcn.gcn2_level(g),
        "cut_vertices": cls.cut_vertex_count,
        "bridges": cls.bridge_count,
        "nbg_level": cls.level,
        "within_plus": cls.within_plus,
        "nbg0": sorted(t.signature for t in cores),
        "scaffold": sc.signature if sc is not None else None,
    }
    return json.dumps(obj, separators=(",", ":"))


def _cutset_record(rec: cov.DatasetRecord, mode: str) -> str:
    cls = nbg.nbg_plus_class(nbg.cut_decomposition(rec.graph))
    return (
        f"{rec.id}\tvc={cls.cut_vertex_count} ec={cls.bridge_count} "
        f"level={cls.level}"
    )


_RENDER = {"encode": _encode_record, "cutset": _cutset_record}


def _accept_molfile(text: str) -> cov.DatasetRecord:
    mol = parse_molfile(text)
    return cov.accept_molecule(replace(mol, id=mol.id or "molfile"))


def _record_task(task: tuple[str, str, str]) -> cov.Verdict:
    """Verdict on one record line; task is (command, mode, line)."""
    command, mode, line = task
    return cov.judge(cov.accept_record, line, partial(_RENDER[command], mode=mode))


def _run_per_record(
    args: argparse.Namespace, cfg: dict[str, Any], command: str
) -> int:
    mode = _setting(args, cfg, "mode", nbg.DEFAULT_MODE)
    workers = int(_setting(args, cfg, "workers", _default_workers()))
    in_format = _setting(args, cfg, "input_format", "records")
    source = read_input(_setting(args, cfg, "input", "-"))
    # The worker count changes scheduling only, never bytes, so it is
    # deliberately left out of the echoed configuration.
    echo = {"mode": mode, "input_format": in_format}

    if in_format == "molfile":
        numbered = [(1, source.text)]
        render = partial(_RENDER[command], mode=mode)
        verdicts = [cov.judge(_accept_molfile, source.text, render)]
    else:
        numbered = cov.record_lines(source.text.splitlines())
        verdicts = _map_ordered(
            _record_task, [(command, mode, line) for _, line in numbered], workers
        )
    body, rejects = cov.admit(numbered, verdicts)
    return _finish(args, cfg, header_lines(command, echo, [source]) + body, rejects)


def cmd_encode(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    return _run_per_record(args, cfg, "encode")


def cmd_cutset(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    return _run_per_record(args, cfg, "cutset")


# ---------------------------------------------------------------------------
# enumeration / generation
# ---------------------------------------------------------------------------


def _parse_elements(spec: str) -> list[str]:
    return sorted(set(spec.replace(",", "")))


def cmd_enumerate(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    elements = _parse_elements(_setting(args, cfg, "elements", "CNOF"))
    if args.level == "gcn0":
        codes = gcn.enumerate_gcn0(elements)
    else:
        codes = gcn.enumerate_gcn1(elements)
    return _finish(args, cfg, sorted(codes, reverse=True), [])


def cmd_count_gcn2(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    source = read_input(_setting(args, cfg, "gcn1_list", "-"))
    codes = [
        line.strip()
        for line in source.text.splitlines()
        if line.strip() and not line.startswith("#")
    ]
    elements_spec = _setting(args, cfg, "elements", None)
    elements = _parse_elements(elements_spec) if elements_spec else None
    total = gcn.count_gcn2(codes, elements)
    return _finish(args, cfg, [str(total)], [])


def cmd_generate_nbg0(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    max_heavy = int(_setting(args, cfg, "max_heavy", 3))
    topologies = nbg.nbg0_generate(max_heavy)
    text = nbg.serialize_topologies(
        topologies, {"generator": "nbg0", "max_heavy": max_heavy, "mode": "skeleton"}
    )
    return _finish(args, cfg, text.splitlines(), [])


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


def cmd_coverage(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    fmt = _setting(args, cfg, "format", "json")
    table, rejects, source = _ingest_path(
        _setting(args, cfg, "input", "-"), _setting(args, cfg, "name", None)
    )
    report = cov.coverage_report(table).to_dict()
    lines = header_lines("coverage", {"format": fmt, "name": table.name}, [source])
    if fmt == "json":
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
    return _finish(args, cfg, lines, rejects)


def _multi_ingest(
    args: argparse.Namespace, cfg: dict[str, Any]
) -> tuple[list[cov.DatasetTable], list[cov.RejectEntry], list[InputText]]:
    paths = args.inputs
    names_spec = _setting(args, cfg, "names", None)
    if names_spec:
        names = [n.strip() for n in str(names_spec).split(",")]
        if len(names) != len(paths):
            raise InvalidArgument(
                f"--names lists {len(names)} names for {len(paths)} inputs"
            )
    else:
        names = [Path(p).stem if p != "-" else "stdin" for p in paths]
        if len(set(names)) != len(names):
            raise InvalidArgument(
                "input basenames collide; pass --names to disambiguate"
            )
    tables: list[cov.DatasetTable] = []
    rejects: list[cov.RejectEntry] = []
    sources: list[InputText] = []
    for path, name in zip(paths, names):
        table, rej, source = _ingest_path(path, name)
        tables.append(table)
        rejects.extend(rej)
        sources.append(source)
    return tables, rejects, sources


def cmd_compare(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    feature = _setting(args, cfg, "feature", "gcn1")
    mode = _setting(args, cfg, "mode", nbg.DEFAULT_MODE)
    tables, rejects, sources = _multi_ingest(args, cfg)
    regions = cov.overlap_report(tables, feature, mode)
    lines = header_lines("compare", {"feature": feature, "mode": mode}, sources)
    lines.append("region\tcount")
    for key, value in regions.items():
        lines.append(f"{key}\t{value}")
    return _finish(args, cfg, lines, rejects)


def cmd_kl(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    feature = _setting(args, cfg, "feature", "gcn1")
    mode = _setting(args, cfg, "mode", nbg.DEFAULT_MODE)
    epsilon = float(_setting(args, cfg, "epsilon", 1e-9))
    tables, rejects, sources = _multi_ingest(args, cfg)
    km = cov.kl_matrix(tables, feature, epsilon, mode)
    lines = header_lines(
        "kl", {"feature": feature, "mode": mode, "epsilon": epsilon}, sources
    )
    lines.append("name\t" + "\t".join(km.names))
    for row_name, row in zip(km.names, km.matrix):
        lines.append(row_name + "\t" + "\t".join(repr(v) for v in row))
    return _finish(args, cfg, lines, rejects)


def cmd_hist(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    prop = _setting(args, cfg, "property", "Na")
    bins_raw = _setting(args, cfg, "bins", "unit")
    bins: int | str = bins_raw if bins_raw == "unit" else int(bins_raw)
    table, rejects, source = _ingest_path(_setting(args, cfg, "input", "-"))
    hist = cov.histogram(table, prop, bins)
    lines = header_lines("hist", {"property": prop, "bins": bins_raw}, [source])
    lines.append(f"# used={hist.used} skipped={hist.skipped} kind={hist.kind}")
    lines.append("low\thigh\tcount")
    for lo, hi, count in hist.entries:
        lines.append(f"{lo!r}\t{hi!r}\t{count}")
    return _finish(args, cfg, lines, rejects)


def cmd_subset(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    gcn2_max = int(_setting(args, cfg, "gcn2_level", 16))
    nbg_max = int(_setting(args, cfg, "nbg_level", 22))
    table, rejects, source = _ingest_path(_setting(args, cfg, "input", "-"))
    ids = cov.expansion_subsets(table, gcn2_max, nbg_max)
    lines = header_lines(
        "subset", {"gcn2_level": gcn2_max, "nbg_level": nbg_max}, [source]
    )
    lines.extend(sorted(ids))
    return _finish(args, cfg, lines, rejects)


def cmd_complement(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    feature = _setting(args, cfg, "feature", "gcn1")
    na_cap_raw = _setting(args, cfg, "na_cap", None)
    na_cap = int(na_cap_raw) if na_cap_raw is not None else None
    train, rej1, src1 = _ingest_path(_setting(args, cfg, "train", "-"))
    eval_table, rej2, src2 = _ingest_path(_setting(args, cfg, "eval", "-"))
    ids = cov.structure_complement(train, eval_table, feature, na_cap)
    lines = header_lines(
        "complement", {"feature": feature, "na_cap": na_cap}, [src1, src2]
    )
    lines.extend(sorted(ids))
    return _finish(args, cfg, lines, rej1 + rej2)


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def cmd_egcn0(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    source = read_input(_setting(args, cfg, "orbitals", "-"))
    rows = load_orbital_lines(source.text.splitlines())
    per_atom: dict[str, list] = {}
    atom_group: dict[str, str | None] = {}
    for atom, group, rec in rows:
        per_atom.setdefault(atom, []).append(rec)
        if atom not in atom_group or atom_group[atom] is None:
            atom_group[atom] = group
    energies = {atom: e_gcn0(recs) for atom, recs in per_atom.items()}
    want_stats = bool(_setting(args, cfg, "stats", False))
    lines = header_lines("egcn0", {"stats": want_stats}, [source])
    if want_stats:
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
    return _finish(args, cfg, lines, [])


def cmd_bind_energy(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    prop = _setting(args, cfg, "property", "e_tot")
    refs_source = read_input(_setting(args, cfg, "refs", "-"))
    refs = load_reference_lines(refs_source.text.splitlines())
    table, rejects, source = _ingest_path(_setting(args, cfg, "input", "-"))
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
    return _finish(args, cfg, lines, rejects)


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------


def cmd_align(args: argparse.Namespace, cfg: dict[str, Any]) -> int:
    action = args.action
    e0_prop = _setting(args, cfg, "e0", "e0")
    table, rejects, source = _ingest_path(_setting(args, cfg, "input", "-"))

    if action == "fit":
        mode = _setting(args, cfg, "mode", "composition")
        ridge = float(_setting(args, cfg, "ridge", align_mod.DEFAULT_RIDGE))
        e1_prop = _setting(args, cfg, "e1", "e1")
        pairs = align_mod.build_features(table, e0_prop, mode, e1_prop)
        model = align_mod.fit(pairs, ridge=ridge, mode=mode)
        lines = header_lines(
            "align fit",
            {"mode": mode, "ridge": ridge, "e0": e0_prop, "e1": e1_prop},
            [source],
        )
        lines.extend(align_mod.save_model(model).splitlines())
    else:
        model_source = read_input(_setting(args, cfg, "model", "-"))
        model = align_mod.load_model(model_source.text)
        if action == "apply":
            pairs = align_mod.build_features(table, e0_prop, model.mode)
            lines = header_lines(
                "align apply", {"e0": e0_prop, "mode": model.mode},
                [source, model_source],
            )
            lines.append("id\taligned")
            for record, (fv, _) in zip(table.records, pairs):
                lines.append(f"{record.id}\t{align_mod.apply(model, fv)!r}")
        else:  # stats
            e1_prop = _setting(args, cfg, "e1", "e1")
            threshold = float(
                _setting(
                    args, cfg, "threshold", align_mod.DEFAULT_OUTLIER_THRESHOLD
                )
            )
            pairs = align_mod.build_features(table, e0_prop, model.mode, e1_prop)
            stats = align_mod.residual_stats(model, pairs, threshold)
            lines = header_lines(
                "align stats",
                {"e0": e0_prop, "e1": e1_prop, "threshold": threshold},
                [source, model_source],
            )
            lines.append(f"n\t{stats.n}")
            lines.append(f"mae\t{stats.mae!r}")
            lines.append(f"rmsd\t{stats.rmsd!r}")
            lines.append(f"outliers\t{stats.outliers}")
    return _finish(args, cfg, lines, rejects)


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


def _setting(
    args: argparse.Namespace, cfg: dict[str, Any], name: str, default: Any
) -> Any:
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in cfg:
        return cfg[name]
    return default


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--out", help="output path, '-' for stdout (default)")
    sp.add_argument("--rejects", help="path for reject entries (default stderr)")
    sp.add_argument("--config", help="structured-text config file")
    sp.add_argument("--workers", type=int, help="worker process count")


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
    sp.add_argument("--input", help="record lines or molfile, '-' for stdin")
    sp.add_argument("--input-format", dest="input_format",
                    choices=("records", "molfile"))
    sp.add_argument("--mode", choices=nbg.MODES)
    _add_common(sp)
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("cutset", help="cut vertex / bridge counts per record")
    sp.add_argument("--input")
    sp.add_argument("--input-format", dest="input_format",
                    choices=("records", "molfile"))
    _add_common(sp)
    sp.set_defaults(func=cmd_cutset)

    sp = sub.add_parser("enumerate", help="enumerate admissible codes")
    sp.add_argument("level", choices=("gcn0", "gcn1"))
    sp.add_argument("--elements", help="element subset, e.g. CNOF or OF")
    _add_common(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("count-gcn2", help="exact level-2 code count")
    sp.add_argument("--gcn1-list", dest="gcn1_list",
                    help="file of level-1 codes, one per line")
    sp.add_argument("--elements")
    _add_common(sp)
    sp.set_defaults(func=cmd_count_gcn2)

    sp = sub.add_parser("generate-nbg0", help="enumerate bridge-free cores")
    sp.add_argument("--max-heavy", dest="max_heavy", type=int)
    _add_common(sp)
    sp.set_defaults(func=cmd_generate_nbg0)

    sp = sub.add_parser("coverage", help="dataset inventory report")
    sp.add_argument("--input")
    sp.add_argument("--name", help="dataset name for the report")
    sp.add_argument("--format", choices=("json", "table"))
    _add_common(sp)
    sp.set_defaults(func=cmd_coverage)

    sp = sub.add_parser("compare", help="type-set overlap regions")
    sp.add_argument("inputs", nargs="+", help="two or three record files")
    sp.add_argument("--feature", choices=cov.TYPE_FEATURES)
    sp.add_argument("--mode", choices=nbg.MODES)
    sp.add_argument("--names", help="comma-separated dataset names")
    _add_common(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("kl", help="pairwise divergence matrix")
    sp.add_argument("inputs", nargs="+")
    sp.add_argument("--feature", choices=cov.TYPE_FEATURES)
    sp.add_argument("--mode", choices=nbg.MODES)
    sp.add_argument("--epsilon", type=float)
    sp.add_argument("--names")
    _add_common(sp)
    sp.set_defaults(func=cmd_kl)

    sp = sub.add_parser("hist", help="property histogram")
    sp.add_argument("--input")
    sp.add_argument("--property")
    sp.add_argument("--bins", help="'unit' or a bin count")
    _add_common(sp)
    sp.set_defaults(func=cmd_hist)

    sp = sub.add_parser("subset", help="records within level thresholds")
    sp.add_argument("--input")
    sp.add_argument("--gcn2-level", dest="gcn2_level", type=int)
    sp.add_argument("--nbg-level", dest="nbg_level", type=int)
    _add_common(sp)
    sp.set_defaults(func=cmd_subset)

    sp = sub.add_parser("complement", help="eval records with unseen types")
    sp.add_argument("--train")
    sp.add_argument("--eval")
    sp.add_argument("--feature", choices=cov.COMPLEMENT_FEATURES)
    sp.add_argument("--na-cap", dest="na_cap", type=int)
    _add_common(sp)
    sp.set_defaults(func=cmd_complement)

    sp = sub.add_parser("egcn0", help="occupation-weighted orbital energies")
    sp.add_argument("--orbitals")
    sp.add_argument("--stats", action="store_const", const=True,
                    help="emit per-group statistics instead of per-atom values")
    _add_common(sp)
    sp.set_defaults(func=cmd_egcn0)

    sp = sub.add_parser("bind-energy", help="total minus atomic references")
    sp.add_argument("--input")
    sp.add_argument("--refs")
    sp.add_argument("--property", help="total-energy property name")
    _add_common(sp)
    sp.set_defaults(func=cmd_bind_energy)

    sp = sub.add_parser("align", help="linear cross-protocol alignment")
    sp.add_argument("action", choices=("fit", "apply", "stats"))
    sp.add_argument("--input")
    sp.add_argument("--mode", choices=align_mod.MODES)
    sp.add_argument("--ridge", type=float)
    sp.add_argument("--e0", help="source-protocol property name")
    sp.add_argument("--e1", help="target-protocol property name")
    sp.add_argument("--model", help="fitted model file (apply/stats)")
    sp.add_argument("--threshold", type=float, help="outlier threshold")
    _add_common(sp)
    sp.set_defaults(func=cmd_align)

    return parser


def _load_config(args: argparse.Namespace) -> dict[str, Any]:
    path = getattr(args, "config", None)
    if not path:
        return {}
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidArgument(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InvalidArgument("config file must hold a single object")
    return {str(k).replace("-", "_"): v for k, v in obj.items()}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return args.func(args, cfg)
    except InvalidArgument as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except MolspaceError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
