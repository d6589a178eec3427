"""Per-layer numbers from one in-process run of the workload's commands.

The tracer wraps public functions of molspace's modules and replaces them
in every module namespace that holds them (``nbg`` imports ``validate`` by
name, ``cli`` imports ``parse_record_line`` by name, and so on). Each
wrapper counts calls and measures total, self (minus wrapped callees) and
worst-case time. Nothing in ``src/`` changes.
"""

from __future__ import annotations

import importlib
import time

TARGETS = (
    ("molgraph", "parse_record_line"),
    ("molgraph", "heavy_graph"),
    ("molgraph", "validate"),
    ("gcn", "atom_codes"),
    ("gcn", "gcn2_level"),
    ("nbg", "cut_decomposition"),
    ("nbg", "nbg0_extract"),
    ("nbg", "scaffold"),
    ("nbg", "canonical_signature"),
    ("nbg", "nbg0_generate"),
    ("coverage", "ingest"),
    ("coverage", "record_type_counts"),
    ("coverage", "coverage_report"),
    ("coverage", "kl_matrix"),
)
MODULES = ("molgraph", "gcn", "nbg", "coverage", "cli", "align", "descriptors")


class Stat:
    __slots__ = ("calls", "total", "self", "max")

    def __init__(self):
        self.calls = 0
        self.total = self.self = self.max = 0.0


class Tracer:
    """Counts and times calls; ``stats`` is swapped per command."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = Stat()
                st.calls += 1
                st.total += dt
                st.self += dt - children[0]
                if dt > st.max:
                    st.max = dt

        return wrapper

    def install(self):
        mods = [importlib.import_module(f"molspace.{m}") for m in MODULES]
        for mod_name, fn_name in TARGETS:
            original = getattr(importlib.import_module(f"molspace.{mod_name}"), fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in mods:
                if getattr(mod, fn_name, None) is original:
                    self._undo.append((mod, fn_name, original))
                    setattr(mod, fn_name, wrapper)

    def uninstall(self):
        for mod, fn_name, original in reversed(self._undo):
            setattr(mod, fn_name, original)
        self._undo.clear()


def _cycle(n):
    return ("C",) * n, [(i, (i + 1) % n, 1) for i in range(n)]


def symmetric_graphs():
    """The ten symmetric graphs of the acceptance suite's signature test."""
    k4 = ("C",) * 4, [(a, b, 1) for a in range(4) for b in range(a + 1, 4)]
    k33 = ("C",) * 6, [(a, b, 1) for a in range(3) for b in range(3, 6)]
    prism3 = ("C",) * 6, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1),
                          (3, 5, 1), (0, 3, 1), (1, 4, 1), (2, 5, 1)]
    pentaprism = ("C",) * 10, ([(i, (i + 1) % 5, 1) for i in range(5)]
                               + [(5 + i, 5 + (i + 1) % 5, 1) for i in range(5)]
                               + [(i, i + 5, 1) for i in range(5)])
    petersen = ("C",) * 10, ([(i, (i + 1) % 5, 1) for i in range(5)]
                             + [(5 + i, 5 + (i + 2) % 5, 1) for i in range(5)]
                             + [(i, i + 5, 1) for i in range(5)])
    cube = ("C",) * 8, [(a, b, 1) for a in range(8) for b in range(a + 1, 8)
                        if bin(a ^ b).count("1") == 1]
    mobius8 = ("C",) * 8, ([(i, (i + 1) % 8, 1) for i in range(8)]
                           + [(i, i + 4, 1) for i in range(4)])
    wheel6 = ("C",) * 6, ([(0, 1 + i, 1) for i in range(5)]
                          + [(1 + i, 1 + (i + 1) % 5, 1) for i in range(5)])
    return [_cycle(6), _cycle(8), k4, k33, prism3, pentaprism, petersen, cube,
            mobius8, wheel6]


def symmetric_us(repeats=5):
    """Mean microseconds per canonical_signature call over the ten graphs."""
    from molspace.nbg import canonical_signature

    graphs = symmetric_graphs()
    t0 = time.perf_counter()
    for _ in range(repeats):
        for labels, edges in graphs:
            canonical_signature(labels, edges)
    return (time.perf_counter() - t0) / (repeats * len(graphs)) * 1e6


def run_pairs(commands):
    """Run each (command, argv, records) in-process, plain then traced.

    Alternating per command keeps slow drift in host speed out of the
    overhead ratio. Returns (plain s, traced s, [(command, records, stats)]).
    """
    from molspace import cli

    tracer = Tracer()
    plain = traced = 0.0
    per_command = []
    for name, argv, records in commands:
        t0 = time.perf_counter()
        _call(cli.main, name, argv)
        plain += time.perf_counter() - t0
        tracer.stats = {}
        tracer.install()
        try:
            main = tracer.wrap("cli.main", cli.main)
            t0 = time.perf_counter()
            _call(main, name, argv)
            traced += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        per_command.append((name, records, tracer.stats))
    return plain, traced, per_command


def _call(main, name, argv):
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"in-process {name} exited with {code}")


def layer_metrics(per_command, cores_out, plain_wall, traced_wall, w2_speedup):
    """The per-layer metrics, as {name: (value, unit)}."""
    total: dict[str, Stat] = {}
    for _name, _records, stats in per_command:
        for key, st in stats.items():
            agg = total.setdefault(key, Stat())
            agg.calls += st.calls
            agg.total += st.total
            agg.self += st.self
            agg.max = max(agg.max, st.max)
    by_name = {name: (records, stats) for name, records, stats in per_command}

    def get(stats, key):
        return stats.get(key) or Stat()

    def per_call(key, attr="total", scale=1e6):
        st = get(total, key)
        return getattr(st, attr) / st.calls * scale if st.calls else 0.0

    enc_records, enc_stats = by_name["encode"]
    gen_stats = by_name["generate-nbg0"][1]
    candidates = get(gen_stats, "molgraph.validate").calls
    ingested = sum(r for n, r, _ in per_command if n in ("coverage", "kl"))
    record_cmds = [(r, s) for n, r, s in per_command if n != "generate-nbg0"]
    cli_self = sum(get(s, "cli.main").self for _r, s in record_cmds)
    cli_records = sum(r for r, _s in record_cmds)
    out = {
        "molgraph.parse_record_line.us": (per_call("molgraph.parse_record_line"), "us/call"),
        "molgraph.heavy_graph.us": (per_call("molgraph.heavy_graph"), "us/call"),
        "molgraph.validate.us": (per_call("molgraph.validate"), "us/call"),
        "gcn.atom_codes.us": (per_call("gcn.atom_codes"), "us/call"),
        "gcn.gcn2_level.us": (per_call("gcn.gcn2_level"), "us/call"),
        "nbg.cut_decomposition.us": (per_call("nbg.cut_decomposition"), "us/call"),
        "nbg.cut_decomposition.calls_per_record": (
            get(enc_stats, "nbg.cut_decomposition").calls / enc_records, "count"),
        "nbg.nbg0_extract.self_us": (per_call("nbg.nbg0_extract", "self"), "us/call"),
        "nbg.scaffold.self_us": (per_call("nbg.scaffold", "self"), "us/call"),
        "nbg.canonical_signature.calls": (get(total, "nbg.canonical_signature").calls, "count"),
        "nbg.canonical_signature.us": (per_call("nbg.canonical_signature"), "us/call"),
        "nbg.canonical_signature.max_ms": (get(total, "nbg.canonical_signature").max * 1e3, "ms"),
        "nbg.canonical_signature.symmetric_us": (symmetric_us(), "us/call"),
        "nbg.nbg0_generate.candidates": (candidates, "count"),
        "nbg.nbg0_generate.yield": (cores_out / candidates if candidates else 0.0, "ratio"),
        "nbg.nbg0_generate.self_s": (get(gen_stats, "nbg.nbg0_generate").self, "s"),
        "coverage.ingest.self_us": (
            get(total, "coverage.ingest").self / ingested * 1e6, "us/record"),
        "coverage.record_type_counts.self_us": (
            per_call("coverage.record_type_counts", "self"), "us/call"),
        "coverage.coverage_report.self_s": (
            per_call("coverage.coverage_report", "self", 1.0), "s"),
        "coverage.kl_matrix.self_s": (per_call("coverage.kl_matrix", "self", 1.0), "s"),
        "cli.main.self_us_per_record": (cli_self / cli_records * 1e6, "us/record"),
        "cli.encode.w2_speedup": (w2_speedup, "ratio"),
        "trace.overhead": (traced_wall / plain_wall, "ratio"),
    }
    return out
