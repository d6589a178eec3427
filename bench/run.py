"""molspace benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload corpus --seed 1 --seconds 60 --trace 0

Run from the repository root. The benchmark writes its seeded inputs under
``bench/work/``, runs the ``molspace`` CLI from ``./src`` as child
processes in whole rounds that fit in ``--seconds``, checks every
output against expectations computed apart from molspace (``checks.py``),
and prints one JSON object as its last line. Rates are scaled to a
reference host speed measured by ``calibrate``. With ``--trace 1`` it instead
runs one round in child processes (for the checks and the 2-worker
speed-up) and the same commands in-process, plain and traced, and reports
the per-layer numbers of ``layers.py``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
CHILD_TIMEOUT_S = 150
# Encode records whose cut counts the deletion oracle recomputes.
ORACLE_SAMPLE = 300
KL_EPSILON = 1e-9

# Sizes per workload. Every workload runs every timed command, so that every
# end-to-end metric exists on every workload, and each launch lasts seconds.
# "launches" is one round: each command once, some twice, so that every
# command gets a similar share of the measured time. A round takes 15-17 s
# (corpus) and 18-21 s (symmetric) on a 2-core Xeon host, so that a 60 s
# run makes three rounds, or two when the host is slow.
SIZES = {
    "corpus": {"main": 5000, "kl": 4000,
               "launches": ("encode", "encode-w2", "coverage", "kl",
                            "generate-nbg0", "encode-w2")},
    "symmetric": {"main_copies": 2, "repeats": 30,
                  "launches": ("encode", "encode-w2", "coverage", "kl",
                               "encode", "encode-w2", "generate-nbg0")},
}
MAX_HEAVY = 8

# Host-speed calibration. On a shared 2-core Xeon host the speed moved
# between levels about 25% apart that lasted a minute or more, so raw rates
# of whole runs spread by that much whatever the run length. A fixed piece of pure-Python work runs
# in the benchmark's own process before every launch; the rates are scaled
# by the run's mean piece time over CAL_REF_S, the piece's time on a 2-core
# 2.1 GHz Xeon host, to records per second at that host's speed.
CAL_ITERS = 50000
CAL_REF_S = 0.35


def calibrate():
    """Wall time of a fixed piece of pure-Python work: small dicts, tuples,
    sorting and int-to-string, the kind of work molspace does."""
    t0 = time.perf_counter()
    for i in range(CAL_ITERS):
        d = {}
        for j in range(20):
            key = (j * 7 + i) % 13
            d[key] = d.get(key, ()) + (j,)
        sorted(d.items())
        str(i)
    return time.perf_counter() - t0


class BenchError(Exception):
    """The program could not be run; no result is printed."""


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def launch(argv, out_path, hash_seed):
    """Run ``molspace <argv>`` as a child; (wall s, peak RSS MB, output bytes).

    The peak resident set is the child's own, read from wait4; it covers
    the worker processes the child waited for.
    """
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(hash_seed % 2**32))
    env.pop("MOLSPACE_WORKERS", None)
    # measure() compiles the package beforehand; children write no bytecode.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    log_path = out_path + ".log"
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "molspace", *argv, "--out", out_path],
            stdin=subprocess.DEVNULL, stdout=log, stderr=log, env=env,
            cwd=ROOT, start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path, "rb") as log:
            tail = log.read()[-2000:].decode("utf-8", "replace")
        raise BenchError(f"molspace {' '.join(argv[:1])} exited with "
                         f"{proc.returncode}:\n{tail}")
    with open(out_path, "rb") as fh:
        data = fh.read()
    return wall, usage.ru_maxrss / 1024.0, data


class Command:
    def __init__(self, name, argv, records, metric):
        self.name = name
        self.argv = argv
        self.records = records  # items per launch, for the rate
        self.metric = metric
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.digest = None
        self.text = None

    def raw_rate(self):
        """Items per second of wall time over all launches."""
        return self.records * len(self.walls) / sum(self.walls)


def prepare(workload, seed):
    """Write the workload's inputs; return (commands, inputs for the checks)."""
    rng = random.Random(f"{workload}:{seed}")
    size = SIZES[workload]
    path = lambda name: os.path.join(WORK, name)  # noqa: E731
    if workload == "corpus":
        main = wl.corpus_records(rng, size["main"])
        train = wl.corpus_records(rng, size["kl"], "t")
        evals = wl.corpus_records(rng, size["kl"], "e")
        nbg0_types = None
    else:
        union = wl.symmetric_keys(rng, size["repeats"])
        main = wl.write_records(rng, "s", union * size["main_copies"], wl.symmetric_build)
        train, evals = wl.split_tables(rng, union, wl.symmetric_build, (wl.TETRA_TBU,))
        parts = {wl.build_key(r["mol"])[2] for r in main} - {None}
        skeleton = len(parts)
        no_order = skeleton - (1 if {"benzene", "cyclohexane"} <= parts else 0)
        nbg0_types = {"element-order": skeleton, "skeleton": skeleton,
                      "skeleton-no-order": no_order}
    write_jsonl(path("main.jsonl"), main)
    write_jsonl(path("train.jsonl"), train)
    write_jsonl(path("eval.jsonl"), evals)
    max_heavy = MAX_HEAVY
    commands = [
        Command("encode", ["encode", "--input", path("main.jsonl"), "--workers", "1"],
                len(main), "encode_w1_rps"),
        Command("encode-w2", ["encode", "--input", path("main.jsonl"), "--workers", "2"],
                len(main), "encode_w2_rps"),
        Command("coverage", ["coverage", "--input", path("main.jsonl")],
                len(main), "coverage_rps"),
        Command("kl", ["kl", path("train.jsonl"), path("eval.jsonl"),
                       "--feature", "nbg_plus"],
                len(train) + len(evals), "kl_nbg_plus_rps"),
        Command("generate-nbg0", ["generate-nbg0", "--max-heavy", str(max_heavy)],
                None, "generate_cores_per_s"),
    ]
    inputs = {"main": main, "train": train, "eval": evals,
              "nbg0_types": nbg0_types, "max_heavy": max_heavy, "rng": rng}
    return commands, inputs


def run_checks(commands, inputs):
    """Check first-round outputs; return the names of the reference cores
    missing from the generate-nbg0 output (failed lookups)."""
    by_name = {c.name: c for c in commands}
    mols = [checks.Mol(rec) for rec in inputs["main"]]
    sample = set(inputs["rng"].sample(range(len(mols)), min(ORACLE_SAMPLE, len(mols))))
    checks.check_encode(mols, by_name["encode"].text, sample)
    checks.expect(by_name["encode-w2"].digest == by_name["encode"].digest,
                  "encode: 2-worker output differs from 1-worker output")
    checks.check_coverage(mols, by_name["coverage"].text, "main", inputs["nbg0_types"])
    # KL classes: construction key or core name, else the record itself.
    items = [(rec.get("mol", rec["id"]), rec["elements"], checks.Mol(rec).edges)
             for rec in inputs["train"] + inputs["eval"]]
    classes = checks.isomorphism_classes(items)
    n_train = len(inputs["train"])
    checks.check_kl(by_name["kl"].text, ["train", "eval"],
                    [classes[:n_train], classes[n_train:]], KL_EPSILON)
    cores = checks.check_generate(by_name["generate-nbg0"].text, inputs["max_heavy"])
    by_name["generate-nbg0"].records = len(cores)
    return checks.lookup_cores(cores, wl.load_reference_cores())


def measure(workload, seed, seconds, trace):
    t_start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "molspace", "__init__.py")):
        raise BenchError(f"no molspace package under {SRC}; run from the repository root")
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    # Every launch imports the package from bytecode, as from an installed
    # package, in the first run of a checkout too.
    compileall.compile_dir(os.path.join(SRC, "molspace"), quiet=1)
    hash_seeds = itertools.count(seed * 1000)

    # Set-up: one cold launch, interpreter start and package import.
    setup_s, setup_rss, gcn0 = launch(["enumerate", "gcn0"], os.path.join(WORK, "gcn0.txt"),
                                      next(hash_seeds))
    checks.check_gcn0_list(gcn0.decode())

    commands, inputs = prepare(workload, seed)
    by_name = {c.name: c for c in commands}
    launches = [by_name[name] for name in SIZES[workload]["launches"]]
    # Whole rounds, as many as fit in the run: a further round starts only
    # if a round of the mean length so far still ends within --seconds.
    # Each round starts one launch later in the list than the one before,
    # so that no command always runs at the same point of a round.
    rounds = 0
    cal = []
    t_measure = time.perf_counter()
    while True:
        shift = rounds % len(launches)
        for cmd in launches[shift:] + launches[:shift]:
            cal.append(calibrate())
            out = os.path.join(WORK, f"{cmd.name}.out")
            wall, rss, data = launch(cmd.argv, out, next(hash_seeds))
            digest = hashlib.sha256(data).hexdigest()
            if cmd.digest is None:
                cmd.digest, cmd.text = digest, data.decode("utf-8")
            elif digest != cmd.digest:
                raise checks.CheckError(f"{cmd.name}: output bytes differ between launches")
            cmd.walls.append(wall)
            cmd.rss.append(rss)
        rounds += 1
        elapsed = time.perf_counter() - t_measure
        if trace or elapsed * (rounds + 1) / rounds > seconds:
            break
    cal.append(calibrate())
    host_factor = statistics.mean(cal) / CAL_REF_S

    t_checks = time.perf_counter()
    missing = run_checks(commands, inputs)
    checks_s = time.perf_counter() - t_checks
    # Operations: records read by each launch of a record command, plus
    # the reference-core lookups in each generate-nbg0 output.
    per_round = sum(c.records for c in launches if c.name != "generate-nbg0")
    per_round += len(wl.load_reference_cores())
    attempted = per_round * rounds
    failed = len(missing) * rounds
    if missing:
        print(f"missing reference cores: {' '.join(missing)}", file=sys.stderr)

    if trace:
        metrics = traced_metrics(commands)
    else:
        metrics = {"setup_s": (setup_s, "s")}
        for cmd in commands:
            unit = "cores/s" if cmd.name == "generate-nbg0" else "records/s"
            metrics[cmd.metric] = (cmd.raw_rate() * host_factor, unit)
        peak = max([setup_rss] + [max(c.rss) for c in commands])
        metrics["peak_rss_mb"] = (peak, "MB")
    print(f"{workload} seed={seed}: {rounds} round(s) in {t_checks - t_measure:.1f} s, "
          f"checks {checks_s:.1f} s, total {time.perf_counter() - t_start:.1f} s; "
          f"host factor {host_factor:.3f}; unscaled rates: "
          + ", ".join(f"{c.name} {c.raw_rate():.1f}/s" for c in commands),
          file=sys.stderr)
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced_metrics(commands):
    """Plain and traced in-process runs of the 1-worker commands."""
    import layers

    sys.path.insert(0, SRC)
    by_name = {c.name: c for c in commands}
    w2_speedup = statistics.mean(by_name["encode"].walls) / statistics.mean(
        by_name["encode-w2"].walls)
    inproc = []
    for cmd in commands:
        if cmd.name == "encode-w2":
            continue
        out = os.path.join(WORK, f"inproc-{cmd.name}.out")
        inproc.append((cmd.name, cmd.argv + ["--out", out], cmd.records))
    plain_wall, traced_wall, per_command = layers.run_pairs(inproc)
    for name, argv, _records in inproc:
        with open(argv[-1], "rb") as fh:
            checks.expect(hashlib.sha256(fh.read()).hexdigest() == by_name[name].digest,
                          f"{name}: in-process output differs from the child's")
    return layers.layer_metrics(per_command, by_name["generate-nbg0"].records,
                               plain_wall, traced_wall, w2_speedup)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
