"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Run from the repository root. It runs molspace on small seeded inputs,
shows that the checks pass on the real outputs, then feeds each check a
corrupted copy and shows that the corruption is caught: one flipped bond
order in one encode line, one dropped encode record, one duplicated core,
one core with a bridge, and one perturbed KL entry. Exits 1 if a clean
output fails or a corruption passes.
"""

from __future__ import annotations

import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

MAX_HEAVY = 6


def encode_signature(n, edges):
    tri = ["0"] * (n * (n - 1) // 2)
    for a, b, o in edges:
        a, b = min(a, b), max(a, b)
        tri[a * (2 * n - a - 1) // 2 + (b - a - 1)] = str(o)
    return ",".join(["C"] * n) + "|" + "".join(tri)


def flip_bond_order(text):
    lines = text.split("\n")
    for k, line in enumerate(lines):
        if line.startswith("{") and json.loads(line)["nbg0"]:
            obj = json.loads(line)
            labels, tri = obj["nbg0"][0].split("|")
            pos = next(i for i, ch in enumerate(tri) if ch in "12")
            tri = tri[:pos] + ("2" if tri[pos] == "1" else "1") + tri[pos + 1:]
            obj["nbg0"][0] = labels + "|" + tri
            lines[k] = json.dumps(obj, separators=(",", ":"))
            return "\n".join(lines)
    raise RuntimeError("no encode line with a core")


def drop_record(text):
    lines = text.split("\n")
    body = [k for k, line in enumerate(lines) if line.startswith("{")]
    del lines[body[len(body) // 2]]
    return "\n".join(lines)


def duplicate_core(text):
    lines = text.split("\n")
    return "\n".join(lines[:2] + lines[1:])


def bridged_core(text):
    two_triangles = [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1),
                     (3, 5, 1), (2, 3, 1)]
    lines = text.split("\n")
    lines[1] = encode_signature(6, two_triangles)
    return "\n".join(lines)


def perturb_kl(text):
    lines = text.split("\n")
    k = next(i for i, line in enumerate(lines) if line.startswith("train\t"))
    cells = lines[k].split("\t")
    cells[2] = repr(float(cells[2]) * (1 + 1e-6))
    lines[k] = "\t".join(cells)
    return "\n".join(lines)


def main():
    work = os.path.join(run.WORK, "selftest")
    os.makedirs(work, exist_ok=True)
    rng = random.Random("selftest")
    records = wl.corpus_records(rng, 300)
    train, evals = wl.corpus_records(rng, 80, "t"), wl.corpus_records(rng, 80, "e")
    paths = {}
    for name, recs in (("main", records), ("train", train), ("eval", evals)):
        paths[name] = os.path.join(work, f"{name}.jsonl")
        run.write_jsonl(paths[name], recs)

    def output(*argv):
        out = os.path.join(work, f"{argv[0]}.out")
        return run.launch(list(argv), out, 0)[2].decode("utf-8")

    encoded = output("encode", "--input", paths["main"], "--workers", "1")
    kl = output("kl", paths["train"], paths["eval"], "--feature", "nbg_plus")
    generated = output("generate-nbg0", "--max-heavy", str(MAX_HEAVY))
    items = [(r["id"], r["elements"], checks.Mol(r).edges) for r in train + evals]
    classes = checks.isomorphism_classes(items)
    sample = set(range(len(records)))
    mols = [checks.Mol(r) for r in records]
    cases = [
        ("encode", lambda t: checks.check_encode(mols, t, sample), encoded,
         [("flipped bond order", flip_bond_order), ("dropped record", drop_record)]),
        ("generate-nbg0", lambda t: checks.check_generate(t, MAX_HEAVY), generated,
         [("duplicated core", duplicate_core), ("core with a bridge", bridged_core)]),
        ("kl", lambda t: checks.check_kl(t, ["train", "eval"],
                                         [classes[:len(train)], classes[len(train):]],
                                         run.KL_EPSILON), kl,
         [("perturbed entry", perturb_kl)]),
    ]
    ok = True
    for name, check, clean, corruptions in cases:
        try:
            check(clean)
            print(f"{name}: clean output passes")
        except checks.CheckError as exc:
            print(f"{name}: clean output FAILS: {exc}")
            ok = False
        for label, corrupt in corruptions:
            try:
                check(corrupt(clean))
                print(f"{name}: {label} NOT caught")
                ok = False
            except checks.CheckError as exc:
                print(f"{name}: {label} caught: {exc}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
