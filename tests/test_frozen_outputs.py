"""Output bytes of the record commands on a seeded corpus, frozen.

Each digest is the sha256 of one command's ``--out`` file, header lines
included, computed by the code before core extraction and
canonicalization were split apart; the ``nbg_plus`` digests were computed
by the code before refinement became incremental. A refactor must keep
every byte; a deliberate change to an output must say so in CHANGES.md
and update its digest here.
"""

import hashlib
import json
import random

import pytest

from molspace.cli import main

from conftest import random_molecule_record

CORPUS_SEED = 97
CORPUS_SIZE = 300

# argv (inputs relative to the working directory) -> sha256 of --out.
# a.jsonl and b.jsonl are the two halves of corpus.jsonl.
FROZEN_SHA256 = {
    "encode --input corpus.jsonl --mode element-order":
        "77ca01f0005a6c20f43e12c763455bad2f478f3090c936f9358957bc5dbf33ff",
    "encode --input corpus.jsonl --mode skeleton":
        "47b3720c7a6a27a2b448576de024feb24894ef8038657441639e4297281c1a22",
    "encode --input corpus.jsonl --mode skeleton-no-order":
        "0e5479f9e120839d62af5d7142fd0b4787604f87053a8e34c5e4d520f22c575a",
    "coverage --input corpus.jsonl --format json":
        "b57da2f6509e13b206e80f3dd5756e3ab72044ed77429a384fb4c74b333f33fd",
    "kl a.jsonl b.jsonl --feature nbg0":
        "66086a1649f8d32f45af0ca5e5b68bb83dd3173ff70be6f833fb8c12b232bfeb",
    "kl a.jsonl b.jsonl --feature scaffold":
        "32aded3fd6c4c34f0442b394e024684c0625d2645d0c752eef013ff17ec55523",
    "compare a.jsonl b.jsonl --feature nbg0":
        "2b08a46e82a73296520fb78040876f0684e852a2e7e3215af7d029ec569d7377",
    "compare a.jsonl b.jsonl --feature scaffold":
        "5741a7e36e94c6e8d643df2d3fe5efc7222037a087a77d50b3cbf04f8cee2e9e",
    # Whole molecules, canonicalized with labels and bond orders.
    "kl a.jsonl b.jsonl --feature nbg_plus":
        "420ddf21f2c3b0ea3b173db618ca564e29402869f6fd5441b519d1917d45c995",
    "compare a.jsonl b.jsonl --feature nbg_plus":
        "6cfe30fb1cfacb39dbc7cf9ddb73e12325648cbe80405ceca8065fe8aa681080",
    "compare a.jsonl b.jsonl --feature nbg_plus --mode element-order":
        "02ea780d55a6e010e23107c51e767a878bffc696eb89e8cb410a0d1dd4f1476a",
    # Computed by the code that still had the cut-set, coverage-report and
    # divergence-matrix result types.
    "cutset --input corpus.jsonl":
        "dbd6088e8ff88e53e867699669cf568ddfba7429ada4568cd35387cd71012a55",
    "coverage --input corpus.jsonl --format table":
        "85fce3871acb45a26d443ca9c080347cccd8846d09327befcc6c9ebcf3f7a7d3",
    "subset --input corpus.jsonl --gcn2-level 10 --nbg-level 3":
        "1f4fc35568289fa2bcd78f6e39dd07bedf3a64b4f2da76e22f9d632b5045a9e8",
    "hist --input corpus.jsonl --bins 5":
        "5b8fdd0870bf7fb44beece6cf65da49c25a98376bcbe17b202039de77627b256",
    "complement --train a.jsonl --eval b.jsonl --feature scaffold":
        "8d340e03cf14164347a45d7df2d90bdad038431e293619727ef06e8f8e4d9531",
}


def corpus_lines():
    rng = random.Random(CORPUS_SEED)
    return [
        json.dumps(random_molecule_record(rng, idx)) for idx in range(CORPUS_SIZE)
    ]


def write_corpus(directory):
    lines = corpus_lines()
    half = len(lines) // 2
    for name, part in [
        ("corpus", lines), ("a", lines[:half]), ("b", lines[half:])
    ]:
        (directory / f"{name}.jsonl").write_text("\n".join(part) + "\n")


def test_corpus_has_ring_closures():
    records = [json.loads(line) for line in corpus_lines()]
    # A connected record with at least as many bonds as atoms has a ring.
    rings = [r for r in records if len(r["bonds"]) >= len(r["elements"])]
    assert len(rings) >= CORPUS_SIZE // 5


@pytest.mark.parametrize("argv", sorted(FROZEN_SHA256))
def test_output_bytes_are_frozen(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path)
    assert main(argv.split() + ["--out", "out.txt"]) == 0
    digest = hashlib.sha256((tmp_path / "out.txt").read_bytes()).hexdigest()
    assert digest == FROZEN_SHA256[argv]
