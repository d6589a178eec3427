"""Output bytes of the record commands on a seeded corpus, frozen.

Each digest is the sha256 of one command's ``--out`` file, header lines
included (or, in FROZEN_STREAMS, of its stdout and stderr, with its exit
code), computed by the code before core extraction and
canonicalization were split apart; the ``nbg_plus`` digests were computed
by the code before refinement became incremental, and the ``props``,
``bind``, ``model`` and molfile digests by the code that still had a
parsed-molecule type apart from HeavyGraph. A refactor must keep
every byte; a deliberate change to an output must say so in CHANGES.md
and update its digest here.
"""

import hashlib
import json
import random

import pytest

from molspace.cli import main

from conftest import ETHANOL_MOLFILE, molfile, random_molecule_record, record_line

CORPUS_SEED = 97
CORPUS_SIZE = 300
PROPS_SEED = 98
PROPS_SIZE = 120

# Reference energies without fluorine, so that fluorinated records are
# rejected with MissingReference.
REFS = ['{"element":"C","energy":-37.8}', '{"element":"H","energy":-0.5}',
        '{"element":"N","energy":-54.6}', '{"element":"O","energy":-75.1}']

# An alignment model written out by hand: apply is plain float arithmetic,
# so its output does not depend on a linear-algebra build. It has no F
# coefficient, so fluorinated records are rejected with UnseenFeature.
MODEL = """# alignment model
mode\tcomposition
ridge\t1e-08
n_records\t10
c0\t1.01
b0\t-0.25
mae\t0.0
rmsd\t0.0
coef\tC\t-0.125
coef\tH\t0.0625
coef\tN\t0.5
coef\tO\t-0.75
"""

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
    "hist --input props.jsonl --property e_tot --bins 7":
        "3546ed9ff75ab575b27ba7ee5cfe513c130ac428fbd8f637c4209daf2298b5d2",
    "hist --input props.jsonl --property e0":
        "d352a4f8f41addb37e7b0123f5112a5fc1183267816c995a819013b8dafe3a2c",
    "encode --input ethanol.mol --input-format molfile":
        "f574ae0ac7db5489e8230fb8f3d9a45b568cd3bf36cbd54b7407171f64a0f264",
}

# argv -> (exit code, sha256 of stdout, sha256 of stderr), for runs whose
# rejects matter as much as their output.
FROZEN_STREAMS = {
    "bind-energy --input bind.jsonl --refs refs.jsonl":
        (1, "98526dc0f82ff08ea28ee86fd0c7cbfec0a0e156c3accdc1a2a3fc4963e784f5",
            "035f76c15267d040ac21b79d0331e863c2c1d748d2db431643eb02e6e8ffdb4f"),
    "align apply --input bind.jsonl --model model.txt":
        (1, "0e1494ac22920f1114d74fd5178f402481a0101b760a40587a78c5f92fa69ec2",
            "f69281bdcf71c7aacf9533857138a950170fee88e4acd26ab1f22d3fd9d257f9"),
    "encode --input hh.mol --input-format molfile":
        (1, "4a686196e5f5a0df0d257052308704c8c34b37dbcbc70f6d70a101f3126b4056",
            "c68728bd3d0d729d84e6adba6dcc5d9a73f7e24b1723595fe6cb67c7cc9cb734"),
}


def corpus_lines():
    rng = random.Random(CORPUS_SEED)
    return [
        json.dumps(random_molecule_record(rng, idx)) for idx in range(CORPUS_SIZE)
    ]


def props_lines():
    """Records with energies; every seventh has none."""
    rng = random.Random(PROPS_SEED)
    lines = []
    for idx in range(PROPS_SIZE):
        props = {} if idx % 7 == 3 else {
            "e_tot": round(rng.uniform(-600.0, -40.0), 6),
            "e0": round(rng.uniform(-30.0, 30.0), 3),
        }
        lines.append(json.dumps(random_molecule_record(rng, idx, 12, props)))
    return lines


def write_corpus(directory):
    lines = corpus_lines()
    half = len(lines) // 2
    props = props_lines()
    # The records with energies, then a reject of each stage: a line that
    # does not parse, a reused id, an over-full atom, a missing property.
    bind = props + [
        "{bad json",
        props[0],
        record_line("overfull", ["C"], [], h=[5], props={"e_tot": -40.0}),
        record_line("no_e_tot", ["O"], [], props={"e0": 1.0}),
    ]
    for name, part in [
        ("corpus", lines), ("a", lines[:half]), ("b", lines[half:]),
        ("props", props), ("bind", bind), ("refs", REFS),
    ]:
        (directory / f"{name}.jsonl").write_text("\n".join(part) + "\n")
    (directory / "model.txt").write_text(MODEL)
    (directory / "ethanol.mol").write_text(ETHANOL_MOLFILE)
    # Hydrogens 2 and 3 are bonded to each other.
    (directory / "hh.mol").write_text(
        molfile("hh", ["C", "H", "H"], [(1, 2, 1), (2, 3, 1)]))


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


@pytest.mark.parametrize("argv", sorted(FROZEN_STREAMS))
def test_streams_and_exit_code_are_frozen(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_corpus(tmp_path)
    code = main(argv.split())
    out, err = capsys.readouterr()
    digests = (code, hashlib.sha256(out.encode()).hexdigest(),
               hashlib.sha256(err.encode()).hexdigest())
    assert digests == FROZEN_STREAMS[argv]
