"""Seeded fuzzing of the CLI's input files: complex files and weight files are
truncated, lose or swap lines, or have a token replaced, and ``cli.main`` runs
on each in-process.  Every run must end with exit 0 (the mutant still parses
to a valid input) or 2 with a one-line message, never with an exception."""

import random

import pytest

from cellforest import io as cfio
from cellforest.cli import main
from cellforest.families import named_complex, named_simplicial, simplex_skeleton

from corpus import SEED, random_weights

COMPLEXES = {
    "k42": simplex_skeleton(4, 2),
    "bipyramid": named_simplicial("bipyramid"),
    "moebius": named_simplicial("moebius"),
    "rp2_cell": named_complex("rp2_cell"),
    "annulus": named_complex("annulus"),
}
TOKENS = ("0", "1", "-1", "2", "3", "5", "7", "1/2", "-2/3", "1/0", "0/0", "x", "", "dim", "facets", "matrix")
COMMANDS = (
    ["homology"],
    ["tau", "--method", "reduced"],
    ["tau", "--method", "covolume"],
    ["tau", "--method", "bruteforce"],
)
WEIGHTED = (
    "reduced",
    "covolume",
    "pseudodet",
    "algebraic-weighted",
    "weighted-alternating",
    "bruteforce",
)


def mutate(rng, text):
    """One random edit of a line-oriented file: truncate, delete, swap or retoken."""
    lines = text.splitlines()
    op = rng.randrange(4)
    if op == 0:
        cut = rng.randrange(len(text))
        return text[:cut]
    if op == 1:
        del lines[rng.randrange(len(lines))]
    elif op == 2:
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        i = rng.randrange(len(lines))
        parts = lines[i].split() or [""]
        parts[rng.randrange(len(parts))] = rng.choice(TOKENS)
        lines[i] = " ".join(parts)
    return "\n".join(lines) + "\n"


def run(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2), (argv, code, err)
    if code == 2:
        assert err.count("\n") == 1 and err.startswith(("error: ", "hypothesis failure: ")), err
    return code


def test_mutated_complex_files(tmp_path, capsys):
    rng = random.Random(SEED)
    path = tmp_path / "x.txt"
    codes = set()
    for _ in range(300):
        name = rng.choice(sorted(COMPLEXES))
        path.write_text(mutate(rng, cfio.serialize_complex(COMPLEXES[name])))
        command = rng.choice(COMMANDS)
        codes.add(run(command[:1] + [str(path)] + command[1:], capsys))
    assert codes == {0, 2}


@pytest.mark.parametrize("name", ["k42", "bipyramid"])
def test_mutated_weight_files(tmp_path, capsys, name):
    rng = random.Random(SEED)
    S = COMPLEXES[name]
    cpath = tmp_path / "x.txt"
    cpath.write_text(cfio.serialize_complex(S))
    wpath = tmp_path / "w.txt"
    codes = set()
    for _ in range(150):
        weights = random_weights(rng, S.to_chain_complex())
        wpath.write_text(mutate(rng, cfio.serialize_weights(weights)))
        method = rng.choice(WEIGHTED)
        codes.add(run(["tau", str(cpath), "--method", method, "--weights", str(wpath)], capsys))
    assert codes == {0, 2}
