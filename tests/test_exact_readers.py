"""Every integer and weight that enters cellforest is read exactly.

A vertex handed to a Python reader must be an ``int`` (``complexes._exact_int``),
a weight a positive ``int`` or ``Fraction`` (``complexes._exact_weight``), and
an integer typed on the command line must pass the interchange format's rule
(``io._integers``).  ``int()`` and ``Fraction()`` would read each refused value
below as some other number: 2.7 as 2, True as 1, "3" as 3, 0.1 as a 55-bit
fraction, and ``2_0`` or ``٤`` as 20 or 4.
"""

from fractions import Fraction

import pytest

from cellforest import io as cfio
from cellforest.cli import main
from cellforest.complexes import delete_and_link, from_facets
from cellforest.families import (
    colorful_tree_count_weighted,
    colorful_vertex_weighting,
    complete_colorful,
    ferrers_graph,
    ferrers_tree_count_weighted,
    ferrers_vertex_weighting,
    hypercube_complex,
    hypercube_tree_count_weighted,
    hypercube_weights,
    shifted_complex,
    simplex_skeleton,
    simplex_tree_count_weighted,
)

# each reader of vertices, called with the vertex v in one facet or argument
VERTEX_READERS = {
    "from_facets": lambda v: from_facets(4, [{3, v}, {1, 4}]),
    "delete_and_link": lambda v: delete_and_link(simplex_skeleton(4, 2), v),
    "shifted_complex": lambda v: shifted_complex(4, [(1, v, 4)]),
}


@pytest.mark.parametrize("v", [2.0, 2.7, True, "2"])
@pytest.mark.parametrize("reader", sorted(VERTEX_READERS))
def test_a_vertex_that_is_not_an_int_is_refused(reader, v):
    with pytest.raises(ValueError) as exc:
        VERTEX_READERS[reader](v)
    assert str(exc.value) == f"vertex {v!r} is not an int"


def _colorful(key, t):
    # a fresh dict, since assigning to the key (1.0, 1) would keep the key (1, 1)
    v = {k: 1 for k in [(1, 1), (1, 2), (2, 1), (2, 2)] if k != key}
    v[key] = t
    return colorful_tree_count_weighted(1, (2, 2), v)


# each reader of weights, called with the weight t in one place, and the name
# its message gives that place
WEIGHT_READERS = {
    "simplex_tree_count_weighted": (
        lambda t: simplex_tree_count_weighted(3, 1, [1, t, 1]), "weight of vertex 2"),
    "colorful_tree_count_weighted": (lambda t: _colorful((1, 2), t), "weight at (1, 2)"),
    "ferrers_tree_count_weighted-row": (
        lambda t: ferrers_tree_count_weighted((2, 1), [t, 1], [1, 1]), "weight of row 1"),
    "ferrers_tree_count_weighted-column": (
        lambda t: ferrers_tree_count_weighted((2, 1), [1, 1], [1, t]), "weight of column 2"),
    "hypercube_tree_count_weighted": (
        lambda t: hypercube_tree_count_weighted(1, 2, [1, t], [1, 1], [1, 1]), "weight q at coordinate 2"),
    "hypercube_weights": (
        lambda t: hypercube_weights(2, [1, 1], [1, 1], [t, 1]), "weight y at coordinate 1"),
}
BAD_WEIGHTS = {
    "float": (0.1, "is not an int or a Fraction: 0.1"),
    "bool": (True, "is not an int or a Fraction: True"),
    "str": ("3", "is not an int or a Fraction: '3'"),
    "zero": (0, "must be positive, got 0"),
    "negative": (Fraction(-1, 2), "must be positive, got -1/2"),
}
CASES = [
    pytest.param(call, t, f"{where} {message}", id=f"{reader}-{bad}")
    for reader, (call, where) in WEIGHT_READERS.items()
    for bad, (t, message) in BAD_WEIGHTS.items()
] + [
    # with every weight -1 each cell of the square weighs +1 or -1 times -1,
    # so the cell weights alone would not show the negative coordinates
    pytest.param(
        lambda t: hypercube_weights(2, [t, t], [t, t], [t, t]), -1,
        "weight q at coordinate 1 must be positive, got -1",
        id="hypercube_weights-all-negative",
    ),
    # and the colorful closed form reads its keys as exactly as its weights
    pytest.param(lambda t: _colorful((t, 1), 1), 1.0, "color 1.0 is not an int", id="colorful-float-color"),
    pytest.param(lambda t: _colorful((t, 1), 1), "2", "color '2' is not an int", id="colorful-str-color"),
    pytest.param(lambda t: _colorful((1, t), 1), 2.0, "position 2.0 is not an int", id="colorful-float-position"),
]


@pytest.mark.parametrize("call, t, message", CASES)
def test_an_inexact_or_nonpositive_weight_is_refused(call, t, message):
    with pytest.raises(ValueError) as exc:
        call(t)
    assert str(exc.value) == message


# both colorful readers, called with a mapping of (color, position) to weight
# on the complete colorful complex with two colors of two vertices
COLORFUL_READERS = {
    "colorful_tree_count_weighted": lambda v: colorful_tree_count_weighted(1, (2, 2), v),
    "colorful_vertex_weighting": lambda v: colorful_vertex_weighting(complete_colorful(2, 2), (2, 2), v),
}


@pytest.mark.parametrize("reader", sorted(COLORFUL_READERS))
def test_a_colorful_key_is_read_exactly_and_a_missing_one_named(reader):
    call = COLORFUL_READERS[reader]
    # (1.0, 1) and (1, 2.0) hash as (1, 1) and (1, 2), so a lookup would take them
    for v, message in (
        ({(1.0, 1): 2, (1, 2.0): 1, (2, 1): 1, (2, 2): 1}, "color 1.0 is not an int"),
        ({(1, 1): 2, (1, 2.0): 1, (2, 1): 1, (2, 2): 1}, "position 2.0 is not an int"),
        ({(1, 1): 2, (2, 2): 1}, "no weight at (color, position) (1, 2), (2, 1)"),
        ({(1, 1): 2, (1, 2): 1, (2, 1): 1, (3, 1): 1}, "no weight at (color, position) (2, 2)"),
        # a key outside the color classes is refused before any weight is read
        (
            {(1, 1): 2, (1, 2): 1, (2, 1): 1, (2, 2): 1, (3, 1): 0.5, (1, 3): 1},
            "no color class holds (color, position) (1, 3), (3, 1)",
        ),
    ):
        with pytest.raises(ValueError) as exc:
            call(v)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: hypercube_tree_count_weighted(1, 2, [1, 1, 5], [1, 1, 1], [1, 1, 1]),
         "need one weight q per coordinate: got 3 for n = 2"),
        (lambda: hypercube_tree_count_weighted(2, 3, [1, 1, 1], [1, 1], [1, 1, 1]),
         "need one weight x per coordinate: got 2 for n = 3"),
        (lambda: hypercube_weights(2, [1], [1], [1]), "need one weight q per coordinate: got 1 for n = 2"),
        (lambda: hypercube_weights(2, [1, 1], [1, 1], [1, 1, 1]),
         "need one weight y per coordinate: got 3 for n = 2"),
    ],
)
def test_a_hypercube_needs_one_weight_of_each_kind_per_coordinate(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


# both Ferrers readers, called with row weights x and column weights y on the
# partition (2, 1): two rows, two columns
FERRERS_READERS = {
    "ferrers_tree_count_weighted": lambda x, y: ferrers_tree_count_weighted((2, 1), x, y),
    "ferrers_vertex_weighting": lambda x, y: ferrers_vertex_weighting(ferrers_graph((2, 1)), (2, 1), x, y),
}


@pytest.mark.parametrize("x, y", [([1], [1, 1]), ([1, 1, 7], [1, 1]), ([1, 1], [1]), ([1, 1], [1, 1, 7])])
@pytest.mark.parametrize("reader", sorted(FERRERS_READERS))
def test_a_ferrers_graph_needs_one_weight_per_row_and_per_column(reader, x, y):
    with pytest.raises(ValueError) as exc:
        FERRERS_READERS[reader](x, y)
    assert str(exc.value) == "need one x per row and one y per column"


def _exit_and_stderr(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses its own arguments this way
        code = exc.code
    return code, capsys.readouterr().err


# each command-line integer, as a function of its text and a complex file
CLI_INTEGERS = {
    "gen-parameter": lambda s, f: ["gen", "simplex-skeleton", s, "1"],
    "gen-shifted-list": lambda s, f: ["gen", "shifted", f"1,{s}"],
    "tau-k": lambda s, f: ["tau", f, "--k", s],
    "tau-cap": lambda s, f: ["tau", f, "--cap", s],
    "tau-seed": lambda s, f: ["tau", f, "--seed", s],
    "homology-k": lambda s, f: ["homology", f, "--k", s],
    "verify-seed": lambda s, f: ["verify", "families", "--seed", s],
    "verify-cap": lambda s, f: ["verify", "families", "--cap", s],
}


@pytest.mark.parametrize("text", ["2_0", "٤"])
@pytest.mark.parametrize("where", sorted(CLI_INTEGERS))
def test_a_command_line_integer_follows_the_file_rule(where, text, tmp_path, capsys):
    path = tmp_path / "k4.txt"
    path.write_text(cfio.serialize_complex(simplex_skeleton(4, 1)))
    code, err = _exit_and_stderr(CLI_INTEGERS[where](text, str(path)), capsys)
    assert code == 2
    assert f"invalid integer value: {text!r}" in err or f"error: expected integers: {text!r}" in err


def test_a_signed_command_line_integer_stays_legal(tmp_path, capsys):
    # the file rule takes a leading sign, and so does the command line
    assert main(["gen", "hypercube", "+2"]) == 0
    assert capsys.readouterr().out == cfio.serialize_complex(hypercube_complex(2))
    path = tmp_path / "k4.txt"
    path.write_text(cfio.serialize_complex(simplex_skeleton(4, 1)))
    assert main(["homology", str(path), "--k", "+1"]) == 0
    assert capsys.readouterr().out == "dim 1\nk=1 betti=3 torsion=1 factors=-\n"
