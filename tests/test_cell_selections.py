"""Cell selections and alternating products.

Every root, cobase and forest is split into its cells and their complement by
``complexes.split_cells``, which rejects an index that is not an int or lies
outside the level; the alternating products share one loop, compared here
with the two loops it replaced (``tests/frozen.py``).
"""

import random

import pytest

from cellforest.complexes import (
    boundary_matrix,
    relative_boundary,
    skeleton,
    split_cells,
)
from cellforest.critical import fundamental_vectors
from cellforest.families import named_complex
from cellforest.homology import forest_torsion, relative_homology_torsion
from cellforest.linalg import greedy_row_basis
from cellforest.matrix_forest import (
    HypothesisError,
    tau_alternating,
    tau_cobase,
    tau_reduced,
    tau_weighted_alternating,
)
from cellforest.oracle import cobase_kernel_defect, count_orientations, tau_bruteforce

from corpus import CORPUS, SEED, TORSION_BELOW, random_weights
from frozen import tau_alternating_by_own_loop, tau_weighted_alternating_by_own_loop


def test_split_cells_sorts_the_selection_and_lists_the_rest():
    X = named_complex("bipyramid")
    n = X.n_cells(1)
    assert split_cells(X, 1, (4, 0, 2)) == ((0, 2, 4), (1, 3) + tuple(range(5, n)))
    assert split_cells(X, 1, iter(())) == ((), tuple(range(n)))
    assert split_cells(X, -1, (0,)) == ((0,), ())


def test_the_top_skeleton_is_the_complex_itself():
    for X in CORPUS:
        assert skeleton(X, X.dim) is X


# each public function that takes a selection: the level k of the selected
# cells, and a call whose selection holds index 1 and the index i
SELECTIONS = {
    "tau_reduced": (1, lambda X, i: tau_reduced(X, root=(1, i))),
    "tau_cobase": (1, lambda X, i: tau_cobase(X, cobase=(i, 1, 2, 4, 5))),
    "cobase_kernel_defect": (1, lambda X, i: cobase_kernel_defect(X, 1, (i, 1, 2, 4, 5))),
    "count_orientations-facets": (2, lambda X, i: count_orientations(X, (1, i), (0, 1))),
    "count_orientations-faces": (1, lambda X, i: count_orientations(X, (0, 1), (i, 1))),
    "forest_torsion": (2, lambda X, i: forest_torsion(X, (1, i))),
    "relative_boundary": (1, lambda X, i: relative_boundary(X, (1, i))),
    "relative_homology_torsion": (1, lambda X, i: relative_homology_torsion(X, (1, i))),
    "fundamental_vectors": (2, lambda X, i: fundamental_vectors(X, (i, 1))),
}


@pytest.mark.parametrize("name", SELECTIONS)
@pytest.mark.parametrize("complex_name", ("bipyramid", "moebius"))
def test_a_malformed_selection_names_its_index(name, complex_name):
    X = named_complex(complex_name)
    k, call = SELECTIONS[name]
    n = X.n_cells(k)
    for i in (-1, -9, n, n + 6):
        with pytest.raises(ValueError, match=rf"^{k}-cell index {i} out of range 0\.\.{n - 1}$"):
            call(X, i)
    with pytest.raises(ValueError, match=rf"^{k}-cell index 1 given twice$"):
        call(X, 1)
    for i in (1.5, True, 0.0, "2"):
        with pytest.raises(ValueError, match=rf"^{k}-cell index {i!r} is not an int$"):
            call(X, i)


def test_a_non_integer_index_is_refused_not_read_as_a_cell():
    # each was once read as a cell (the first two) or failed as a TypeError
    X = named_complex("bipyramid")
    with pytest.raises(ValueError, match=r"^2-cell index 1\.5 is not an int$"):
        forest_torsion(X, (0, 1.5))
    with pytest.raises(ValueError, match=r"^1-cell index True is not an int$"):
        tau_reduced(X, root=(True, 0, 2, 3))
    with pytest.raises(ValueError, match=r"^1-cell index 0\.0 is not an int$"):
        tau_cobase(X, cobase=(0.0, 1, 2, 4, 5))


def _outcome(route, X):
    """A route's rendered report and value type, or its refusal."""
    try:
        report = route(X)
    except ValueError as exc:
        return type(exc), str(exc)
    return report.render(), type(report.value)


def test_the_alternating_loop_matches_the_frozen_loops():
    rng = random.Random(SEED)
    outcomes = []
    for X in CORPUS + [TORSION_BELOW]:
        for k in range(X.dim + 1):
            Xk = skeleton(X, k)
            w = random_weights(rng, Xk)
            pairs = (
                (tau_alternating, tau_alternating_by_own_loop),
                (
                    lambda Y: tau_weighted_alternating(Y, w),
                    lambda Y: tau_weighted_alternating_by_own_loop(Y, w),
                ),
            )
            for new, old in pairs:
                got = _outcome(new, Xk)
                assert got == _outcome(old, Xk)
                outcomes.append(got)
    # values and every kind of refusal: dimension, Betti number and torsion
    assert sum(isinstance(g[0], str) for g in outcomes) >= 30
    for start in ("alternating product needs dimension", "beta_", "t_"):
        assert any(g[0] is HypothesisError and g[1].startswith(start) for g in outcomes)


def _random_row_basis(rng, b):
    """A row basis of b: the greedy one after a random shuffle of the rows."""
    order = rng.sample(range(b.nrows), b.nrows)
    return [order[i] for i in greedy_row_basis(b.submatrix(order, range(b.ncols)))]


def test_random_row_bases_give_the_census_or_refuse():
    """A root is the complement of a cobase, a row basis S of the top boundary:
    tau_reduced at the root and tau_cobase at S each equal the census or
    refuse with ``HypothesisError``."""
    rng = random.Random(SEED)
    agreed = 0
    for X in CORPUS:
        want = tau_bruteforce(X)
        b = boundary_matrix(X, X.dim)
        for _ in range(4):
            S = _random_row_basis(rng, b)
            _, root = split_cells(X, X.dim - 1, S)
            for route in (lambda: tau_reduced(X, root=root), lambda: tau_cobase(X, cobase=S)):
                try:
                    got = route().value
                except HypothesisError:
                    continue
                assert got == want
                agreed += 1
    assert agreed >= 4 * len(CORPUS)
