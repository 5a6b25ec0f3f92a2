"""The covolume route reads det(L|_B) off the pivot rows of the Hermite basis.

``column_lattice_basis`` returns B in echelon form, so B[P,:] is lower
triangular on the pivot rows P, and ``tau_covolume`` takes
det(L[P,:] B) / prod_j B[p_j, j].  These tests pin that shape and compare
the route with the Gram determinant det(B^T L B) / covol(B)^2 it replaced.
"""

import random

from cellforest.complexes import boundary_matrix
from cellforest.linalg import column_lattice_basis
from cellforest.matrix_forest import tau_covolume

from corpus import (
    CORPUS,
    SEED,
    random_flag_complexes,
    random_formal_duals,
    random_integer,
    random_pure_2_complexes,
    random_weights,
)
from frozen import tau_covolume_by_gram

COMPLEXES = (
    CORPUS
    + random_pure_2_complexes(random.Random(SEED + 1), 6)
    + random_flag_complexes(random.Random(SEED), 8)
    + random_formal_duals(random.Random(SEED), 6)
)


def pivot_rows(B):
    """(p_j, B[p_j, j]) for each column j of B: the row and value of its first nonzero."""
    out = []
    for j in range(B.ncols):
        col = B.column(j)
        p = next(i for i, x in enumerate(col) if x)
        out.append((p, col[p]))
    return out


def check_echelon(B):
    """Each column of B starts with a positive pivot, at strictly ascending
    rows, and B[P,:] has no entry right of its diagonal; returns the pivots."""
    pivots = pivot_rows(B)
    rows = [p for p, _ in pivots]
    assert all(x > 0 for _, x in pivots)
    assert all(p < q for p, q in zip(rows, rows[1:]))
    assert all(B[p, j] == 0 for i, p in enumerate(rows) for j in range(i + 1, B.ncols))
    return pivots


def check_pivot_cases(bases):
    """``check_echelon`` on each basis; some basis must have a pivot above 1,
    and some pivot rows other than 0..r-1."""
    pivots = [check_echelon(B) for B in bases]
    assert any(x > 1 for ps in pivots for _, x in ps)
    assert any([p for p, _ in ps] != list(range(len(ps))) for ps in pivots)


def outcome(route, X, weights):
    """The route's report with the types of its value and corrections."""
    report = route(X, weights)
    return report, type(report.value), tuple(type(v) for _, v in report.corrections)


def test_hermite_basis_is_echelon_with_positive_pivots():
    rng = random.Random(SEED)
    matrices = [boundary_matrix(X, k) for X in CORPUS for k in range(1, X.dim + 1)]
    for _ in range(60):
        m, n, r = rng.randint(1, 6), rng.randint(1, 7), rng.randint(1, 6)
        # random entries, and rank at most r through a product
        matrices.append(random_integer(rng, m, ncols=n))
        matrices.append(random_integer(rng, m, -3, 3, ncols=r) * random_integer(rng, r, -3, 3, ncols=n))
    check_pivot_cases(map(column_lattice_basis, matrices))


def test_covolume_matches_gram_route_with_and_without_weights():
    rng = random.Random(SEED)
    for X in COMPLEXES:
        for w in (None, random_weights(rng, X)):
            assert outcome(tau_covolume, X, w) == outcome(tau_covolume_by_gram, X, w)
    check_pivot_cases(column_lattice_basis(boundary_matrix(X, X.dim)) for X in COMPLEXES)

