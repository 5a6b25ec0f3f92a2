"""Differential corpus for the sparse ``Matrix`` storage: every accessor and
operation against the frozen dense ``DenseMatrix``, entry types included, on
the boundaries, Laplacians and weighted Laplacians of the corpus, on random
integer, rational and mixed matrices and on the empty shapes."""

import random
from fractions import Fraction

from cellforest import matrix_forest as mf
from cellforest.complexes import laplacian, weighted_laplacian, weighted_laplacian_similar
from cellforest.critical import critical_group, critical_group_reduced, sequence_order_check
from cellforest.linalg import Matrix, det
from cellforest.oracle import enumerate_cobases, enumerate_forests, rooted_forest_torsion_sums

from corpus import CORPUS, SEED, random_integer, random_rational, random_weights
from frozen import DenseMatrix

SCALARS = (0, 1, -1, 3, Fraction(2, 3), Fraction(4, 2), Fraction(0, 5))


def corpus_matrices():
    """Boundaries, Laplacians of every kind and both weighted Laplacians of the corpus."""
    out = []
    for i, X in enumerate(CORPUS):
        w = random_weights(random.Random(SEED + i), X)
        out += list(X.boundaries)
        out += [laplacian(X, k, "ud") for k in range(-1, X.dim)]
        out += [laplacian(X, k, "du") for k in range(X.dim + 1)]
        out += [laplacian(X, k, "tot") for k in range(X.dim)]
        out += [weighted_laplacian(X, k, w) for k in range(X.dim + 1)]
        out += [weighted_laplacian_similar(X, k, w) for k in range(X.dim + 1)]
    return out


def mixed(rng, m, n):
    """Integer entries with some Fractions, some of denominator 1, and explicit zeros."""
    pool = (0, 0, 0, 1, -2, 7, Fraction(0, 3), Fraction(6, 3), Fraction(-1, 2), Fraction(5, 9))
    return [[rng.choice(pool) for _ in range(n)] for _ in range(m)]


def raw_matrices():
    """Dense row lists, for building both storages from the same entries."""
    rng = random.Random(SEED)
    out = [[], [[]], [[0, 0, 0], [0, 0, 0]], [[0], [0], [0]]]
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        out += [random_integer(rng, m, ncols=n).data, random_rational(rng, m, ncols=n).data, mixed(rng, m, n)]
    return out


def entry_types(rows):
    return [[type(x) for x in row] for row in rows]


def assert_same(M, D):
    """The sparse M and the dense D hold the same entries, of the same types."""
    assert M.shape == D.shape
    assert M.data == D.data and entry_types(M.data) == entry_types(D.data)
    assert M.is_integral == D.is_integral and M.is_zero == D.is_zero
    assert M.columns() == D.columns() and entry_types(M.columns()) == entry_types(D.columns())
    for i in range(M.nrows):
        assert M.row(i) == D.row(i) and M.row(-1 - i) == D.row(-1 - i)
        for j in range(M.ncols):
            assert M[i, j] == D[i, j] and type(M[i, j]) is type(D[i, j])
            assert M[i, j - M.ncols] == D[i, j - D.ncols]
    for j in range(M.ncols):
        assert M.column(j) == D.column(j) and entry_types([M.column(j)]) == entry_types([D.column(j)])
    # the stored rows are the nonzeros, in ascending column order
    assert all(list(row) == sorted(row) and all(row.values()) for row in M._rows)


def pairs():
    """(sparse, dense) pairs built from the same entries."""
    out = [(M, DenseMatrix(M.data, ncols=M.ncols)) for M in corpus_matrices()]
    for rows in raw_matrices():
        ncols = len(rows[0]) if rows else 4
        out.append((Matrix(rows, ncols=ncols), DenseMatrix(rows, ncols=ncols)))
    out.append((Matrix.zeros(3, 0), DenseMatrix.zeros(3, 0)))
    out.append((Matrix.identity(0), DenseMatrix.identity(0)))
    return out


def test_accessors_and_unary_operations_match_dense_storage():
    rng = random.Random(SEED)
    checked = pairs()
    assert len(checked) > 300
    assert any(not M.is_integral for M, _ in checked) and any(M.is_zero for M, _ in checked)
    for M, D in checked:
        assert_same(M, D)
        assert_same(M.transpose(), D.transpose())
        assert_same(-M, -D)
        for s in SCALARS:
            assert_same(M.scale(s), D.scale(s))
        # unsorted and repeated indices, and the empty selections
        rows = [rng.randrange(M.nrows) for _ in range(rng.randint(0, 5))] if M.nrows else []
        cols = [rng.randrange(M.ncols) for _ in range(rng.randint(0, 5))] if M.ncols else []
        for r, c in ((rows, cols), (sorted(set(rows)), sorted(set(cols))), ([], cols), (rows, [])):
            assert_same(M.submatrix(r, c), D.submatrix(r, c))


def test_products_and_sums_match_dense_storage():
    rng = random.Random(SEED + 1)
    count = 0
    for M, D in pairs():
        # the Gram product, a random integer or rational factor, and a sum that cancels
        for B in (M.transpose(), random_integer(rng, M.ncols, ncols=rng.randint(0, 4)),
                  random_rational(rng, M.ncols, ncols=rng.randint(1, 4))):
            assert_same(M * B, D * DenseMatrix(B.data, ncols=B.ncols))
        other = Matrix(mixed(rng, M.nrows, M.ncols), ncols=M.ncols)
        O = DenseMatrix(other.data, ncols=other.ncols)
        assert_same(M + other, D + O)
        assert_same(M - other, D - O)
        assert (M - M).is_zero and (M + M.scale(-1)) == Matrix.zeros(*M.shape)
        count += 1
    assert count > 300


def test_sparse_and_dense_construction_agree_on_equality_and_hash():
    matrices = corpus_matrices()
    for M in matrices:
        again = Matrix(M.data, ncols=M.ncols)
        assert again == M and hash(again) == hash(M)
        assert Matrix.from_columns(M.columns(), nrows=M.nrows) == M
    # a Fraction of denominator 1 is the int, so both hash alike
    assert Matrix([[Fraction(4, 2), 0]]) == Matrix([[2, 0]])
    assert hash(Matrix([[Fraction(4, 2), 0]])) == hash(Matrix([[2, 0]]))
    assert Matrix([[1, 0]]) != Matrix([[1], [0]]) and Matrix([], ncols=2) != Matrix([], ncols=3)


# every route that reads a complex's unit Laplacians, each called on a complex
ROUTES = (
    mf.tau_reduced,
    mf.tau_covolume,
    mf.tau_cobase,
    mf.tau_pseudodet,
    mf.tau_alternating,
    mf.rooted_forest_polynomial,
    lambda X: [critical_group(X, i) for i in range(X.dim)],
    lambda X: [critical_group_reduced(X, i) for i in range(X.dim)],
    sequence_order_check,
)


def test_census_and_det_leave_their_input_unchanged():
    def snapshot(M):
        return [list(row.items()) for row in M._rows], M.is_integral

    for X in CORPUS:
        before = [snapshot(b) for b in X.boundaries]
        enumerate_forests.__wrapped__(X)
        enumerate_cobases(X, X.dim - 1)
        if X.n_cells(X.dim) <= 8:
            rooted_forest_torsion_sums(X)
        assert [snapshot(b) for b in X.boundaries] == before
        for k in range(X.dim):
            L = laplacian(X, k, "ud")
            held = snapshot(L)
            det(L)
            det(L.submatrix(range(1, L.nrows), range(1, L.ncols)))
            assert snapshot(L) == held
        # every route reads the complex's shared unit Laplacians: one that
        # changed its Laplacian in place would corrupt every later route
        shared = {(k, "ud"): X.boundaries[k + 1] for k in range(-1, X.dim)}
        shared.update({(k, "du"): X.boundaries[k].transpose() for k in range(X.dim + 1)})
        held = {key: snapshot(laplacian(X, *key)) for key in shared}
        for route in ROUTES:
            try:
                route(X)
            except mf.HypothesisError:  # the spectral routes on 15 of the 22
                pass
        for key, b in shared.items():
            L = laplacian(X, *key)
            assert snapshot(L) == held[key]
            assert L == b * b.transpose()
