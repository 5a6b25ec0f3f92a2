"""Differential corpus: rank, greedy bases, invariant factors and determinants
from the one sparse elimination step of ``linalg`` against the frozen dense
greedy loop, the frozen dense Smith loop, the replaced unit-minor
certificate route and the Bareiss determinant; Smith forms and integer
kernels from the Hermite loop against the frozen dense Smith loop; and the
sparse matrix product against the dense one."""

import math
import random
from fractions import Fraction

from cellforest import linalg
from cellforest.complexes import laplacian
from cellforest.critical import critical_group
from cellforest.families import complete_colorful, simplex_skeleton
from cellforest.homology import betti
from cellforest.linalg import (
    Matrix,
    _sparse_rows,
    column_lattice_basis,
    det,
    greedy_column_basis,
    greedy_row_basis,
    invariant_factors,
    kernel_lattice_basis,
    rank,
    smith_normal_form,
)

from cellforest.matrix_forest import default_root

from corpus import (
    CORPUS,
    SEED,
    low_rank_psd,
    random_flag_complexes,
    random_formal_duals,
    random_integer,
    random_rational,
)
from frozen import (
    dense_product,
    det_by_bareiss,
    greedy_column_basis_dense,
    invariant_factors_by_certificate,
    invariant_factors_by_smith,
    kernel_lattice_basis_by_smith,
)

EMPTY = [Matrix([], ncols=0), Matrix([], ncols=3), Matrix.zeros(3, 0), Matrix.zeros(2, 3)]


def complex_matrices():
    """Every boundary, its transpose and every Laplacian of the corpus."""
    out = []
    for X in CORPUS:
        for k in range(X.dim + 1):
            out += [X.boundaries[k], X.boundaries[k].transpose()]
        for kind, ks in (
            ("ud", range(-1, X.dim)),
            ("du", range(0, X.dim + 1)),
            ("tot", range(0, X.dim)),
        ):
            out += [laplacian(X, k, kind) for k in ks]
    return out


def random_matrices():
    rng = random.Random(SEED)
    out = []
    for _ in range(60):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        out += [random_integer(rng, m, ncols=n), random_rational(rng, m, ncols=n)]
        out.append(low_rank_psd(rng, rng.randint(1, 7)))
        # a low-rank rectangular product, with dependent columns between independent ones
        r = rng.randint(1, min(m, n))
        out.append(random_integer(rng, m, -3, 3, ncols=r) * random_integer(rng, r, -3, 3, ncols=n))
    return out


def test_ranks_and_greedy_bases_match_dense_loop():
    matrices = complex_matrices() + random_matrices() + EMPTY
    assert len(matrices) > 500
    for M in matrices:
        cols = greedy_column_basis(M)
        assert cols == greedy_column_basis_dense(M)
        assert greedy_row_basis(M) == greedy_column_basis_dense(M.transpose())
        assert rank(M) == len(cols)
        assert type(rank(M)) is int and all(type(j) is int for j in cols)
    assert any(not M.is_integral and rank(M) > 0 for M in matrices)


def unit_contraction(M):
    """The nonzero rows left once unit pivots are contracted by plain integer
    row operations: the first row with an entry +-1 (the first such entry in
    its stored order) clears its column from the other rows and leaves."""
    rows = [w for w in _sparse_rows(M) if w]
    while True:
        pivot = next(((i, c) for i, w in enumerate(rows) for c, x in w.items() if x in (1, -1)), None)
        if pivot is None:
            return rows
        i, c = pivot
        v = rows.pop(i)
        left = []
        for w in rows:
            if c in w:
                q = w[c] * v[c]
                w = dict(w)
                for r, x in v.items():
                    nx = w.get(r, 0) - q * x
                    if nx:
                        w[r] = nx
                    else:
                        del w[r]
            if w:
                left.append(w)
        rows = left


def test_invariant_factors_match_smith_form_and_take_both_branches(monkeypatch):
    # fresh copies: a matrix whose factors are memoized runs no Smith form
    matrices = [Matrix(M.data, ncols=M.ncols) for M in complex_matrices() + random_matrices() + EMPTY
                if M.is_integral]
    matrices.append(Matrix([[2, 3]]))
    smith_inputs = []
    smith = linalg._smith
    monkeypatch.setattr(linalg, "_smith", lambda A, *rest: smith_inputs.append(A) or smith(A, *rest))
    branches = set()
    for M in matrices:
        residual = unit_contraction(M)
        before = len(smith_inputs)
        got = invariant_factors(M)
        # the Smith form runs exactly when the contraction leaves a residual,
        # and it sees that residual, each row up to sign, on its columns
        assert len(smith_inputs) - before == bool(residual)
        if residual:
            cols = sorted({c for w in residual for c in w})
            dense = [[w.get(c, 0) for c in cols] for w in residual]
            seen = smith_inputs[-1]
            assert len(seen) == len(dense)
            assert all(a == b or a == [-x for x in b] for a, b in zip(seen, dense))
        assert got == invariant_factors_by_smith(M)
        assert type(got) is tuple and all(type(f) is int for f in got)
        if got:
            branches.add((bool(residual), all(f == 1 for f in got)))
    # an empty residual has every factor 1; a residual may still have every
    # factor 1, as [[2, 3]] and the conjugated Smith complexes do, or not
    assert branches == {(False, True), (True, True), (True, False)}


def test_rank_and_invariant_factors_run_once_per_matrix(monkeypatch):
    runs = []
    for name in ("_greedy_path", "_smith"):
        fn = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, fn=fn, name=name: runs.append(name) or fn(*args))
    rows = [[2, 4, 6], [4, 2, 0]]  # no entry +-1, so the factors need the Smith form
    M = Matrix(rows)
    assert rank(M) == rank(M) == 2
    assert runs == ["_greedy_path"]
    assert invariant_factors(M) == invariant_factors(M) == (2, 6)
    assert runs == ["_greedy_path", "_smith"]
    # the factors give the rank, so a fresh copy ranked after them runs no search
    N = Matrix(rows)
    assert invariant_factors(N) == (2, 6) and rank(N) == 2
    assert runs == ["_greedy_path", "_smith", "_smith"]
    # the memo is invisible to value semantics
    assert N == M == Matrix(rows) and hash(N) == hash(M) == hash(Matrix(rows))


def test_smith_sees_only_the_residual_of_colorful_critical_groups(monkeypatch):
    X = complete_colorful(3, 3, 3, 3).to_chain_complex()
    widths = []
    smith = linalg._smith
    monkeypatch.setattr(linalg, "_smith", lambda A, left, right: widths.append(len(right)) or smith(A, left, right))
    orders = [critical_group(X, i).order for i in range(X.dim)]
    # the top Laplacian is 108 x 108; its unit pivots leave 32 x 44
    assert laplacian(X, X.dim - 1, "ud").shape == (108, 108)
    assert widths and max(widths) <= 44
    assert all(order > 1 for order in orders)


def gram_matrices():
    """B^T B for every boundary B of the corpus: the discriminant groups' Grams."""
    return [B.transpose() * B for X in CORPUS for B in X.boundaries]


def large_entry_matrices():
    """Seeded integer matrices with entries up to 10^6, full rank and low rank."""
    rng = random.Random(SEED)
    out = []
    for _ in range(30):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        out.append(random_integer(rng, m, -10**6, 10**6, ncols=n))
        r = rng.randint(1, min(m, n))
        out.append(random_integer(rng, m, -10**3, 10**3, ncols=r) * random_integer(rng, r, -10**3, 10**3, ncols=n))
    return out


def test_smith_forms_and_kernels_match_frozen_loop():
    matrices = complex_matrices() + random_matrices() + EMPTY + gram_matrices() + large_entry_matrices()
    assert len(matrices) > 600
    torsion = 0
    for M in matrices:
        # the kernel is the same saturated lattice as the Smith transform's
        got = kernel_lattice_basis(M)
        assert got.ncols == M.ncols - rank(M) and (M * got).is_zero
        assert column_lattice_basis(got) == column_lattice_basis(kernel_lattice_basis_by_smith(M))
        if not M.is_integral:
            continue
        factors = invariant_factors(M)
        assert factors == invariant_factors_by_smith(M)
        assert type(factors) is tuple and all(type(f) is int for f in factors)
        res = smith_normal_form(M)
        assert res.invariant_factors == factors
        assert res.left * M * res.right == res.diagonal_matrix(*M.shape)
        assert abs(det(res.left)) == 1 and abs(det(res.right)) == 1
        torsion += any(f > 1 for f in factors)
    assert torsion > 50


def certificate_matrices():
    """The integer matrices of the tests above; the up-down Laplacians of
    K_6^2, K_7^2 and K_8^2; the top Laplacian of colorful (3,3,3,3); and the
    boundaries and their transposes of seeded flag complexes and formal duals."""
    matrices = complex_matrices() + random_matrices() + EMPTY + gram_matrices() + large_entry_matrices()
    matrices.append(Matrix([[2, 3]]))
    for n in (6, 7, 8):
        K = simplex_skeleton(n, 2).to_chain_complex()
        matrices += [laplacian(K, k, "ud") for k in range(-1, K.dim)]
    colorful = complete_colorful(3, 3, 3, 3).to_chain_complex()
    matrices.append(laplacian(colorful, colorful.dim - 1, "ud"))
    for X in flag_complexes() + random_formal_duals(random.Random(SEED), 8):
        matrices += [B for b in X.boundaries for B in (b, b.transpose())]
    return [M for M in matrices if M.is_integral]


def flag_complexes():
    return random_flag_complexes(random.Random(SEED), 8)


def test_invariant_factors_match_certificate_route():
    matrices = certificate_matrices()
    assert len(matrices) > 700
    torsion = 0
    for M in matrices:
        got = invariant_factors(M)
        assert got == invariant_factors_by_certificate(M)
        assert type(got) is tuple and all(type(f) is int for f in got)
        torsion += any(f > 1 for f in got)
    assert torsion > 50
    # the seeded flag complexes have holes: non-vanishing reduced homology
    assert any(betti(X, k) > (k == 0) for X in flag_complexes() for k in range(X.dim + 1))


def reduced_laplacians():
    """Each corpus complex's top up-down Laplacian restricted off its default root."""
    out = []
    for X in CORPUS:
        if X.dim < 1:
            continue
        L = laplacian(X, X.dim - 1, "ud")
        root = set(default_root(X))
        keep = [j for j in range(L.nrows) if j not in root]
        out.append(L.submatrix(keep, keep))
    return out


def test_det_matches_bareiss():
    square = [M for M in complex_matrices() + random_matrices() if M.is_square]
    signs = [Matrix([[0, 1], [1, 0]]), Matrix([[2, 1], [1, 3]]), Matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])]
    matrices = square + reduced_laplacians() + signs + [Matrix([], ncols=0)]
    assert len(matrices) > 300
    seen = set()
    for M in matrices:
        got = det(M)
        want = det_by_bareiss(M)
        assert got == want and type(got) is type(want)
        seen.add(((got > 0) - (got < 0), type(got)))
    assert {(-1, int), (0, int), (1, int)} <= seen
    assert any(t is Fraction for _, t in seen)


def product_pairs():
    """Boundary x boundary, B^T x B and B x Laplacian pairs of the corpus."""
    out = []
    for X in CORPUS:
        bs = X.boundaries
        for a in bs:
            out += [(a, b) for b in bs if a.ncols == b.nrows]
            out.append((a.transpose(), a))
        for k in range(X.dim):
            L = laplacian(X, k, "ud")
            # d_k L_k and, as in the covolume route, d_{k+1}^T L_k
            out += [(bs[k], L), (bs[k + 1].transpose(), L)]
    return out


def random_product_pairs():
    """Random integer, rational and mixed pairs, and rational pairs whose
    product cancels to integers: the right factor is an integer matrix times
    the lcm of the left factor's denominators."""
    rng = random.Random(SEED)
    out = []
    for _ in range(60):
        m, k, n = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        A, B = random_integer(rng, m, ncols=k), random_integer(rng, k, ncols=n)
        Q, R = random_rational(rng, m, ncols=k), random_rational(rng, k, ncols=n)
        lcm = math.lcm(*(x.denominator for row in Q.data for x in row if isinstance(x, Fraction)))
        out += [(A, B), (Q, R), (A, R), (Q, B), (Q, random_integer(rng, k, ncols=n).scale(lcm))]
    return out


def test_product_matches_dense_product():
    pairs = product_pairs() + random_product_pairs()
    pairs += [(Matrix([], ncols=3), Matrix.zeros(3, 2)), (Matrix.zeros(2, 0), Matrix([], ncols=3)),
              (Matrix.zeros(2, 3), Matrix.zeros(3, 0))]
    assert len(pairs) > 500
    cancelled = 0
    for A, B in pairs:
        got, want = A * B, dense_product(A, B)
        assert got.shape == want.shape and got.data == want.data
        assert [type(x) for row in got.data for x in row] == [type(x) for row in want.data for x in row]
        cancelled += not A.is_integral and got.is_integral and not got.is_zero
    assert cancelled > 0
    assert any(not (A * B).is_integral for A, B in pairs)
