"""Differential corpus: the kernel solve against the frozen Gauss-Jordan loop, the
rank-sum Tutte polynomial against frozen deletion-contraction, and the shared
union-find against ranks of incidence matrices."""

import random
from fractions import Fraction
from itertools import combinations

from cellforest.complexes import from_facets
from cellforest.families import graphic_matroid, tutte_polynomial, uniform_matroid
from cellforest.linalg import Matrix, lattice_quotient_order, rank, solve_matrix
from cellforest.matrix_forest import graph_components

from frozen import (
    lattice_quotient_order_by_gauss_jordan,
    solve_by_gauss_jordan,
    tutte_by_deletion_contraction,
)


def _entry(rng):
    if rng.random() < 0.3:
        return 0
    return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 1, 2, 3, 5)))


def _matrix(rng, m, n):
    return Matrix([[_entry(rng) for _ in range(n)] for _ in range(m)], ncols=n)


def _system(rng, case):
    """(A, B) of one of the shapes the solve must treat alike."""
    m, n, p = rng.randint(1, 5), rng.randint(1, 4), rng.randint(0, 3)
    if case == "zero-row":
        m = 0
    elif case == "zero-column":
        n = 0
    A = _matrix(rng, m, n)
    if case == "rank-deficient" and n:
        # the last column is a rational combination of the others (zero when n == 1)
        cols = [list(A.column(j)) for j in range(n - 1)]
        c = [_entry(rng) for _ in cols]
        last = [sum((ci * col[i] for ci, col in zip(c, cols)), Fraction(0)) for i in range(m)]
        A = Matrix.from_columns(cols + [last], nrows=m)
    if case in ("consistent", "rank-deficient"):
        B = A * _matrix(rng, n, p)
    elif case == "row-mismatch":
        B = _matrix(rng, m + 1, p)
    else:  # inconsistent, or random right-hand sides for the degenerate shapes
        B = _matrix(rng, m, p)
    return A, B


def _outcome(solve, A, B):
    """Values and entry types of the solution, or the exception's type and text."""
    try:
        X = solve(A, B)
    except ValueError as exc:
        return ("raised", type(exc), str(exc))
    return ("solved", X.shape, X.data, tuple(tuple(map(type, row)) for row in X.data))


def test_kernel_solve_matches_gauss_jordan_loop():
    rng = random.Random(20261018)
    cases = ("consistent", "inconsistent", "rank-deficient", "zero-row", "zero-column",
             "row-mismatch")
    seen = {}
    entry_types = set()
    for i in range(1500):
        case = cases[i % len(cases)]
        A, B = _system(rng, case)
        want = _outcome(solve_by_gauss_jordan, A, B)
        assert _outcome(solve_matrix, A, B) == want, (case, A.data, B.data)
        key = want[2] if want[0] == "raised" else "solved"
        seen[key] = seen.get(key, 0) + 1
        if key == "solved":
            entry_types.update(t for row in want[3] for t in row)
    # every outcome of the loop is exercised, with int and Fraction entries
    assert entry_types == {int, Fraction}
    assert set(seen) == {
        "solved",
        "row mismatch in solve",
        "coefficient matrix does not have full column rank",
        "inconsistent linear system",
    }
    assert min(seen.values()) >= 100


def _quotient_outcome(order, K, S):
    try:
        return ("order", order(K, S))
    except ValueError as exc:
        return ("raised", str(exc))


def test_lattice_quotient_order_matches_gauss_jordan_loop():
    rng = random.Random(3)
    seen = set()
    for i in range(400):
        m, nk, ns = rng.randint(1, 5), rng.randint(0, 3), rng.randint(0, 4)
        nk = min(nk, m)
        K = Matrix([[rng.randint(-3, 3) for _ in range(nk)] for _ in range(m)], ncols=nk)
        if rank(K) < nk:
            K = Matrix.identity(m).submatrix(range(m), range(nk))
        C = Matrix([[rng.randint(-3, 3) for _ in range(ns)] for _ in range(nk)], ncols=ns)
        S = K * C
        if i % 4 == 3 and nk and ns:
            # half-integer coordinates: the generators leave the lattice
            S = K * C.scale(Fraction(1, 2))
        want = _quotient_outcome(lattice_quotient_order_by_gauss_jordan, K, S)
        assert _quotient_outcome(lattice_quotient_order, K, S) == want, (K.data, S.data)
        seen.add(want[1] if want[0] == "raised" else type(want[1]).__name__)
    assert seen == {"int", "NoneType", "generators do not lie in the lattice"}


def _random_multigraph(rng):
    """(vertices, edges) with loops and parallel edges among at most 8 edges."""
    n = rng.randint(1, 5)
    edges = []
    for _ in range(rng.randint(0, 8)):
        u = rng.randint(1, n)
        w = u if rng.random() < 0.15 else rng.randint(1, n)
        edges.append((u, w))
        if rng.random() < 0.15:
            edges.append((w, u))
    return n, edges[:8]


def test_rank_sum_tutte_matches_deletion_contraction():
    for n in range(9):
        for r in range(n + 1):
            M = uniform_matroid(r, n)
            assert tutte_polynomial(M) == tutte_by_deletion_contraction(M), (r, n)
    rng = random.Random(7)
    for _ in range(60):
        n, edges = _random_multigraph(rng)
        T = tutte_polynomial(graphic_matroid(n, edges))
        assert T == tutte_by_deletion_contraction(graphic_matroid(n, edges)), (n, edges)
        assert list(T) == sorted(T) and all(T.values())


def _incidence_rank(n, edges, subset):
    cols = []
    for i in subset:
        u, w = edges[i]
        col = [0] * n
        col[u - 1] -= 1
        col[w - 1] += 1
        cols.append(col)
    return rank(Matrix.from_columns(cols, nrows=n))


def test_graphic_rank_matches_incidence_rank():
    rng = random.Random(11)
    for _ in range(40):
        n, edges = _random_multigraph(rng)
        M = graphic_matroid(n, edges)
        for size in range(len(edges) + 1):
            for subset in combinations(range(len(edges)), size):
                assert M.rank(subset) == _incidence_rank(n, edges, subset), (n, edges, subset)


def test_graph_components_count_is_vertices_minus_rank():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 7)
        edges = {tuple(sorted(rng.sample(range(1, n + 1), 2))) for _ in range(rng.randint(1, 6))}
        X = from_facets(n, [set(e) for e in edges]).to_chain_complex()
        comps = graph_components(X)
        assert sorted(v for c in comps for v in c) == list(range(X.n_cells(0)))
        assert [c[0] for c in comps] == sorted(c[0] for c in comps)
        assert len(comps) == X.n_cells(0) - rank(X.boundaries[1])
