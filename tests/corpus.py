"""Seeded generators of the complexes and matrices that the differential tests share.

Every generator takes a ``random.Random`` so that each test seeds its own
stream; ``CORPUS`` is one fixed list of complexes built from ``SEED``.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

from cellforest.complexes import ChainComplex, WeightAssignment, dual_complex, from_facets
from cellforest.families import (
    complete_colorful,
    hypercube_complex,
    named_complex,
    simplex_skeleton,
)
from cellforest.homology import betti
from cellforest.linalg import Matrix, kernel_lattice_basis

SEED = 20261018


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------

def random_pure_2_complexes(rng, count):
    """Random pure 2-complexes on 5-7 vertices with beta_1 > 0."""
    out = []
    while len(out) < count:
        n = rng.randint(5, 7)
        triangles = list(combinations(range(1, n + 1), 3))
        S = from_facets(n, rng.sample(triangles, rng.randint(n - 1, 2 * n)))
        X = S.to_chain_complex()
        if X.dim == 2 and betti(X, 1) > 0:
            out.append(X)
    return out


def random_flag_complexes(rng, count):
    """Clique complexes of random graphs on 5-8 vertices, cut at dimension 3,
    each with a triangle.  Holes come from induced cycles of length 4 or
    more, and isolated vertices from vertices without edges."""
    out = []
    while len(out) < count:
        n = rng.randint(5, 8)
        p = rng.uniform(0.3, 0.8)
        edges = {e for e in combinations(range(1, n + 1), 2) if rng.random() < p}
        cliques = [c for size in (3, 4) for c in combinations(range(1, n + 1), size)
                   if all(e in edges for e in combinations(c, 2))]
        if cliques:
            facets = [(v,) for v in range(1, n + 1)] + sorted(edges) + cliques
            out.append(from_facets(n, facets).to_chain_complex())
    return out


def random_formal_duals(rng, count):
    """Formal duals of random pure 2-complexes and of random flag complexes,
    about half of each."""
    half = count // 2
    return [dual_complex(X) for X in random_pure_2_complexes(rng, half) + random_flag_complexes(rng, count - half)]


def unimodular(rng, n):
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return Matrix(rows)


def conjugated_smith_complexes(rng, count):
    """Matrix-form 2-complexes on one vertex whose top boundary is a random
    unimodular conjugate U D V of a chosen Smith form D: loops only, so
    dd = 0, and the top boundary has entries of every size, so its forests
    have maximal minors beyond +-1 with and without torsion."""
    out = []
    for _ in range(count):
        m, n = rng.randint(3, 5), rng.randint(3, 6)
        factors = [rng.choice((1, 1, 2, 3)) for _ in range(min(m, n) - 1)]
        D = Matrix([[factors[i] if i == j and i < len(factors) else 0 for j in range(n)] for i in range(m)])
        top = unimodular(rng, m) * D * unimodular(rng, n)
        cells = (("v",), tuple(f"e{i}" for i in range(m)), tuple(f"f{j}" for j in range(n)))
        out.append(ChainComplex.create(cells, (Matrix.zeros(1, m), top)))
    return out


def middle_homology_complexes(rng, count):
    """Matrix-form 3-complexes on one vertex with beta_2 > 0: a random middle
    boundary A, entries in -3..3, and a top boundary K C of lower rank than
    the basis K of ker A, so dd = 0 and the saturated image misses part of
    ker A.  The columns of A off a cobase often span a lattice with torsion,
    and then the kernel projected onto the cobase is not saturated."""
    out = []
    while len(out) < count:
        m, n = rng.randint(1, 3), rng.randint(3, 6)
        A = Matrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)], ncols=n)
        K = kernel_lattice_basis(A)
        if K.ncols < 2:
            continue
        p = rng.randint(1, K.ncols - 1)
        top = K * Matrix([[rng.randint(-2, 2) for _ in range(p)] for _ in range(K.ncols)], ncols=p)
        if top.is_zero:
            continue
        cells = (("v",), tuple(f"e{i}" for i in range(m)), tuple(f"f{j}" for j in range(n)),
                 tuple(f"s{j}" for j in range(p)))
        out.append(ChainComplex.create(cells, (Matrix.zeros(1, m), A, top)))
    return out


# a single edge whose boundary is zero: every boundary of rank 0 at once
RANK_ZERO = ChainComplex.create((("a", "b"), ("e",)), (Matrix([[0], [0]]),))
CORPUS = (
    [named_complex(name) for name in ("rp2_six_vertex", "rp2_cell", "moebius", "annulus", "bipyramid")]
    + [
        simplex_skeleton(5, 2).to_chain_complex(),
        simplex_skeleton(7, 1).to_chain_complex(),
        complete_colorful(2, 2, 2).to_chain_complex(),
        hypercube_complex(3),
        dual_complex(named_complex("moebius")),
        dual_complex(named_complex("rp2_six_vertex")),
        RANK_ZERO,
    ]
    + random_pure_2_complexes(random.Random(SEED), 4)
    + conjugated_smith_complexes(random.Random(SEED), 6)
)

# H_0 = Z/2 under a 2-cell with zero boundary: the corpus has no torsion
# below codimension 1
TORSION_BELOW = ChainComplex.create(
    (("a", "b"), ("e",), ("f",)), (Matrix([[2], [-2]]), Matrix([[0]]))
)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def random_integer(rng, n, lo=-9, hi=9, ncols=None):
    ncols = n if ncols is None else ncols
    return Matrix([[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(n)], ncols=ncols)


def random_rational(rng, n, ncols=None):
    ncols = n if ncols is None else ncols
    return Matrix(
        [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(ncols)] for _ in range(n)],
        ncols=ncols,
    )


def low_rank_psd(rng, n):
    r = rng.randint(0, n)
    A = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
    return Matrix([[sum(a * b for a, b in zip(A[i], A[j])) for j in range(n)] for i in range(n)], ncols=n)


def random_sparse_columns(rng):
    """Up to ten sparse {row: value} integer columns, rows ascending, of low
    rank: each is a zero column, one of a few random base columns (entries
    in -3..3, non-units included) or an integer combination of two of them,
    which may cancel to zero."""
    nrows = rng.randint(1, 6)
    r = rng.randint(1, nrows)
    base = [[rng.choice((0, 0, -3, -2, -1, 1, 2, 3)) for _ in range(nrows)] for _ in range(r)]
    cols = []
    for _ in range(rng.randint(0, 10)):
        kind = rng.random()
        if kind < 0.1:
            col = [0] * nrows
        elif kind < 0.5:
            col = rng.choice(base)
        else:
            x, y = rng.choice(base), rng.choice(base)
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            col = [a * p + b * q for p, q in zip(x, y)]
        cols.append({i: v for i, v in enumerate(col) if v})
    return cols


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

_SMALL = (1, 2, 3, 5, 7, 11, 13, 17, 19)
WEIGHT_VALUES = tuple(Fraction(p, q) for p in _SMALL for q in _SMALL if math.gcd(p, q) == 1)


def random_weights(rng, X):
    """Seeded positive rational weights on every cell of X.

    The values are a shuffle of the first cells-many entries of
    ``WEIGHT_VALUES`` (p/q with p, q in ``_SMALL``, cycled), drawn exactly as
    ``benchmarks/workloads.py`` draws its weights, so ``random.Random(seed)``
    gives the benchmark's weights for that seed.
    """
    keys = [(k, i) for k in range(X.dim + 1) for i in range(X.n_cells(k))]
    values = [WEIGHT_VALUES[i % len(WEIGHT_VALUES)] for i in range(len(keys))]
    rng.shuffle(values)
    return WeightAssignment(dict(zip(keys, values)))
