"""Brute-force enumeration ground truth.

Everything here is defined directly from the matrix definitions: forests are
independent column subsets, torsion comes from a Smith-form pass over the
selected columns, rooted forests pair independent column sets with row sets
carrying a nonsingular square submatrix.  These routines are the oracle that
every determinant and eigenvalue formula is tested against, so they stay
deliberately literal; the only concession to speed is a sparse unit-pivot
contraction before the dense Smith residual.

Enumeration order is lexicographic in cell indices throughout, so censuses
and reports are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd, prod

from .linalg import (
    Matrix,
    det,
    greedy_row_basis,
    invariant_factors,
    kernel_lattice_basis,
    rank,
    saturation_basis,
)
from .complexes import boundary_matrix
from .homology import forest_torsion

DEFAULT_CAP = 5_000_000


class CapExceeded(RuntimeError):
    """The requested enumeration is larger than the configured cap."""


def _check_cap(size, cap, what):
    cap = DEFAULT_CAP if cap is None else cap
    if size > cap:
        raise CapExceeded(f"{what} needs {size} subsets, cap is {cap}")


@dataclass(frozen=True)
class ForestCensus:
    """All maximal spanning k-forests with their codim-1 torsion orders."""

    k: int
    rank: int
    forests: tuple  # ((facet indices), torsion order), lexicographic

    def tau(self):
        return sum(t * t for _, t in self.forests)

    def tau_weighted(self, X, w):
        total = Fraction(0)
        for facets, t in self.forests:
            mono = Fraction(1)
            for i in facets:
                mono *= w[(self.k, i)]
            total += t * t * mono
        return total

    def export_lines(self, X):
        labels = X.labels(self.k)
        return tuple(
            " ".join(labels[i] for i in facets) + f" ; {t}" for facets, t in self.forests
        )


# ---------------------------------------------------------------------------
# sparse rank + torsion of a column selection
# ---------------------------------------------------------------------------


def _profile_columns(cols):
    """(rank, torsion) of the integer matrix with the given sparse columns.

    ``cols`` is a sequence of {row: value} dicts.  Unit pivots are contracted
    first: clearing the pivot row from the other columns is a column
    operation, after which the row operations that would clear the pivot
    column touch nothing else, so the row/column pair can simply be dropped.
    Whatever remains has no unit entries and goes through the dense Smith
    routine.
    """
    work = [dict(c) for c in cols]
    rk = 0
    while True:
        pivot = None
        for ci, col in enumerate(work):
            for r, v in col.items():
                if v == 1 or v == -1:
                    pivot = (ci, r, v)
                    break
            if pivot:
                break
        if not pivot:
            break
        ci, r, v = pivot
        pcol = work.pop(ci)
        for col in work:
            c = col.get(r)
            if c is not None:
                q = c * v  # c // v for v = +-1
                for rr, vv in pcol.items():
                    if rr == r:
                        continue
                    nv = col.get(rr, 0) - q * vv
                    if nv:
                        col[rr] = nv
                    else:
                        col.pop(rr, None)
                del col[r]
        rk += 1
    work = [c for c in work if c]
    if not work:
        return rk, 1
    rows = sorted({r for col in work for r in col})
    rindex = {r: i for i, r in enumerate(rows)}
    dense = [[0] * len(work) for _ in rows]
    for j, col in enumerate(work):
        for r, v in col.items():
            dense[rindex[r]][j] = v
    factors = invariant_factors(Matrix(dense, ncols=len(work)))
    return rk + len(factors), prod(f for f in factors if f > 1)


def _sparse_columns(b):
    return tuple(
        {i: b[i, j] for i in range(b.nrows) if b[i, j]} for j in range(b.ncols)
    )


# ---------------------------------------------------------------------------
# forest census
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def enumerate_forests(X, k=None, cap=None):
    """Census of the maximal spanning k-forests of X (k defaults to dim).

    Iterates the rank-size subsets of the k-cells in lexicographic order; each
    subset gets a single elimination pass yielding both independence and the
    torsion order of the spanning subcomplex it generates.
    """
    k = X.dim if k is None else k
    b = boundary_matrix(X, k)
    r = rank(b)
    _check_cap(comb(b.ncols, r), cap, f"forest census at k={k}")
    cols = _sparse_columns(b)
    forests = []
    for subset in combinations(range(b.ncols), r):
        rk, tor = _profile_columns([cols[j] for j in subset])
        if rk == r:
            forests.append((subset, tor))
    return ForestCensus(k, r, tuple(forests))


def tau_bruteforce(X, k=None, cap=None):
    """Torsion-weighted forest count: sum of squared codim-1 torsion orders."""
    return enumerate_forests(X, k, cap).tau()


def tau_weighted_bruteforce(X, k, w, cap=None):
    """Forest enumerator with weights multiplied over the top cells of each forest."""
    return enumerate_forests(X, k, cap).tau_weighted(X, w)


# ---------------------------------------------------------------------------
# rooted forests and orientations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootedForest:
    """A spanning forest (facet columns) with a root (removed codim-1 rows).

    ``nonroot_faces`` lists the codim-1 cells outside the root; the square
    boundary submatrix on (nonroot_faces, facets) is nonsingular.
    """

    facets: tuple
    nonroot_faces: tuple

    def root_faces(self, X):
        s = set(self.nonroot_faces)
        return tuple(i for i in range(X.n_cells(X.dim - 1)) if i not in s)


def enumerate_rooted_forests(X, cap=None):
    """All rooted spanning forests (of every size), lexicographic in (F, S)."""
    d = X.dim
    if d < 1:
        raise ValueError("rooted forests need dimension at least 1")
    b = boundary_matrix(X, d)
    nd, nd1 = b.ncols, b.nrows
    total = sum(comb(nd, s) * comb(nd1, s) for s in range(min(nd, nd1) + 1))
    _check_cap(total, cap, "rooted forest enumeration")
    out = []
    for s in range(min(nd, nd1) + 1):
        for facets in combinations(range(nd), s):
            for faces in combinations(range(nd1), s):
                if s == 0 or det(b.submatrix(faces, facets)) != 0:
                    out.append(RootedForest(facets, faces))
    return tuple(out)


def rooted_forest_torsion_sums(X, cap=None):
    """Coefficient oracle: c[j] = sum of squared relative torsions over rooted
    forests whose root keeps j codim-1 cells.

    The relative torsion of a rooted forest (S, F), with S its nonroot
    codim-1 cells and F its facets, is |det d[S, F]|.  Grouped by the row
    set S: a depth-first elimination over the columns of d restricted to S
    visits every F with det d[S, F] != 0 and carries the determinant to the
    leaf.
    """
    d = X.dim
    b = boundary_matrix(X, d)
    nd1 = b.nrows
    r = rank(b)
    total = sum(comb(nd1, s) for s in range(r + 1))
    _check_cap(total, cap, "rooted forest torsion sums")
    cols_full = _sparse_columns(b)
    c = [0] * (nd1 + 1)
    for s in range(r + 1):
        for faces in combinations(range(nd1), s):
            keep = set(faces)
            cols = [{i: v for i, v in col.items() if i in keep} for col in cols_full]
            c[nd1 - s] += _sum_squared_minors(cols, s)
    return tuple(c)


def _sum_squared_minors(cols, target):
    """Sum of det^2 over the column subsets of the given size, for sparse
    columns supported on ``target`` rows (exact, DFS).

    Each step eliminates the new column v against the chosen ones
    fraction-free, v <- p*v - c*pivot_column, then divides out the gcd g of v.
    The chosen vectors are triangular on their pivot rows, so up to sign the
    determinant of the chosen columns is the product of the pivots times the
    product of the g's over the product of the multipliers p.
    """
    if target == 0:
        return 1
    n = len(cols)

    def rec(start, chosen, basis, num, den):
        if chosen == target:
            q = num // den
            return q * q
        total = 0
        for j in range(start, n - (target - chosen) + 1):
            v = dict(cols[j])
            scale = 1
            for pr, pcol in basis:
                cv = v.get(pr)
                if not cv:
                    continue
                pv = pcol[pr]
                # v <- pv*v - cv*pcol, killing row pr fraction-free
                scale *= pv
                v = {rr: vv * pv for rr, vv in v.items()}
                for rr, vv in pcol.items():
                    nv = v.get(rr, 0) - cv * vv
                    if nv:
                        v[rr] = nv
                    else:
                        v.pop(rr, None)
            if v:
                g = 0
                for vv in v.values():
                    g = gcd(g, vv)
                    if g == 1:
                        break
                if g > 1:
                    v = {rr: vv // g for rr, vv in v.items()}
                pr = next(iter(v))
                total += rec(j + 1, chosen + 1, basis + [(pr, v)], num * v[pr] * g, den * scale)
        return total

    return rec(0, 0, [], 1, 1)


def count_orientations(X, facets, nonroot_faces):
    """Perfect matchings pairing each nonroot codim-1 face with a facet containing it."""
    b = boundary_matrix(X, X.dim)
    faces = tuple(nonroot_faces)
    cols = tuple(facets)
    if len(faces) != len(cols):
        raise ValueError("orientation count needs equally many faces and facets")
    n = len(cols)
    adj = [
        sum(1 << j for j, c in enumerate(cols) if b[f, c] != 0) for f in faces
    ]

    memo = {}

    def rec(i, used):
        if i == n:
            return 1
        key = used
        hit = memo.get((i, key))
        if hit is not None:
            return hit
        total = 0
        free = adj[i] & ~used
        while free:
            bit = free & -free
            total += rec(i + 1, used | bit)
            free ^= bit
        memo[(i, key)] = total
        return total

    return rec(0, 0)


# ---------------------------------------------------------------------------
# cobases and their kernel-defect invariants
# ---------------------------------------------------------------------------


def default_cobase(X, k=None):
    """Lexicographically first row basis of the (k+1)-st boundary (k defaults to dim-1)."""
    k = X.dim - 1 if k is None else k
    return greedy_row_basis(boundary_matrix(X, k + 1))


def enumerate_cobases(X, k, cap=None):
    """All row bases of the (k+1)-st boundary, as sorted index tuples."""
    b = boundary_matrix(X, k + 1)
    r = rank(b)
    _check_cap(comb(b.nrows, r), cap, f"cobase enumeration at k={k}")
    bt = b.transpose()
    out = []
    for rows in combinations(range(b.nrows), r):
        if rank(bt.submatrix(range(bt.nrows), rows)) == r:
            out.append(rows)
    return tuple(out)


def _defect_context(X, k):
    """d_k, its nullity and the saturated image of d_{k+1}: shared by every
    cobase at level k.  The image must lie in ker d_k, i.e. d_k d_{k+1} = 0,
    which formal duals and matrix-form input never check at k = 0.
    """
    bk = boundary_matrix(X, k)
    if k + 1 <= X.dim:
        sat = saturation_basis(boundary_matrix(X, k + 1))
    else:
        sat = Matrix.zeros(bk.ncols, 0)
    if not (bk * sat).is_zero:
        raise ValueError(
            f"d_{k} d_{k + 1} != 0 at level {k} "
            "(formal duals and matrix-form input skip the augmentation check)"
        )
    return bk, bk.ncols - rank(bk), sat


def _kernel_defect(bk, nullity, sat, cobase):
    """Index in ker d_k of the lattice sat + (kernel avoiding the cobase).

    ker d_k is saturated, so for generators of full rank inside it the index
    is the product of their invariant factors.
    """
    if nullity == 0:
        return 1
    outside = sorted(set(range(bk.ncols)) - set(cobase))
    sub = bk.submatrix(range(bk.nrows), outside)
    lifted = []
    for col in kernel_lattice_basis(sub).columns():
        v = [0] * bk.ncols
        for i, x in zip(outside, col):
            v[i] = x
        lifted.append(v)
    gens = Matrix.from_columns(list(sat.columns()) + lifted, nrows=bk.ncols)
    factors = invariant_factors(gens)
    if len(factors) < nullity:
        raise ValueError("cobase does not span: infinite defect")
    return prod(factors)


def cobase_kernel_defect(X, k, cobase):
    """Order of ker d_k modulo (saturated image of d_{k+1}) + (kernel avoiding the cobase).

    This is the torsion-style correction a cobase contributes when the
    codim-1 rational homology does not vanish; it equals 1 whenever the
    saturated image already fills the kernel.  No vanishing hypotheses, though
    d_k d_{k+1} = 0 is presumed (``ValueError`` otherwise).
    """
    bk, nullity, sat = _defect_context(X, k)
    return _kernel_defect(bk, nullity, sat, cobase)


def cobase_defect_enumerator(X, k, cap=None):
    """Torsion-weighted cobase enumerator at level k.

    Sums, over all row bases S of the (k+1)-st boundary, the squared torsion
    of the complementary root complex times the squared kernel defect of S.
    On complexes whose rational homology vanishes at levels k and k-1 this
    reduces to the torsion-weighted count of maximal k-forests.  It too
    presumes d_k d_{k+1} = 0.
    """
    bk, nullity, sat = _defect_context(X, k)
    # when the saturated image spans the whole kernel lattice (vanishing
    # rational homology at level k), every defect is 1
    trivial = sat.ncols == nullity
    total = 0
    for cobase in enumerate_cobases(X, k, cap):
        root = sorted(set(range(X.n_cells(k))) - set(cobase))
        t_root = forest_torsion(X, root, k)
        defect = 1 if trivial else _kernel_defect(bk, nullity, sat, cobase)
        total += t_root * t_root * defect * defect
    return total
