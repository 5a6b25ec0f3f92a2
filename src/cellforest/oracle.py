"""Brute-force enumeration ground truth.

Everything here is defined directly from the matrix definitions: forests are
independent column subsets, torsion comes from a Smith-form pass over the
selected columns, rooted forests pair independent column sets with row sets
carrying a nonsingular square submatrix.  These routines are the oracle that
every determinant and eigenvalue formula is tested against, so they stay
literal and visit every forest, cobase and rooted forest.  A depth-first
search finds them: it branches over the sparse elimination step of
``linalg`` and brings one nonzero maximal minor to each leaf.  One generator
runs it on an explicit stack of frames, so its depth is not bound by the
recursion limit; a node two short of a leaf pushes no frame and makes no
elimination: it reads each leaf's pivot, and with it the minor, straight off
the later column reduced against its own pivot, which it never stores.  The
search leaves a node at its first child without a leaf, because no later
sibling has one either: the candidates from position p on span a rank that
only falls as p grows.  A child with fewer candidates than it needs is known
dead before it is pushed.  Census leaves read their torsion off their own
minor.  The census streams: ``forest_search`` checks the cap and returns the
lazy search, which every count and sum walks once; only ``enumerate_forests``
keeps the forests.
Where beta_k = 0 the complements of the cobases at level k are the maximal
k-forests (the row matroid of d_{k+1} is then dual to the column matroid of
d_k), so the cobase enumerator walks the forest search over d_k, which reads
torsion 1 off a +-1 minor.  Elsewhere the cobases are searched row-side,
roots take their torsion off d_k's columns on the root, and kernel
defects project one kernel basis and one saturated-image basis per level
onto each cobase (the correspondence theorem, ``_kernel_defect``).

Enumeration order is lexicographic in cell indices throughout, so censuses
and reports are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import comb, gcd, prod

from .linalg import (
    Matrix,
    _eliminate,
    _sparse_columns,
    _sparse_rows,
    greedy_row_basis,
    invariant_factors,
    kernel_lattice_basis,
    rank,
    saturation_basis,
    torsion_order,
)
from .complexes import _integer_weights, boundary_matrix, require_boundary_composition, split_cells
from .homology import betti, forest_torsion

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


# ---------------------------------------------------------------------------
# depth-first search for independent column subsets
# ---------------------------------------------------------------------------


def _reduced_pivot(w, c, v, pv):
    """The pivot that ``linalg._eliminate`` takes in pv*w - c*v (c nonzero,
    w's entry on the row of v's pivot pv), times the content it divides out,
    or 0 if that column vanishes.

    The entries are walked in the order ``_eliminate`` stores them, w's rows
    first and then v's other rows, and no dict is built: the first entry +-1
    (the content is then 1), else the first entry +-h for the content h, else
    the last entry.
    """
    rest = []
    for r, x in w.items():
        if x := pv * x - c * v.get(r, 0):
            if x == 1 or x == -1:
                return x
            rest.append(x)
    for r, x in v.items():
        if r not in w:
            x *= -c
            if x == 1 or x == -1:
                return x
            rest.append(x)
    if not rest:
        return 0
    h = gcd(*rest)
    for x in rest:
        if x == h or x == -h:
            return x
    return rest[-1]


def _independent_subsets(cols, size):
    """Independent ``size``-subsets of sparse {row: value} integer columns, in
    lexicographic order, each as (subset, |det|) for one nonzero maximal minor.

    A node carries every later column reduced against the pivots of its
    prefix by ``linalg._eliminate``: v = (a/g)*column + (pivot columns), a the
    product of the pivots.  A column reduced to zero drops out with all its
    extensions.  The chosen columns are triangular on their pivot rows P, so
    det of the subset on P is the product of pivot*g/a; unit pivots come
    first, to keep that minor at 1.  The leftmost path is ``linalg._greedy_path``.

    One generator walks an explicit stack of frames [prefix, candidates, num,
    den, next position], so the depth of the search is not bound by Python's
    recursion limit.  A node two short of a leaf pushes no frame and calls
    no ``_eliminate``: for each later candidate w it reads the pivot x that
    ``_eliminate`` would give pv*w - c*v (c = w[pr]) off those entries, times
    the content, with ``_reduced_pivot``; w's own pivot where c = 0, and no
    leaf where the column vanishes.  The leaf's minor is then
    num*pv*g * x*g_w / (den*a * a_w*pv), without the last pv where c = 0.

    A node that needs ``need`` more columns from its candidates c_0, c_1, ...
    has a leaf below its child on c_p exactly when rank(c_p, c_{p+1}, ...) is
    at least ``need``: c_p is nonzero, so it extends to a basis of their span.
    That rank only falls as p grows, so the node stops at its first child
    without a leaf.  A child with fewer candidates than it needs is dead
    before it is pushed; any other dead child finds out along its own chain of
    first children, and a node that stops at its first child is dead too.
    """
    if size == 0:
        yield (), 1
        return
    cands = [(j, c, 1, 1) for j, c in enumerate(cols) if c]
    if size == 1:  # the root is the leaf level: each minor is the pivot
        for j, v, _, _ in cands:
            for pr, pv in v.items():
                if pv == 1 or pv == -1:
                    break
            yield (j,), abs(pv)
        return
    stack = [[(), cands, 1, 1, 0]]
    while stack:
        frame = stack[-1]
        prefix, cands, num, den, pos = frame
        need = size - len(prefix)
        if len(cands) - pos >= need:
            j, v, a, g = cands[pos]
            frame[4] = pos + 1
            for pr, pv in v.items():
                if pv == 1 or pv == -1:
                    break
            prefix, num, den = prefix + (j,), num * pv * g, den * a
            if need > 2:
                rest = _eliminate(cands[pos + 1 :], pr, v, pv)
                if len(rest) >= need - 1:
                    stack.append([prefix, rest, num, den, 0])
                    continue
            else:
                found = False
                for j, w, a, g in cands[pos + 1 :]:
                    c = w.get(pr)
                    if not c:
                        for x in w.values():
                            if x == 1 or x == -1:
                                break
                    elif x := _reduced_pivot(w, c, v, pv):
                        a *= pv
                    else:
                        continue
                    found = True
                    yield prefix + (j,), abs(num * x * g // (den * a))
                if found:
                    continue
        # this frame stops, dead unless a candidate before ``pos`` had a leaf;
        # a dead child stops its parent in turn
        found = pos > 0
        stack.pop()
        while not found and stack:
            found = stack.pop()[4] > 1


# ---------------------------------------------------------------------------
# forest census
# ---------------------------------------------------------------------------


def _forests(X, k, b, r):
    """The maximal spanning k-forests of X, lazily and in lexicographic order:
    the independent r-subsets of the k-cells (b = d_k, r its rank), each with
    the torsion order of the spanning subcomplex it generates (1 at once when
    the search's minor is +-1)."""
    for subset, minor in _independent_subsets(_sparse_columns(b), r):
        yield subset, 1 if minor == 1 else forest_torsion(X, subset, k)


def forest_search(X, k=None, cap=None, what="forest census"):
    """The maximal spanning k-forests of X (k defaults to dim), searched lazily
    by ``_forests``; ``CapExceeded`` at the call when C(n_k, rank d_k), the
    column subsets the search can visit, exceeds the cap."""
    k = X.dim if k is None else k
    b = boundary_matrix(X, k)
    r = rank(b)
    _check_cap(comb(b.ncols, r), cap, f"{what} at k={k}")
    return _forests(X, k, b, r)


@lru_cache(maxsize=8)
def enumerate_forests(X, k=None, cap=None):
    """``forest_search`` kept as a ``ForestCensus``."""
    k = X.dim if k is None else k
    return ForestCensus(k, rank(boundary_matrix(X, k)), tuple(forest_search(X, k, cap)))


def first_torsion_free_forest(X, k):
    """The census's first maximal spanning k-forest of torsion 1, or None.

    The search runs lazily, so no census is built; it stops with
    ``CapExceeded`` after ``DEFAULT_CAP`` forests without one.
    """
    b = boundary_matrix(X, k)
    for n, (subset, torsion) in enumerate(_forests(X, k, b, rank(b)), 1):
        if torsion == 1:
            return subset
        if n == DEFAULT_CAP:
            raise CapExceeded(
                f"torsion-free forest search at k={k} found none in {DEFAULT_CAP} forests"
            )
    return None


def _forest_sum(forests, weights=None):
    """(value, count) of a ``forest_search`` stream: the sum of t^2 over its
    forests, each times the product of the ``weights`` of its k-cells if given,
    and the number of forests.  The sum runs over the weights scaled to
    integers by q and is divided by q^r once, r the size of every forest, so
    the value is a ``Fraction`` with weights and an ``int`` without."""
    ws, q = _integer_weights(weights) if weights is not None else (None, 1)
    total = count = 0
    facets = ()
    for count, (facets, t) in enumerate(forests, 1):
        total += t * t if ws is None else t * t * prod(ws[i] for i in facets)
    return (total if ws is None else Fraction(total, q ** len(facets))), count


def tau_bruteforce(X, k=None, cap=None):
    """Torsion-weighted forest count: sum of squared codim-1 torsion orders."""
    return _forest_sum(forest_search(X, k, cap))[0]


def tau_weighted_bruteforce(X, k, w, cap=None):
    """Forest enumerator with weights multiplied over the k-cells of each
    forest (``_forest_sum``); every k-cell needs a weight (``ValueError``
    otherwise), checked after the cap."""
    return _forest_sum(forest_search(X, k, cap), w.cell_weights(X, k))[0]


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
        return split_cells(X, X.dim - 1, self.nonroot_faces)[1]


def _rooted_pairs(b, cap, what):
    """(F, S, |det b[S, F]|) over the nonsingular square submatrices of b,
    lexicographic in (F, S): for each independent column set F, an inner
    search over the rows of b[:, F].

    No nonsingular submatrix is larger than r = rank b, so the sizes run over
    0..r.  Before the first pair, the cap is checked against
    sum_{s<=r} C(nd, s) C(nd1, s), the number of (F, S) pairs of those sizes
    on b's nd columns and nd1 rows: every pair the searches can visit.
    """
    r = rank(b)
    total = sum(comb(b.ncols, s) * comb(b.nrows, s) for s in range(r + 1))
    _check_cap(total, cap, what)
    cols, rows = _sparse_columns(b), _sparse_rows(b)
    for s in range(r + 1):
        for facets, _ in _independent_subsets(cols, s):
            keep = set(facets)
            sub = [{c: v for c, v in row.items() if c in keep} for row in rows]
            for faces, minor in _independent_subsets(sub, s):
                yield facets, faces, minor


def enumerate_rooted_forests(X, cap=None):
    """All rooted spanning forests (of every size), lexicographic in (F, S).

    ``CapExceeded`` before the search when sum_{s<=rank} C(nd, s) C(nd1, s),
    the (F, S) pairs it can visit, exceeds the cap.
    """
    if X.dim < 1:
        raise ValueError("rooted forests need dimension at least 1")
    pairs = _rooted_pairs(boundary_matrix(X, X.dim), cap, "rooted forest enumeration")
    return tuple(RootedForest(facets, faces) for facets, faces, _ in pairs)


def rooted_forest_torsion_sums(X, cap=None):
    """Coefficient oracle: c[j] = sum of squared relative torsions over rooted
    forests whose root keeps j codim-1 cells.

    The relative torsion of a rooted forest (S, F), with S its nonroot
    codim-1 cells and F its facets, is |det d[S, F]|.  ``CapExceeded``
    before the search when sum_{s<=rank} C(nd, s) C(nd1, s), the (F, S)
    pairs it can visit, exceeds the cap.
    """
    b = boundary_matrix(X, X.dim)
    nd1 = b.nrows
    c = [0] * (nd1 + 1)
    for _, faces, minor in _rooted_pairs(b, cap, "rooted forest torsion sums"):
        c[nd1 - len(faces)] += minor * minor
    return tuple(c)


def count_orientations(X, facets, nonroot_faces):
    """Perfect matchings pairing each nonroot codim-1 face with a facet containing it."""
    b = boundary_matrix(X, X.dim)
    # matchings do not depend on the order of either side
    faces, _ = split_cells(X, X.dim - 1, nonroot_faces)
    cols, _ = split_cells(X, X.dim, facets)
    if len(faces) != len(cols):
        raise ValueError("orientation count needs equally many faces and facets")
    n = len(cols)
    adj = [
        sum(1 << j for j, c in enumerate(cols) if b[f, c] != 0) for f in faces
    ]

    @cache
    def rec(i, used):
        if i == n:
            return 1
        total = 0
        free = adj[i] & ~used
        while free:
            bit = free & -free
            total += rec(i + 1, used | bit)
            free ^= bit
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
    return tuple(rows for rows, _ in _independent_subsets(_sparse_rows(b), r))


def _defect_context(X, k):
    """A basis of ker d_k and one of the saturated image of d_{k+1}: shared by
    every cobase at level k.  The image must lie in ker d_k, i.e.
    d_k d_{k+1} = 0, which formal duals and matrix-form input never check at
    k = 0; d_{k+1} spans the same rational space as its saturation, so the
    check runs on it.  When beta_k = 0, rank d_{k+1} equals the nullity: the
    saturated image is all of ker d_k and every defect is 1, so neither basis is
    computed and ``(None, None)`` stands for them.
    """
    require_boundary_composition(X, k)
    bk = boundary_matrix(X, k)
    if betti(X, k) == 0:
        return None, None
    b = boundary_matrix(X, k + 1) if k < X.dim else Matrix.zeros(bk.ncols, 0)
    return kernel_lattice_basis(bk), saturation_basis(b)


def _kernel_defect(ker, sat, cobase):
    """Index in ker d_k of sat + (kernel avoiding the sorted k-cells ``cobase``).

    Those kernel vectors are the kernel of pi_S, the projection onto the
    cobase, so by the correspondence theorem the index is [pi_S(ker) :
    pi_S(sat)], spanned by the cobase rows of the two bases.  Of equal rank,
    the two share a saturation, and the index is the quotient of their
    products of invariant factors; of unequal rank, it is infinite.  ``sat``
    is ``None`` when it fills ker d_k, and the index is then 1.
    """
    if sat is None:
        return 1
    sat_factors = invariant_factors(sat.submatrix(cobase, range(sat.ncols)))
    ker_factors = invariant_factors(ker.submatrix(cobase, range(ker.ncols)))
    if len(sat_factors) < len(ker_factors):
        raise ValueError("cobase does not span: infinite defect")
    return prod(sat_factors) // prod(ker_factors)


def cobase_kernel_defect(X, k, cobase):
    """Order of ker d_k modulo (saturated image of d_{k+1}) + (kernel avoiding the cobase).

    This is the torsion-style correction a cobase contributes when the
    codim-1 rational homology does not vanish; it equals 1 whenever the
    saturated image fills the kernel, and is otherwise an index of their
    projections onto the cobase (``_kernel_defect``).  No vanishing
    hypotheses, though d_k d_{k+1} = 0 is presumed (``ValueError`` otherwise).
    """
    return _kernel_defect(*_defect_context(X, k), split_cells(X, k, cobase)[0])


def cobase_defect_enumerator(X, k, cap=None):
    """Torsion-weighted cobase enumerator at level k.

    Sums, over all row bases S of the (k+1)-st boundary, the squared torsion
    of the complementary root complex times the squared kernel defect of S.
    Where beta_k = 0 every defect is 1 and, by matroid duality, the roots are
    exactly the maximal k-forests: the row matroid of d_{k+1} is dual to the
    column matroid of d_k once im d_{k+1} fills ker d_k over Q.  The sum is
    then the forest search over d_k, which reads torsion 1 off a +-1 minor.
    Otherwise the cobases are searched row-side: each root's torsion is that
    of d_k's columns on the root, split from the cobase once, and each cobase
    is projected for its defect.  It too presumes d_k d_{k+1} = 0.
    """
    boundary_matrix(X, k + 1)  # at k = dim there is no d_{k+1}, a refusal
    ker, sat = _defect_context(X, k)
    if sat is None:
        return _forest_sum(forest_search(X, k, cap, "cobase enumeration"))[0]
    bk = boundary_matrix(X, k)
    rows = range(bk.nrows)
    total = 0
    for cobase in enumerate_cobases(X, k, cap):
        t_root = torsion_order(bk.submatrix(rows, split_cells(X, k, cobase)[1]))
        defect = _kernel_defect(ker, sat, cobase)
        total += t_root * t_root * defect * defect
    return total
