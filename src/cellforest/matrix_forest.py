"""Torsion-weighted forest counts from Laplacian determinants and spectra.

Each routine here is an independent computation of the same quantity

    tau_d(X) = sum over maximal spanning d-forests T of t_{d-1}(T)^2,

optionally weighted by a product of top-cell weights.  The routes:

* ``tau_reduced``      -- determinant of the Laplacian reduced at a root.
* ``tau_pseudodet``    -- product of nonzero Laplacian eigenvalues over the
                          count one dimension down (recursive).
* ``tau_alternating``  -- the closed-form alternating product of
                          pseudodeterminants obtained by iterating the above.
* ``tau_covolume``     -- determinant of the Laplacian restricted to the image
                          lattice of the top boundary, over its squared covolume.
* ``tau_cobase``       -- fully general reduced determinant with a kernel-defect
                          correction; no vanishing hypotheses (dd = 0 presumed).
* ``tau_cobase_spectral`` -- fully general eigenvalue form, normalized by the
                          torsion-weighted cobase enumerator.
* ``tau_algebraic_weighted`` / ``tau_weighted_alternating`` -- the same story
                          for the algebraically weighted Laplacian, where lower
                          dimensional weights enter.

The spectral routes and ``rooted_forest_polynomial`` take level k's
Laplacian from ``_level_gram``, on the fewer of the (k-1)-cells and the
k-cells (the (k-1)-cells on a tie): it is a product AB, and BA has the same
nonzero eigenvalues with multiplicity (Horn and Johnson, *Matrix Analysis*,
2nd ed., Thm 1.3.22), so det(zI_n + AB) = z^(n-m) det(zI_m + BA) for n >= m
(Sylvester's identity).  Each side is one ``complexes._gram``.  The values
still come from ``char_poly``, so these routes stay independent of the
determinant routes.

All hypotheses are checked before any determinant is taken; a violated check
raises ``HypothesisError`` naming the offending Betti number or torsion order.
Every report records the correction factors actually used, so cross-method
disagreements are diagnosable from the reports alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .linalg import (
    CharPoly,
    _canon,
    _pivot_rows,
    _sparse_columns,
    char_poly,
    column_lattice_basis,
    covolume_squared,
    det,
    greedy_column_basis,
    pseudodet,
    rank,
    torsion_order,
)
from .complexes import (
    _gram,
    boundary_matrix,
    laplacian,
    skeleton,
    split_cells,
    vertex_components,
    weighted_laplacian,
)
from .homology import betti, forest_torsion, homology, is_maximal_spanning_forest, torsion
from .oracle import cobase_defect_enumerator, cobase_kernel_defect, default_cobase


class HypothesisError(ValueError):
    """A formula's vanishing hypothesis fails; the message names the condition."""


def _require(cond, msg):
    if not cond:
        raise HypothesisError(msg)


def format_exact(x):
    """Exact rendering: integers plainly, rationals as p/q."""
    if isinstance(x, Fraction) and x.denominator != 1:
        return f"{x.numerator}/{x.denominator}"
    return str(int(x))


@dataclass(frozen=True)
class TauReport:
    """A forest count with the method, corrections, and intermediates that produced it."""

    method: str
    k: int
    value: object
    corrections: tuple = ()
    details: tuple = ()
    hypotheses: tuple = ()

    def render(self):
        lines = [f"method: {self.method}", f"k: {self.k}", f"value: {format_exact(self.value)}"]
        if self.corrections:
            lines.append(
                "corrections: " + " ".join(f"{n}={format_exact(v)}" for n, v in self.corrections)
            )
        if self.details:
            lines.append("details: " + " ".join(f"{n}={v}" for n, v in self.details))
        if self.hypotheses:
            lines.append("hypotheses: " + "; ".join(self.hypotheses))
        return "\n".join(lines)


def default_root(X):
    """Deterministic root: the lexicographically greedy one.

    When codim-1 rational homology vanishes this is the greedy column basis of
    the codim-1 boundary (a maximal forest); otherwise it is the complement of
    the greedy row basis of the top boundary.
    """
    d = X.dim
    if betti(X, d - 1) == 0:
        return greedy_column_basis(boundary_matrix(X, d - 1))
    return split_cells(X, d - 1, default_cobase(X))[1]


def _row_basis_rows(X, sel, msg):
    """The rows of the top boundary on the (d-1)-cells ``sel``, after checking
    that they are a row basis of it (``HypothesisError`` with ``msg`` if not)."""
    b = boundary_matrix(X, X.dim)
    rows = b.submatrix(sel, range(b.ncols))
    _require(rank(rows) == len(sel) == rank(b), msg)
    return rows


def _top_laplacian(X, weights):
    if weights is None:
        return laplacian(X, X.dim - 1, "ud")
    return weighted_laplacian(X, X.dim, weights)


def _level_gram(X, k, weights=None, similar=False):
    """Level k's Laplacian on the fewer of the (k-1)-cells and the k-cells
    (the (k-1)-cells on a tie), as one ``_gram`` of d = d_k with W = D_k, the
    k-cells' weights (1 without ``weights``), and S = D_{k-1}^-1 with
    ``similar`` (else 1): S d W d^T on the (k-1)-cells, the same Gram of d^T
    with W and S swapped, W d^T S d, on the k-cells.
    """
    d = boundary_matrix(X, k)
    w = s = None
    if weights is not None:
        w = weights.cell_weights(X, k)
        if similar:
            s = [1 / x for x in weights.cell_weights(X, k - 1)]
    if X.n_cells(k) < X.n_cells(k - 1):
        return _gram(d.transpose(), s, w)
    return _gram(d, w, s)


def _level_pseudodet(X, k, weights=None, similar=False):
    """The pseudodeterminant of level k's Laplacian, taken on its smaller side."""
    return pseudodet(_level_gram(X, k, weights, similar))


def tau_reduced(X, root=None, weights=None):
    """Forest count as a reduced-Laplacian determinant at a root.

    With vanishing codim-1 and codim-2 rational homology and a maximal
    codim-1 forest as root, the correction is the squared torsion ratio of the
    ambient complex to the root; for a general root it is the squared ratio of
    the codim-1 torsion to the relative torsion at the root.
    """
    d = X.dim
    _require(d >= 1, "reduced determinant needs dimension at least 1")
    root, sel = split_cells(X, d - 1, default_root(X) if root is None else root)
    L = _top_laplacian(X, weights)
    det_ls = det(L.submatrix(sel, sel))
    hypotheses = []
    maximal_root = (
        is_maximal_spanning_forest(X, root, d - 1)
        and betti(X, d - 1) == 0
        and betti(X, d - 2) == 0
    )
    if maximal_root:
        hypotheses.append(f"beta_{d-1}(X)=0")
        hypotheses.append(f"beta_{d-2}(X)=0")
        hypotheses.append("root is a maximal codim-1 forest")
        t_x = torsion(X, d - 2)
        t_r = forest_torsion(X, root, d - 1)
        value = _canon(Fraction(t_x * t_x, t_r * t_r) * det_ls)
        corrections = ((f"t{d-2}(X)", t_x), (f"t{d-2}(R)", t_r))
    else:
        rows = _row_basis_rows(
            X, sel, "selection is not a root: complementary rows are not a row basis of the top boundary"
        )
        hypotheses.append("root complement is a row basis of the top boundary")
        t_x = torsion(X, d - 1)
        # the relative torsion t_{d-1}(X, R) is that of the rows off the root
        t_rel = torsion_order(rows)
        value = _canon(Fraction(t_x * t_x, t_rel * t_rel) * det_ls)
        corrections = ((f"t{d-1}(X)", t_x), (f"t{d-1}(X,R)", t_rel))
    return TauReport(
        method="reduced",
        k=d,
        value=value,
        corrections=corrections,
        details=(("det_reduced", format_exact(det_ls)), ("root", ",".join(map(str, root)))),
        hypotheses=tuple(hypotheses),
    )


def _eigen_levels(X, level_factor, formula):
    """The eigenvalue-product recursion tau_k = t_{k-2}^2 * level_factor(k) / tau_{k-1}
    for k = 0..d, grounded at tau_{-1} = 1.

    ``level_factor(k)`` is the pseudodeterminant of the level's (possibly
    weighted) Laplacian on the (k-1)-cells, times any weight monomial; at
    k = 0 that Laplacian is the 1x1 augmentation one.  Every hypothesis is
    checked, naming ``formula``, before the first level factor is taken:
    beta_{d-1}, then one homology pass (a rank and a Smith form) per
    k = d-2 down to 0, which also gives t_k.  The factors are then taken top
    down.  Returns (tau_d, level factor d, t_{d-2}, tau_{d-1}).
    """
    d = X.dim
    _require(
        betti(X, d - 1) == 0,
        f"beta_{d-1}(X) != 0: {formula} needs vanishing codim-1 homology",
    )
    # t[k] = t_{k-2}(X), the torsion that level k corrects by
    t = [1] * (d + 1)
    for k in range(d - 2, -1, -1):
        h = homology(X, k)
        _require(h.betti == 0, f"beta_{k}(X) != 0: {formula} needs vanishing codim-2 homology")
        t[k + 2] = h.torsion_order
    lams = [level_factor(k) for k in range(d, -1, -1)][::-1]
    taus = [1]
    for k, lam in enumerate(lams):
        taus.append(_canon(Fraction(t[k] * t[k]) * lam / taus[-1]))
    return taus[-1], lams[d], t[d], taus[-2]


def tau_pseudodet(X, weights=None):
    """Forest count as pseudodeterminant of the top Laplacian over the count below."""
    d = X.dim
    _require(d >= 1, "eigenvalue-product formula needs dimension at least 1")

    def level_factor(k):
        # weights apply at the top level only
        return _level_pseudodet(X, k, weights if k == d else None)

    value, lam, t_x, below = _eigen_levels(X, level_factor, "eigenvalue-product formula")
    return TauReport(
        method="pseudodet",
        k=d,
        value=value,
        corrections=((f"t{d-2}(X)", t_x), (f"tau{d-1}(X)", below)),
        details=(("pseudodet", format_exact(lam)),),
        hypotheses=(f"beta_{d-1}(X)=0", f"beta_{d-2}(X)=0"),
    )


def _alternating_product(X, formula, level_factor):
    """The alternating product over levels i = 0..d of ``level_factor(i)`` (the
    pseudodeterminant of level i's Laplacian), level i to the power (-1)^(d-i),
    after checking the hypotheses of ``tau_alternating`` (``formula`` names
    the product if the dimension is below 1).  Returns (value, the factors).
    """
    d = X.dim
    _require(d >= 1, f"{formula} needs dimension at least 1")
    for k in range(d):
        _require(
            betti(X, k) == 0, f"beta_{k}(X) != 0: alternating product needs acyclicity below the top"
        )
    for k in range(d - 1):
        _require(
            torsion(X, k) == 1,
            f"t_{k}(X) != 1: alternating product needs torsion-free homology below codimension 1",
        )
    lams = [level_factor(i) for i in range(d + 1)]
    return _canon(prod(Fraction(lam) ** ((-1) ** (d - i)) for i, lam in enumerate(lams))), lams


def tau_alternating(X):
    """Closed-form alternating product of Laplacian pseudodeterminants.

    Valid when rational homology vanishes below the top dimension and integer
    torsion is trivial below codimension 1 (codim-1 torsion is allowed: it
    never enters the correction factors of the underlying recursion).
    """
    d = X.dim
    value, lams = _alternating_product(
        X, "alternating product", lambda i: _level_pseudodet(X, i)
    )
    return TauReport(
        method="alternating",
        k=d,
        value=value,
        details=tuple((f"lam(L{i-1})", format_exact(lam)) for i, lam in enumerate(lams)),
        hypotheses=tuple(
            [f"beta_{k}(X)=0" for k in range(d)] + [f"t_{k}(X)=1" for k in range(d - 1)]
        ),
    )


def tau_covolume(X, weights=None):
    """Forest count from the Laplacian restricted to the top boundary's image lattice.

    Fully general: tau = t_{d-1}(X)^2 det(L|_B) / covol(B)^2 with B the integer
    image lattice of the *top* boundary (the codim-1 Laplacian maps it to
    itself; restricting to the image of the codim-1 boundary instead fails the
    cross-checks).  A rank-zero boundary returns 1 by the empty-product
    convention.  No solve is needed: column j of the Hermite basis B has its
    first nonzero, a positive pivot, at row p_j with p ascending, so B[P,:] is
    lower triangular (Cohen, GTM 138, Sec. 2.4).  L B = B A for the matrix A
    of L|_B gives (L B)[P,:] = B[P,:] A, so
    det(L|_B) = det(L[P,:] B) / prod_j B[p_j, j].  When every pivot is 1,
    B[P,:] is the identity and covol(B)^2 = det(I + X^T X) for the other
    n - r rows X; ``covolume_squared`` then takes det(I + X X^T) when
    n - r < r (Sylvester's identity, Horn and Johnson, Thm 1.3.22).
    """
    d = X.dim
    _require(d >= 1, "covolume formula needs dimension at least 1")
    b = boundary_matrix(X, d)
    basis = column_lattice_basis(b)
    if basis.ncols == 0:
        return TauReport(method="covolume", k=d, value=1, details=(("rank", "0"),))
    L = _top_laplacian(X, weights)
    covol2 = covolume_squared(basis)
    pivots = _pivot_rows(basis)
    pivot_product = prod(basis[p, j] for j, p in enumerate(pivots))
    det_action = _canon(Fraction(det(L.submatrix(pivots, range(L.ncols)) * basis)) / pivot_product)
    t_x = torsion(X, d - 1)
    value = _canon(Fraction(t_x * t_x) * det_action / covol2)
    return TauReport(
        method="covolume",
        k=d,
        value=value,
        corrections=((f"t{d-1}(X)", t_x), ("covol^2", covol2)),
        details=(("det_restricted", format_exact(det_action)),),
    )


def tau_cobase(X, cobase=None):
    """Fully general reduced determinant at a cobase, defect-corrected.

    tau = t_{d-2}(X)^2 det L_S / (t_{d-2}(R)^2 t'_{d-1}(S)^2) for any row basis
    S of the top boundary, with R the complementary root and t' the kernel
    defect of S.  No vanishing hypotheses, though d_{d-1} d_d = 0 is still
    presumed (``ValueError`` otherwise, as on some formal duals).
    """
    d = X.dim
    _require(d >= 1, "cobase determinant needs dimension at least 1")
    cobase, root = split_cells(X, d - 1, default_cobase(X) if cobase is None else cobase)
    _row_basis_rows(X, cobase, "selection is not a cobase: rows are not a row basis of the top boundary")
    L = laplacian(X, d - 1, "ud")
    det_ls = det(L.submatrix(cobase, cobase))
    t_x = torsion(X, d - 2)
    t_r = forest_torsion(X, root, d - 1)
    defect = cobase_kernel_defect(X, d - 1, cobase)
    value = _canon(Fraction(t_x * t_x, t_r * t_r * defect * defect) * det_ls)
    return TauReport(
        method="cobase",
        k=d,
        value=value,
        corrections=((f"t{d-2}(X)", t_x), (f"t{d-2}(R)", t_r), ("defect", defect)),
        details=(("det_reduced", format_exact(det_ls)), ("cobase", ",".join(map(str, cobase)))),
        hypotheses=("cobase rows are a row basis of the top boundary",),
    )


def tau_cobase_spectral(X, cap=None):
    """Fully general eigenvalue form: pseudodeterminant over the cobase enumerator.

    No vanishing hypotheses, though d_{d-1} d_d = 0 is presumed as in ``tau_cobase``.
    """
    d = X.dim
    _require(d >= 1, "cobase spectral formula needs dimension at least 1")
    lam = _level_pseudodet(X, d)
    h = cobase_defect_enumerator(X, d - 1, cap=cap)
    t_x = torsion(X, d - 2)
    value = _canon(Fraction(t_x * t_x) * lam / h)
    return TauReport(
        method="cobase-spectral",
        k=d,
        value=value,
        corrections=((f"t{d-2}(X)", t_x), ("cobase_enumerator", h)),
        details=(("pseudodet", format_exact(lam)),),
    )


def _weighted_level_factor(X, weights):
    """Level k of the algebraic weighting: the pseudodeterminant of the
    weighted Laplacian on the (k-1)-cells, taken on the smaller side, times
    the (k-1)-cells' weight monomial (the empty face's weight is 1)."""

    def level_factor(k):
        mono = prod(weights.cell_weights(X, k - 1))
        return _level_pseudodet(X, k, weights, similar=True) * mono

    return level_factor


def tau_algebraic_weighted(X, weights):
    """Weighted forest count from the algebraically weighted Laplacian spectrum.

    Recursive in the dimension, grounded at the 1x1 sum-of-vertex-weights
    Laplacian of the empty face (which carries weight 1 by convention).
    """
    d = X.dim
    _require(d >= 1, "algebraic weighted formula needs dimension at least 1")
    value, _, t_x, _ = _eigen_levels(X, _weighted_level_factor(X, weights), "algebraic weighted formula")
    return TauReport(
        method="algebraic-weighted",
        k=d,
        value=value,
        corrections=((f"t{d-2}(X)", t_x),),
        hypotheses=(f"beta_{d-1}(X)=0", f"beta_{d-2}(X)=0"),
    )


def tau_weighted_alternating(X, weights):
    """Closed-form weighted alternating product (algebraic weighting).

    Same validity domain as the unweighted alternating product.
    """
    value, _ = _alternating_product(
        X, "weighted alternating product", _weighted_level_factor(X, weights)
    )
    return TauReport(method="weighted-alternating", k=X.dim, value=value)


def rooted_forest_polynomial(X):
    """Generating polynomial of rooted forests: det(L + z I) on the codim-1 space.

    The coefficient of z^j is the sum of squared relative torsions over rooted
    spanning forests whose root keeps j codim-1 cells.  It is taken on the
    smaller side of the top level (``_level_gram``) and padded by Sylvester's
    identity det(zI_n + B B^T) = z^(n-m) det(zI_m + B^T B), B = d_d.
    """
    d = X.dim
    if d < 1:
        raise ValueError("rooted forest polynomial needs dimension at least 1")
    G = _level_gram(X, d)
    return CharPoly((0,) * (X.n_cells(d - 1) - G.nrows) + char_poly(-G).coeffs)


def graph_components(X):
    """Vertex index sets of the connected components of a 1-complex."""
    if X.dim != 1:
        raise ValueError("component analysis applies to 1-dimensional complexes")
    ends = [tuple(col) for col in _sparse_columns(boundary_matrix(X, 1))]
    return vertex_components(X.n_cells(0), [e for e in ends if len(e) == 2])


def graph_matrix_tree(G):
    """Maximal forest count of a graph by both classical routes, plus rooted count.

    Returns the forest count computed as the product of nonzero Laplacian
    eigenvalues over the product of component orders, checks it against the
    determinant reduced at one vertex per component, and reports the rooted
    forest count (the pseudodeterminant itself).
    """
    if G.dim != 1:
        raise ValueError("matrix-tree routine applies to 1-dimensional complexes")
    comps = graph_components(G)
    L = laplacian(G, 0, "ud")
    lam = pseudodet(L)
    denominator = prod(len(c) for c in comps)
    by_eigenvalues = _canon(Fraction(lam, denominator))
    _, keep = split_cells(G, 0, (c[0] for c in comps))
    by_determinant = det(L.submatrix(keep, keep))
    if by_eigenvalues != by_determinant:
        raise AssertionError("eigenvalue and determinant forest counts disagree")
    return TauReport(
        method="graph-matrix-tree",
        k=1,
        value=by_determinant,
        corrections=(("component_orders", denominator),),
        details=(
            ("rooted_forests", format_exact(lam)),
            ("components", str(len(comps))),
        ),
    )


# each route takes (complex, weights, enumeration cap); `verify` reports the
# unweighted ones in this order
METHODS = {
    "reduced": lambda X, w, cap: tau_reduced(X, weights=w),
    "pseudodet": lambda X, w, cap: tau_pseudodet(X, weights=w),
    "alternating": lambda X, w, cap: tau_alternating(X),
    "covolume": lambda X, w, cap: tau_covolume(X, weights=w),
    "cobase": lambda X, w, cap: tau_cobase(X),
    "cobase-spectral": lambda X, w, cap: tau_cobase_spectral(X, cap=cap),
    "algebraic-weighted": lambda X, w, cap: tau_algebraic_weighted(X, w),
    "weighted-alternating": lambda X, w, cap: tau_weighted_alternating(X, w),
}

WEIGHT_REQUIRED = {"algebraic-weighted", "weighted-alternating"}
UNWEIGHTED_ONLY = {"alternating", "cobase", "cobase-spectral"}


def tau(X, k, method, weights=None, cap=None):
    """Count forests at dimension k by the named method (on the k-skeleton);
    ``cap`` bounds the cobase enumeration of ``cobase-spectral``."""
    d = X.dim
    if not 1 <= k <= d:
        raise ValueError(f"tau dimension {k} out of range 1..{d}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {sorted(METHODS)}")
    if method in WEIGHT_REQUIRED and weights is None:
        raise ValueError(f"method {method!r} requires weights")
    if method in UNWEIGHTED_ONLY and weights is not None:
        raise ValueError(f"method {method!r} is unweighted")
    return METHODS[method](skeleton(X, k), weights, cap)
