"""Reduced integer homology, torsion orders, and spanning tree/forest predicates.

Betti numbers come from exact ranks; torsion of H_k comes from the invariant
factors of the (k+1)-st boundary map (the cokernel of that map has the same
torsion subgroup as H_k, because the chain group modulo the cycle lattice is
free).  Homology is reduced throughout: the augmentation makes beta_0 one less
than the number of connected components.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .linalg import invariant_factors, rank, torsion_order
from .complexes import boundary_matrix, relative_boundary, skeleton, split_cells


@dataclass(frozen=True)
class HomologySummary:
    k: int
    betti: int
    torsion_order: int
    torsion_factors: tuple

    def __str__(self):
        tor = " x ".join(f"Z/{f}" for f in self.torsion_factors) or "0"
        free = f"Z^{self.betti}" if self.betti else ""
        body = " x ".join(p for p in (free, tor if self.torsion_factors else "") if p)
        return body or "0"


def _check_index(X, k):
    if not 0 <= k <= X.dim:
        raise ValueError(f"homology index {k} out of range for a {X.dim}-complex")


def homology(X, k):
    """Reduced homology summary at dimension k (torsion via Smith form); the
    factors of d_{k+1} come first, so ``betti`` reads its memoized rank."""
    _check_index(X, k)
    factors = ()
    if k < X.dim:
        factors = tuple(f for f in invariant_factors(boundary_matrix(X, k + 1)) if f > 1)
    return HomologySummary(k, betti(X, k), prod(factors), factors)


def betti(X, k):
    """Reduced Betti number; negative k gives 0 for any nonempty complex.

    Two ranks, nullity(d_k) - rank(d_{k+1}); no Smith form.
    """
    if k < 0:
        return 0
    _check_index(X, k)
    nullity = X.n_cells(k) - rank(boundary_matrix(X, k))
    return nullity - rank(boundary_matrix(X, k + 1)) if k < X.dim else nullity


def torsion(X, k):
    """Order of the torsion subgroup of reduced H_k; 1 outside 0..dim-1."""
    if not 0 <= k < X.dim:
        return 1
    return torsion_order(boundary_matrix(X, k + 1))


def is_z_apc(X):
    """Integer homology vanishes strictly below the top dimension."""
    return all(betti(X, k) == 0 and torsion(X, k) == 1 for k in range(X.dim))


def subcomplex_boundary(X, facet_subset, k=None):
    """Columns of the k-th boundary restricted to a facet subset (k defaults to dim)."""
    k = X.dim if k is None else k
    b = boundary_matrix(X, k)
    return b.submatrix(range(b.nrows), split_cells(X, k, facet_subset)[0])


def is_spanning_forest(X, facet_subset, k=None):
    """Columns of the top boundary restricted to the subset are independent."""
    sub = subcomplex_boundary(X, facet_subset, k)
    return rank(sub) == sub.ncols


def is_maximal_spanning_forest(X, facet_subset, k=None):
    k = X.dim if k is None else k
    sub = subcomplex_boundary(X, facet_subset, k)
    return sub.ncols == rank(boundary_matrix(X, k)) and rank(sub) == sub.ncols


def is_spanning_tree(X, facet_subset, k=None):
    """Maximal spanning forest of a complex whose codim-1 rational homology vanishes."""
    k = X.dim if k is None else k
    return betti(skeleton(X, k), k - 1) == 0 and is_maximal_spanning_forest(X, facet_subset, k)


def forest_torsion(X, facet_subset, k=None):
    """Torsion order t_{k-1} of the spanning subcomplex keeping these k-cells."""
    return torsion_order(subcomplex_boundary(X, facet_subset, k))


def relative_homology_torsion(X, root):
    """Torsion order of codim-1 homology relative to a root.

    ``root`` holds the (d-1)-cell indices of the root, which keeps the whole
    lower skeleton; the relative chain complex collapses to the submatrix of
    the top boundary on the remaining rows, whose cokernel torsion is returned.
    """
    return torsion_order(relative_boundary(X, root))
