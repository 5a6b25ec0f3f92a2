"""Critical groups, cut and flow lattices, and discriminant groups.

The i-th critical group is the torsion of the cokernel of the i-th up-down
Laplacian; its order equals the forest count one dimension up.  Cut and flow
lattices are the integer row space and integer kernel of a boundary map; the
discriminant group of a lattice is the cokernel of its Gram matrix.  The two
short exact sequences tying these together are checked at the level of orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .linalg import (
    Matrix,
    _lattice_gram,
    column_lattice_basis,
    det,
    invariant_factors,
    kernel_lattice_basis,
)
from .complexes import boundary_matrix, laplacian, split_cells
from .homology import is_spanning_tree, torsion
from .oracle import first_torsion_free_forest


@dataclass(frozen=True)
class AbelianGroupStructure:
    """A finite abelian group by its invariant factors (each > 1, divisibility chain)."""

    torsion_factors: tuple

    @property
    def order(self):
        return prod(self.torsion_factors)

    def __str__(self):
        return " x ".join(f"Z/{f}" for f in self.torsion_factors) or "0"


def _torsion_structure(M):
    return AbelianGroupStructure(tuple(f for f in invariant_factors(M) if f > 1))


def critical_group(X, i):
    """Torsion of the cokernel of the i-th up-down Laplacian."""
    if not 0 <= i < X.dim:
        raise ValueError(f"critical group index {i} out of range 0..{X.dim - 1}")
    return _torsion_structure(laplacian(X, i, "ud"))


def critical_group_reduced(X, i):
    """The same group from the Laplacian reduced at a torsion-free maximal i-forest.

    Takes the census's first torsion-free maximal i-forest from the lazy
    search; returns None when no such forest exists.
    """
    if not 0 <= i < X.dim:
        raise ValueError(f"critical group index {i} out of range 0..{X.dim - 1}")
    forest = first_torsion_free_forest(X, i)
    if forest is None:
        return None
    _, keep = split_cells(X, i, forest)
    return _torsion_structure(laplacian(X, i, "ud").submatrix(keep, keep))


def cut_lattice(X, k):
    """Integer row space of the k-th boundary, as a column basis."""
    if not 1 <= k <= X.dim:
        raise ValueError(f"cut lattice index {k} out of range 1..{X.dim}")
    return column_lattice_basis(boundary_matrix(X, k).transpose())


def flow_lattice(X, k):
    """Integer kernel of the k-th boundary, as a column basis."""
    if not 1 <= k <= X.dim:
        raise ValueError(f"flow lattice index {k} out of range 1..{X.dim}")
    return kernel_lattice_basis(boundary_matrix(X, k))


def discriminant_group(basis):
    """Structure of (dual lattice)/(lattice) for the lattice spanned by the
    columns of ``basis``: the torsion of the cokernel of its Gram matrix
    (0 x 0, so trivial, for the zero lattice).

    The Gram matrix is ``linalg._lattice_gram``'s: I + X X^T on the n - r
    rows X off the pivot rows when those form an identity block and
    n - r < r, B^T B otherwise.  Both have the same invariant factors, since
    [[I_r, X^T], [-X, I_{n-r}]] reduces by unimodular row and column
    operations to diag(I, I_r + X^T X) and to diag(I_{n-r} + X X^T, I)."""
    return _torsion_structure(_lattice_gram(basis))


def _primitive(vec, positive_at):
    g = 0
    for x in vec:
        g = gcd(g, x)
    vec = [x // g for x in vec]
    if vec[positive_at] < 0:
        vec = [-x for x in vec]
    return tuple(vec)


def fundamental_vectors(X, tree):
    """Primitive fundamental bond and circuit vectors of a spanning tree.

    For each facet outside the tree, the circuit vector generates the rank-1
    integer kernel of the columns on the tree plus that facet, positive at the
    extra facet.  For each tree facet, the bond vector is the unique row-space
    vector vanishing on the rest of the tree, normalized primitive and positive
    at that facet; the row space is the orthogonal complement of the circuits,
    so the bond is read off them.  Returns (bonds, circuits) keyed by facet
    index.
    """
    tree, outside = split_cells(X, X.dim, tree)
    if not is_spanning_tree(X, tree):
        raise ValueError("selection is not a spanning tree")
    b = boundary_matrix(X, X.dim)
    n = b.ncols
    circuits = {}
    for j in outside:
        support = tree + (j,)
        # the tree columns are independent and span column j: a rank-1 kernel
        (gen,) = kernel_lattice_basis(b.submatrix(range(b.nrows), support)).columns()
        vec = [0] * n
        for c, x in zip(support, gen):
            vec[c] = x
        circuits[j] = _primitive(vec, j)
    bonds = {}
    for t in tree:
        # the bond is 1 at t, 0 on the rest of the tree and orthogonal to
        # every circuit, so at j outside the tree it is -circuit_j[t]/circuit_j[j]
        u = [Fraction(0)] * n
        u[t] = Fraction(1)
        for j, c in circuits.items():
            u[j] = Fraction(-c[t], c[j])
        s = lcm(*(x.denominator for x in u))
        bonds[t] = _primitive([int(x * s) for x in u], t)
    return bonds, circuits


@dataclass(frozen=True)
class SequenceOrderReport:
    critical_order: int
    cut_discriminant_order: int
    flow_discriminant_order: int
    direct_sum_index: int
    error_order: int

    @property
    def first_sequence_ok(self):
        return self.critical_order == self.direct_sum_index * self.error_order

    @property
    def second_sequence_ok(self):
        return self.direct_sum_index == self.error_order * self.flow_discriminant_order

    @property
    def cut_matches_critical(self):
        return self.critical_order == self.cut_discriminant_order

    @property
    def all_orders_equal(self):
        return (
            self.error_order == 1
            and self.critical_order
            == self.cut_discriminant_order
            == self.flow_discriminant_order
            == self.direct_sum_index
        )

    @property
    def ok(self):
        return self.first_sequence_ok and self.second_sequence_ok and self.cut_matches_critical


def sequence_order_check(X):
    """Order relations of the two short exact sequences at the top dimension.

    |K| = |Z^n/(C+F)| * |E| and |Z^n/(C+F)| = |E| * |F#/F|, with |K| = |C#/C|;
    E is the codim-1 torsion.  All five orders coincide exactly when E is
    trivial.
    """
    d = X.dim
    K = critical_group(X, d - 1)
    C = cut_lattice(X, d)
    F = flow_lattice(X, d)
    if C.ncols + F.ncols != X.n_cells(d):
        raise AssertionError("cut and flow ranks do not fill the ambient space")
    combined = Matrix.from_columns(C.columns() + F.columns(), nrows=X.n_cells(d))
    index = abs(det(combined))
    return SequenceOrderReport(
        critical_order=K.order,
        cut_discriminant_order=discriminant_group(C).order,
        flow_discriminant_order=discriminant_group(F).order,
        direct_sum_index=index,
        error_order=torsion(X, d - 1),
    )
