"""Simplicial and general cell complexes as chain complexes of integer matrices.

A ``ChainComplex`` stores one ordered cell list per dimension and the boundary
matrices between them.  The augmentation map (dimension 0 to the empty face)
is always the all-ones row, so homology is reduced everywhere.  Simplicial
complexes are facet-generated and compile with the standard orientation:
simplices are oriented by increasing vertex order and dropping the i-th vertex
carries sign (-1)^i.

Complexes are immutable after construction and hashable, so callers may share
and cache them freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from .linalg import Matrix, _sparse_columns

LAPLACIAN_KINDS = ("ud", "du", "tot")


@dataclass(frozen=True)
class ChainComplex:
    """Chain complex of integer boundary matrices with labeled cells.

    ``cells[k]`` lists the labels of the k-cells; ``boundaries[k]`` is the
    boundary matrix from k-cells to (k-1)-cells for 1 <= k <= dim, and
    ``boundaries[0]`` is the all-ones augmentation row.
    """

    cells: tuple
    boundaries: tuple

    @classmethod
    def create(cls, cells, interior_boundaries, check_augmentation=True):
        """Build and validate a complex from per-dimension labels and boundary maps.

        ``interior_boundaries[k-1]`` is the matrix of the k-th boundary map.
        The composite of consecutive boundaries must vanish; the check of the
        augmentation against the first boundary can be waived (needed only for
        formal duals, whose vertex layer obeys no augmentation identity).
        """
        cells = tuple(tuple(layer) for layer in cells)
        if not cells or not cells[0]:
            raise ValueError("a complex needs at least one vertex")
        for layer in cells:
            if len(set(layer)) != len(layer):
                raise ValueError("duplicate cell labels within a dimension")
        d = len(cells) - 1
        interior = tuple(interior_boundaries)
        if len(interior) != d:
            raise ValueError(f"expected {d} boundary matrices, got {len(interior)}")
        aug = Matrix([[1] * len(cells[0])], ncols=len(cells[0]))
        boundaries = (aug,) + interior
        for k in range(1, d + 1):
            b = boundaries[k]
            if not isinstance(b, Matrix) or not b.is_integral:
                raise ValueError(f"boundary {k} must be an integer matrix")
            if b.shape != (len(cells[k - 1]), len(cells[k])):
                raise ValueError(
                    f"boundary {k} has shape {b.shape}, expected "
                    f"({len(cells[k - 1])}, {len(cells[k])})"
                )
        for k in range(1, d + 1):
            if k == 1 and not check_augmentation:
                continue
            if not (boundaries[k - 1] * boundaries[k]).is_zero:
                raise ValueError(f"boundary composition at dimension {k} is nonzero")
        return cls(cells, boundaries)

    @property
    def dim(self):
        return len(self.cells) - 1

    def n_cells(self, k):
        if k == -1:
            return 1
        return len(self.cells[k]) if 0 <= k <= self.dim else 0

    def labels(self, k):
        return self.cells[k]


def boundary_matrix(X, k):
    """The stored boundary map; k = 0 returns the all-ones augmentation row."""
    if not 0 <= k <= X.dim:
        raise ValueError(f"boundary index {k} out of range for a {X.dim}-complex")
    return X.boundaries[k]


def require_boundary_composition(X, k):
    """Raise ``ValueError`` if k = 0 and d_0 d_1 != 0: ``ChainComplex.create`` checks
    every k >= 1, but formal duals and matrix-form input skip the augmentation."""
    if k == 0 and X.dim >= 1 and not (boundary_matrix(X, 0) * boundary_matrix(X, 1)).is_zero:
        raise ValueError(
            f"d_{k} d_{k + 1} != 0 at level {k} "
            "(formal duals and matrix-form input skip the augmentation check)"
        )


def laplacian(X, k, kind="ud"):
    """Combinatorial Laplacian of the requested kind at dimension k.

    ``ud`` is d_{k+1} d_{k+1}^T (defined for -1 <= k < dim; k = -1 gives the
    1x1 augmentation Laplacian), ``du`` is d_k^T d_k (0 <= k <= dim), and
    ``tot`` is their sum (0 <= k < dim).  ``ud`` and ``du`` are the unit-weight
    ``_gram`` of d_{k+1} and of d_k^T, so their entries are ``int``.
    """
    if kind not in LAPLACIAN_KINDS:
        raise ValueError(f"unknown Laplacian kind {kind!r}")
    d = X.dim
    if kind == "ud":
        if not -1 <= k <= d - 1:
            raise ValueError(f"up-down Laplacian undefined at k={k} for a {d}-complex")
        b = X.boundaries[k + 1]
    elif kind == "du":
        if not 0 <= k <= d:
            raise ValueError(f"down-up Laplacian undefined at k={k} for a {d}-complex")
        b = X.boundaries[k].transpose()
    else:
        if not 0 <= k <= d - 1:
            raise ValueError(f"total Laplacian undefined at k={k} for a {d}-complex")
        return laplacian(X, k, "ud") + laplacian(X, k, "du")
    return _gram(b)


def _exact_int(x, what):
    """``x`` if it is exactly an ``int`` (a bool is not), else ``ValueError``
    naming ``what`` and ``x``: ``int()`` would read 2.7 as 2 and "3" as 3."""
    if type(x) is not int:
        raise ValueError(f"{what} {x!r} is not an int")
    return x


def _exact_weight(x, what):
    """``x`` as a ``Fraction`` if it is a positive ``int`` or ``Fraction`` (a
    bool is not), else ``ValueError`` naming ``what``: ``Fraction()`` would
    read 0.1 as 3602879701896397/36028797018963968 and "1e3" as 1000."""
    if type(x) is not int and not isinstance(x, Fraction):
        raise ValueError(f"{what} is not an int or a Fraction: {x!r}")
    if x <= 0:
        raise ValueError(f"{what} must be positive, got {x}")
    return Fraction(x)


def _vertex_weights(v, vertices):
    """{vertex: Fraction} from a sequence indexed from vertex 1, or a mapping;
    each of ``vertices`` needs a weight (``ValueError`` naming the first that
    has none)."""
    items = v.items() if isinstance(v, dict) else enumerate(v, start=1)
    weights = {
        _exact_int(vertex, "vertex"): _exact_weight(x, f"weight of vertex {vertex}")
        for vertex, x in items
    }
    for vertex in vertices:
        if vertex not in weights:
            raise ValueError(f"missing weight for vertex {vertex}")
    return weights


class WeightAssignment:
    """Strictly positive exact rational weights on cells, keyed by (dim, index).

    The empty face always has weight 1.
    """

    def __init__(self, values):
        weights = {}
        for key, v in dict(values).items():
            try:
                dim, idx = key
                key = (_exact_int(dim, "dim"), _exact_int(idx, "index"))
            except ValueError:
                raise ValueError(f"weight key {key!r} is not a pair of ints") from None
            weights[key] = _exact_weight(v, f"weight at {key}")
        self._weights = weights

    @classmethod
    def ones(cls, X):
        return cls({(k, i): 1 for k in range(X.dim + 1) for i in range(X.n_cells(k))})

    @classmethod
    def from_vertex_weights(cls, S, v):
        """Vertex weighting of a simplicial complex: w_sigma = prod of v over sigma.

        ``v`` maps vertex labels 1..n to positive rationals (sequence indexed
        from vertex 1, or a mapping).
        """
        vw = _vertex_weights(v, sorted(set().union(*S.facets)))
        return cls({
            (k, i): prod(vw[u] for u in face)
            for k, layer in enumerate(S.faces_by_dim())
            for i, face in enumerate(layer)
        })

    def __getitem__(self, key):
        dim, idx = key
        if dim == -1:
            return Fraction(1)
        try:
            return self._weights[(dim, idx)]
        except KeyError:
            raise ValueError(f"missing weight for a {dim}-cell") from None

    def items(self):
        return self._weights.items()

    def cell_weights(self, X, k):
        """The weights of the k-cells in index order ((1,) at k = -1)."""
        return tuple(self[(k, i)] for i in range(X.n_cells(k)))

    def reciprocal_for_dual(self, X):
        """Dual weighting: the dual of the i-th k-cell gets weight 1/w."""
        return WeightAssignment({(X.dim - k, i): 1 / w for (k, i), w in self._weights.items()})


def _integer_weights(weights):
    """(ws, q): the weights times q, the lcm of their denominators, as ints, so
    a product of r of them is an integer over q^r."""
    q = lcm(*(x.denominator for x in weights))
    return [x.numerator * (q // x.denominator) for x in weights], q


def _gram(b, weights=None, scale=None):
    """diag(scale) b D b^T as a ``Matrix``, D the diagonal of the column
    weights (all 1 if ``weights`` is None) and row i times ``scale[i]`` (all 1
    if None).  With no scale and q = 1, q the lcm of the weights'
    denominators, its entries are ``int``; otherwise exact rationals.

    Column c of the integer matrix b adds q w_c b_ic b_jc to an integer G[i][j]
    for each pair (i, j) of its nonzero entries, so no rational arithmetic and
    no dense product is done until the entries G / q are scaled.
    """
    ws, q = _integer_weights((1,) * b.ncols if weights is None else weights)
    G = [{} for _ in range(b.nrows)]
    for wq, col in zip(ws, _sparse_columns(b)):
        for i, vi in col.items():
            Gi, vw = G[i], vi * wq
            for j, vj in col.items():
                Gi[j] = Gi.get(j, 0) + vw * vj
    G = [{j: Gi[j] for j in sorted(Gi) if Gi[j]} for Gi in G]
    if scale is None and q == 1:
        return Matrix._from_rows(G, b.nrows, True)
    scale = (1,) * b.nrows if scale is None else scale
    rows = [
        {j: Fraction(v * s.numerator, q * s.denominator) for j, v in row.items()}
        for s, row in zip(scale, G)
    ]
    return Matrix._from_rows(rows, b.nrows)


def weighted_laplacian(X, k, w):
    """Weighted Laplacian d_k D_k d_k^T on the (k-1)-cells (exact rational).

    With all weights 1 this is ``laplacian(X, k-1, "ud")``.
    """
    return _gram(boundary_matrix(X, k), w.cell_weights(X, k))


def weighted_laplacian_similar(X, k, w):
    """D_{k-1}^{-1} d_k D_k d_k^T: similar to the algebraically weighted Laplacian.

    Shares the characteristic polynomial (hence spectrum and pseudodeterminant)
    with D^{-1/2} d D d^T D^{-1/2}; only spectral data of the result is
    contractually meaningful.  k = 0 yields the 1x1 matrix [sum of vertex
    weights].
    """
    # row i is divided by the weight of the i-th (k-1)-cell (the empty face's is 1)
    inverse = [1 / x for x in w.cell_weights(X, k - 1)]
    return _gram(boundary_matrix(X, k), w.cell_weights(X, k), inverse)


def split_cells(X, k, cells):
    """(chosen, rest): the k-cell indices ``cells`` sorted, and the other
    k-cells in ascending order.  Every root, cobase and forest selection is
    split here, so an index that is not an ``int`` (a bool or a float is
    not), lies outside 0..n-1 or is given twice raises ``ValueError`` naming
    it."""
    n = X.n_cells(k)
    what = f"{k}-cell index"
    chosen = tuple(sorted([_exact_int(i, what) for i in cells]))
    # sorted, so the extremes decide the range
    for i in chosen[:1] + chosen[-1:]:
        if not 0 <= i < n:
            raise ValueError(f"{k}-cell index {i} out of range 0..{n - 1}")
    taken = set(chosen)
    if len(taken) < len(chosen):
        i = next(i for i, j in zip(chosen, chosen[1:]) if i == j)
        raise ValueError(f"{k}-cell index {i} given twice")
    return chosen, tuple(i for i in range(n) if i not in taken)


def relative_boundary(X, removed_rows, k=None):
    """Top boundary with the rows of the given codim-1 cells removed.

    ``removed_rows`` indexes cells of dimension k-1 (default: k = dim).  Used
    with column selections for rooted-forest tests.
    """
    k = X.dim if k is None else k
    b = boundary_matrix(X, k)
    return b.submatrix(split_cells(X, k - 1, removed_rows)[1], range(b.ncols))


def skeleton(X, k):
    """The k-skeleton as a chain complex; the top skeleton is X itself."""
    if not 0 <= k <= X.dim:
        raise ValueError(f"skeleton index {k} out of range")
    return X if k == X.dim else ChainComplex(X.cells[: k + 1], X.boundaries[: k + 1])


def vertex_components(n, edges):
    """Connected components of the graph on vertices 0..n-1 with the given
    edges (vertex pairs), by union-find: vertex tuples, by least vertex."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, w in edges:
        ru, rw = find(u), find(w)
        if ru != rw:
            parent[rw] = ru
    comps = {}
    for v in range(n):
        comps.setdefault(find(v), []).append(v)
    return tuple(map(tuple, comps.values()))


def dual_complex(X):
    """Formal dual: the k-th boundary is the transpose of the (dim-k+1)-th.

    Cell (k, i) of the dual corresponds to cell (dim-k, i) of the original.
    The dual's augmentation is a fresh all-ones row; the augmentation identity
    is not enforced (a formal dual's vertex layer need not satisfy it).
    """
    d = X.dim
    cells = tuple(X.cells[d - k] for k in range(d + 1))
    interior = tuple(X.boundaries[d - k + 1].transpose() for k in range(1, d + 1))
    return ChainComplex.create(cells, interior, check_augmentation=False)


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplicialComplex:
    """Abstract simplicial complex on vertex set 1..n, generated by facets."""

    n: int
    facets: frozenset

    def faces_by_dim(self):
        """All nonempty faces by dimension, each sorted lexicographically."""
        seen = set()
        for f in self.facets:
            for r in range(1, len(f) + 1):
                for sub in combinations(sorted(f), r):
                    seen.add(sub)
        if not seen:
            return ()
        top = max(len(f) for f in seen)
        layers = [[] for _ in range(top)]
        for face in seen:
            layers[len(face) - 1].append(face)
        return tuple(tuple(sorted(layer)) for layer in layers)

    @property
    def dim(self):
        return max(len(f) for f in self.facets) - 1

    def to_chain_complex(self):
        return compile_complex(self)


def from_facets(n, facets):
    """Facet-generated complex; contained facets are discarded.

    This is the one maximal-face filter in the package: every derived
    simplicial complex (a deletion, a link, a shifted closure) hands its
    generators here.
    """
    cleaned = []
    for f in facets:
        fs = frozenset(_exact_int(v, "vertex") for v in f)
        if not fs:
            raise ValueError("facets must be nonempty")
        for v in fs:
            if not 1 <= v <= n:
                raise ValueError(f"vertex {v} out of range 1..{n}")
        cleaned.append(fs)
    if not cleaned:
        raise ValueError("at least one facet is required")
    maximal = [f for f in cleaned if not any(f < g for g in cleaned)]
    return SimplicialComplex(n, frozenset(maximal))


def face_label(face):
    return ",".join(str(v) for v in face)


def compile_complex(S):
    """Chain complex of a simplicial complex, cells in lexicographic order.

    Boundary signs follow increasing vertex order: the face dropping the i-th
    vertex of a sorted simplex enters with sign (-1)^i, so all entries lie in
    {0, +1, -1} and consecutive boundaries compose to zero.
    """
    layers = S.faces_by_dim()
    cells = tuple(tuple(face_label(f) for f in layer) for layer in layers)
    interior = []
    for k in range(1, len(layers)):
        index = {face: i for i, face in enumerate(layers[k - 1])}
        # row by row as their nonzeros, filled in ascending column order
        rows = [{} for _ in layers[k - 1]]
        for j, face in enumerate(layers[k]):
            for i, _ in enumerate(face):
                sub = face[:i] + face[i + 1 :]
                rows[index[sub]][j] = -1 if i % 2 else 1
        interior.append(Matrix._from_rows(rows, len(layers[k]), True))
    return ChainComplex.create(cells, interior)


def delete_and_link(S, v):
    """Deletion (faces avoiding v) and link (faces whose union with v is a face).

    Both are generated by F - v: over every facet F for the deletion, over the
    facets that contain v for the link; ``from_facets`` keeps the maximal ones.
    """
    v = _exact_int(v, "vertex")
    deletion = [f - {v} for f in S.facets if f - {v}]
    if not deletion:
        raise ValueError(f"deleting vertex {v} leaves an empty complex")
    link = [f - {v} for f in S.facets if v in f and len(f) > 1]
    if not link:
        raise ValueError(f"vertex {v} has an empty link")
    return from_facets(S.n, deletion), from_facets(S.n, link)


def is_shifted(S, relabel=False):
    """Whether the faces form an order ideal in the componentwise order.

    Complexes are subset-closed by construction, so it suffices to check
    closure under decrementing a single vertex.  With ``relabel`` the check
    runs against the induced order on the vertices actually present (so a
    deletion of vertex 1 is judged on its own vertex set).
    """
    layers = S.faces_by_dim()
    face_sets = {f for layer in layers for f in layer}
    if relabel:
        support = sorted({v for f in face_sets for v in f})
        prev = {v: support[i - 1] for i, v in enumerate(support) if i > 0}
    else:
        prev = {v: v - 1 for layer in layers for f in layer for v in f if v > 1}
    for face in face_sets:
        fs = set(face)
        for a in face:
            p = prev.get(a)
            if p is not None and p not in fs:
                lowered = tuple(sorted(fs - {a} | {p}))
                if lowered not in face_sets:
                    return False
    return True
