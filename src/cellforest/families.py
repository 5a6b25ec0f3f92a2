"""Named complex families and their closed-form tree counts.

Each generator is paired with the published closed form for its
torsion-weighted tree count, so every formula can be tested in both
directions: evaluate the formula, and recount with the Laplacian methods or
the brute-force census.

Binomial convention for the closed forms: C(a, 0) = 1 and C(a, a) = 1 for
every integer a (including negatives), otherwise 0 outside 0 <= b <= a.  The
displayed special cases (complete bipartite, cross-polytope, low hypercubes)
force exactly this extension.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, combinations, product
from math import comb, prod

from .linalg import Matrix
from .complexes import (
    ChainComplex,
    WeightAssignment,
    _exact_int,
    _exact_weight,
    _vertex_weights,
    from_facets,
    is_shifted,
    vertex_components,
)


def binom_ext(a, b):
    """Extended binomial: 1 at b=0 or b=a, 0 outside 0<=b<=a, else C(a,b)."""
    if b == 0 or b == a:
        return 1
    if b < 0 or a < 0 or b > a:
        return 0
    return comb(a, b)


def _weight_list(ws, what):
    """The exact weights ``ws`` as Fractions, the i-th (from 1) named ``what i``."""
    return [_exact_weight(w, f"{what} {i}") for i, w in enumerate(ws, start=1)]


# ---------------------------------------------------------------------------
# skeletons of simplices
# ---------------------------------------------------------------------------


def simplex_skeleton(n, d):
    """The d-dimensional skeleton of the simplex on n vertices."""
    if not 0 <= d < n:
        raise ValueError("need 0 <= d < n")
    if n > 12:
        raise ValueError("simplex skeletons are capped at 12 vertices")
    return from_facets(n, [set(c) for c in combinations(range(1, n + 1), d + 1)])


def simplex_tree_count(n, d):
    """Torsion-weighted tree count of the simplex skeleton: n^C(n-2, d)."""
    return n ** binom_ext(n - 2, d)


def simplex_tree_count_weighted(n, d, v):
    """Vertex-weighted count: (prod v)^C(n-2,d-1) (sum v)^C(n-2,d)."""
    v = _weight_list(v, "weight of vertex")
    if len(v) != n:
        raise ValueError("need one weight per vertex")
    return prod(v) ** binom_ext(n - 2, d - 1) * sum(v) ** binom_ext(n - 2, d)


# ---------------------------------------------------------------------------
# complete colorful complexes
# ---------------------------------------------------------------------------


def colorful_vertex_ranges(sizes):
    """The vertex labels of each color class, colors laid out consecutively."""
    out = []
    start = 1
    for s in sizes:
        out.append(tuple(range(start, start + s)))
        start += s
    return tuple(out)


def complete_colorful(*sizes):
    """Complex of all vertex sets meeting each color class at most once."""
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("color class sizes must be positive")
    ranges = colorful_vertex_ranges(sizes)
    facets = [set(choice) for choice in product(*ranges)]
    return from_facets(sum(sizes), facets)


def colorful_tree_count(k, sizes):
    """Torsion-weighted count of k-trees of the complete colorful complex."""
    r = len(sizes)
    if not 0 <= k <= r - 1:
        raise ValueError(f"k={k} out of range 0..{r - 1}")
    total = 1
    for m in range(0, k + 1):
        for D in combinations(range(r), m):
            sigma = sum(s for i, s in enumerate(sizes) if i not in D)
            pi = prod(sizes[i] - 1 for i in D)
            total *= sigma ** (binom_ext(r - 2 - m, k - m) * pi)
    return total


def _colorful_weights(sizes, v):
    """The mapping v of (color, position) to weight, its keys read as exact ints,
    after checking that its keys are exactly the (color, position) of ``sizes``."""
    w = {(_exact_int(j, "color"), _exact_int(t, "position")): x for (j, t), x in dict(v).items()}
    keys = [(j, t) for j, s in enumerate(sizes, start=1) for t in range(1, s + 1)]
    missing = [key for key in keys if key not in w]
    if missing:
        raise ValueError("no weight at (color, position) " + ", ".join(map(str, missing)))
    if len(w) > len(keys):
        extra = sorted(set(w).difference(keys))
        raise ValueError("no color class holds (color, position) " + ", ".join(map(str, extra)))
    return w


def colorful_tree_count_weighted(k, sizes, v):
    """Vertex-weighted colorful count; v maps (color, position) to a weight.

    Colors are 1-based, positions 1-based within each color class.
    """
    r = len(sizes)
    if not 0 <= k <= r - 1:
        raise ValueError(f"k={k} out of range 0..{r - 1}")
    w = {key: _exact_weight(x, f"weight at {key}") for key, x in _colorful_weights(sizes, v).items()}
    p = {j: prod(w[(j, t)] for t in range(1, sizes[j - 1] + 1)) for j in range(1, r + 1)}
    s = {j: sum(w[(j, t)] for t in range(1, sizes[j - 1] + 1)) for j in range(1, r + 1)}
    value = Fraction(1)
    for j in range(1, r + 1):
        e = 0
        for m in range(0, k):
            for D in combinations([c for c in range(1, r + 1) if c != j], m):
                e += (-1) ** (k - 1 - m) * prod(sizes[c - 1] for c in D)
        value *= p[j] ** e
    for m in range(0, k + 1):
        for D in combinations(range(1, r + 1), m):
            pi = prod(sizes[c - 1] - 1 for c in D)
            exp = binom_ext(r - 2 - m, k - m) * pi
            value *= sum(s[j] for j in range(1, r + 1) if j not in D) ** exp
    return value


def colorful_vertex_weighting(S, sizes, v):
    """WeightAssignment for a compiled complete colorful complex from color weights."""
    w = _colorful_weights(sizes, v)
    flat = {
        vertex: w[(j, t)]
        for j, rng in enumerate(colorful_vertex_ranges(sizes), start=1)
        for t, vertex in enumerate(rng, start=1)
    }
    return WeightAssignment.from_vertex_weights(S, flat)


# ---------------------------------------------------------------------------
# hypercubes
# ---------------------------------------------------------------------------


def _cube_cells(n):
    symbols = ("0", "1", "I")
    by_dim = {}
    for combo in product(symbols, repeat=n):
        label = "".join(combo)
        by_dim.setdefault(label.count("I"), []).append(label)
    return tuple(tuple(sorted(by_dim[k])) for k in range(n + 1))


def hypercube_complex(n):
    """The solid n-cube as a cubical cell complex.

    Faces drop one interval coordinate to an endpoint; the sign is
    (-1)^(interval coordinates before it), positive at endpoint 1.
    """
    if not 1 <= n <= 5:
        raise ValueError("hypercube generation is capped at n = 5")
    cells = _cube_cells(n)
    interior = []
    for k in range(1, n + 1):
        index = {label: i for i, label in enumerate(cells[k - 1])}
        rows = [[0] * len(cells[k]) for _ in cells[k - 1]]
        for j, label in enumerate(cells[k]):
            seen_intervals = 0
            for pos, ch in enumerate(label):
                if ch != "I":
                    continue
                sign = -1 if seen_intervals % 2 else 1
                for endpoint, eps_sign in (("1", 1), ("0", -1)):
                    face = label[:pos] + endpoint + label[pos + 1 :]
                    rows[index[face]][j] += sign * eps_sign
                seen_intervals += 1
        interior.append(Matrix(rows, ncols=len(cells[k])))
    return ChainComplex.create(cells, interior)


def hypercube_edge_tree_count(n):
    """Spanning trees of the n-cube graph: 2^(2^n - n - 1) prod k^C(n,k)."""
    return 2 ** (2 ** n - n - 1) * prod(k ** comb(n, k) for k in range(2, n + 1))


def hypercube_tree_count(k, n):
    """k-tree count of the n-cube: prod_{j>k} (2j)^(C(n,j) C(j-2,k-1))."""
    if k < 1:
        raise ValueError("hypercube tree counts start at k = 1")
    return prod((2 * j) ** (comb(n, j) * binom_ext(j - 2, k - 1)) for j in range(k + 1, n + 1))


def _cube_weights(n, q, x, y):
    """The exact weights q, x, y of the n-cube as lists of Fractions, n of each."""
    lists = []
    for name, ws in zip("qxy", (q, x, y)):
        ws = _weight_list(ws, f"weight {name} at coordinate")
        if len(ws) != n:
            raise ValueError(f"need one weight {name} per coordinate: got {len(ws)} for n = {n}")
        lists.append(ws)
    return lists


def hypercube_weights(n, q, x, y):
    """Cell weights of the n-cube: q on interval coordinates, x/y on endpoints 0/1."""
    q, x, y = _cube_weights(n, q, x, y)
    return WeightAssignment({
        (k, i): prod({"I": q[pos], "0": x[pos], "1": y[pos]}[ch] for pos, ch in enumerate(label))
        for k, layer in enumerate(_cube_cells(n))
        for i, label in enumerate(layer)
    })


def hypercube_tree_count_weighted(k, n, q, x, y):
    """Weighted k-tree count of the n-cube (algebraic-weighting closed form)."""
    if k < 1:
        raise ValueError("hypercube tree counts start at k = 1")
    q, x, y = _cube_weights(n, q, x, y)
    q_exp = sum(binom_ext(n - 1, i) * binom_ext(i - 1, k - 2) for i in range(k - 1, n))
    value = prod(q) ** q_exp
    for size in range(k + 1, n + 1):
        for A in combinations(range(n), size):
            u = sum(q[i] / x[i] + q[i] / y[i] for i in A)
            mono = prod(x[i] * y[i] for i in A)
            value *= (u * mono) ** binom_ext(size - 2, k - 1)
    return value


# ---------------------------------------------------------------------------
# shifted complexes
# ---------------------------------------------------------------------------


def shifted_complex(n, generators):
    """Pure complex generated as a componentwise order ideal.

    Faces are closed under taking subsets and under decrementing a single
    vertex; the result must be pure (all maximal faces the same size).
    """
    gens = [tuple(sorted({_exact_int(v, "vertex") for v in g})) for g in generators]
    if not gens:
        raise ValueError("need at least one generating facet")
    for g in gens:
        if not g or g[0] < 1 or g[-1] > n:
            raise ValueError("generators must be nonempty subsets of 1..n")
    seen = set(gens)
    stack = list(gens)
    while stack:
        face = stack.pop()
        fs = set(face)
        lowered = []
        for a in face:
            if len(face) > 1:
                lowered.append(tuple(x for x in face if x != a))
            if a > 1 and (a - 1) not in fs:
                lowered.append(tuple(sorted(fs - {a} | {a - 1})))
        for nxt in lowered:
            if nxt and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    maximal = [f for f in seen if not any(set(f) < set(g) for g in seen)]
    top = max(len(f) for f in maximal)
    if any(len(f) != top for f in maximal):
        raise ValueError("generators produce a non-pure complex")
    S = from_facets(n, [set(f) for f in maximal])
    if not is_shifted(S):
        raise AssertionError("order ideal closure failed to produce a shifted complex")
    return S


def shifted_signatures(S):
    """Signatures of the critical pairs of the deletion of vertex 1.

    A critical pair bumps one vertex of a top-size face of the deletion by one
    and lands outside the complex; its signature is (initial segment before
    the bump, the interval 1..bumped value).
    """
    if not is_shifted(S):
        raise ValueError("signatures are defined for shifted complexes")
    d = S.dim
    deletion_faces = {
        f for layer in S.faces_by_dim() for f in layer if 1 not in f
    }
    tops = sorted(f for f in deletion_faces if len(f) == d + 1)
    sigs = []
    for face in tops:
        fs = set(face)
        for j, a in enumerate(face):
            if (a + 1) in fs:
                continue
            bumped = tuple(sorted(fs - {a} | {a + 1}))
            if bumped in deletion_faces:
                continue
            sigs.append((face[:j], tuple(range(1, a + 1))))
    return tuple(sorted(sigs))


def shifted_tree_count_weighted(S, v):
    """Vertex-weighted tree count of a pure shifted complex via critical pairs."""
    v = _vertex_weights(v, range(1, S.n + 1))
    d = S.dim
    star = [sorted(f) for f in S.facets if 1 in f]
    value = v[1] ** len(star)
    for j in range(2, S.n + 1):
        deg = sum(1 for f in star if j in f)
        value *= v[j] ** deg
    for _, interval in shifted_signatures(S):
        value *= sum(v[j] for j in interval) / v[1]
    return value


# ---------------------------------------------------------------------------
# Ferrers graphs
# ---------------------------------------------------------------------------


def conjugate_partition(parts):
    parts = list(parts)
    if not parts or any(p < 1 for p in parts) or any(
        parts[i] < parts[i + 1] for i in range(len(parts) - 1)
    ):
        raise ValueError("need a weakly decreasing positive partition")
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


def ferrers_graph(parts):
    """Bipartite graph of a partition diagram: row p meets column q iff q <= parts[p].

    Rows are vertices 1..n, columns n+1..n+m (m = largest part).  Always
    connected for a positive partition.
    """
    parts = list(parts)
    conjugate_partition(parts)  # validates
    n = len(parts)
    m = parts[0]
    facets = [{p, n + q} for p in range(1, n + 1) for q in range(1, parts[p - 1] + 1)]
    return from_facets(n + m, facets)


def _check_ferrers_lengths(parts, x, y):
    """Refuse x and y unless they hold one weight per row and per column of ``parts``."""
    if len(x) != len(parts) or len(y) != parts[0]:
        raise ValueError("need one x per row and one y per column")


def ferrers_tree_count_weighted(parts, x, y):
    """Weighted spanning tree count of a Ferrers graph.

    tau = prod(x) prod(y) * prod_{p>=2}(y_1+..+y_{parts_p}) * prod_{q>=2}(x_1+..+x_{conj_q}).
    """
    parts = list(parts)
    conj = conjugate_partition(parts)
    x = _weight_list(x, "weight of row")
    y = _weight_list(y, "weight of column")
    _check_ferrers_lengths(parts, x, y)
    value = prod(x) * prod(y)
    for p in range(1, len(parts)):
        value *= sum(y[: parts[p]])
    for q in range(1, len(conj)):
        value *= sum(x[: conj[q]])
    return value


def ferrers_vertex_weighting(G, parts, x, y):
    """WeightAssignment for a compiled Ferrers graph from row/column weights."""
    _check_ferrers_lengths(parts, x, y)
    n = len(parts)
    flat = {p: x[p - 1] for p in range(1, n + 1)}
    flat.update({n + q: y[q - 1] for q in range(1, parts[0] + 1)})
    return WeightAssignment.from_vertex_weights(G, flat)


# ---------------------------------------------------------------------------
# matroids
# ---------------------------------------------------------------------------


class Matroid:
    """A matroid given by its ground size and a rank oracle on index sets."""

    def __init__(self, size, rank_fn):
        self.size = size
        self._rank_fn = rank_fn
        self._cache = {}

    def ground(self):
        return frozenset(range(self.size))

    def rank(self, subset):
        key = frozenset(subset)
        hit = self._cache.get(key)
        if hit is None:
            hit = self._rank_fn(key)
            self._cache[key] = hit
        return hit

    def is_independent(self, subset):
        return self.rank(subset) == len(set(subset))

    def closure(self, subset):
        base = frozenset(subset)
        r = self.rank(base)
        return frozenset(
            e for e in range(self.size) if e in base or self.rank(base | {e}) == r
        )


def graphic_matroid(n_vertices, edges):
    """Graphic matroid of an edge list on vertices 1..n (loops allowed).

    An edge set has rank the number of vertices minus its number of components.
    """
    edges = [tuple(e) for e in edges]
    n = n_vertices + 1  # vertex 0 is unused and stays a component of its own
    return Matroid(len(edges), lambda subset: n - len(vertex_components(n, [edges[i] for i in subset])))


def uniform_matroid(r, n):
    return Matroid(n, lambda subset: min(len(subset), r))


def matroid_complex(M):
    """Independence complex: vertices 1..size, faces the independent sets."""
    bases = [
        set(x + 1 for x in c)
        for c in combinations(range(M.size), M.rank(M.ground()))
        if M.is_independent(c)
    ]
    if not bases:
        raise ValueError("matroid has no independent sets of positive size")
    return from_facets(M.size, bases)


def _subsets(M):
    """Every subset of the ground set, by size, each in lexicographic order."""
    ground = sorted(M.ground())
    return chain.from_iterable(combinations(ground, m) for m in range(len(ground) + 1))


def tutte_polynomial(M):
    """Tutte polynomial as {(i, j): coeff} for x^i y^j, from its rank sum
    T = sum over subsets A of (x-1)^(r(E)-r(A)) (y-1)^(|A|-r(A))."""
    if M.size > 10:
        raise ValueError("Tutte polynomial capped at 10 ground elements")
    top = M.rank(M.ground())
    # the number of subsets A with each pair of exponents (r(E)-r(A), |A|-r(A))
    counts = Counter()
    for A in _subsets(M):
        r = M.rank(A)
        counts[top - r, len(A) - r] += 1
    T = Counter()
    for (a, b), n in counts.items():
        for i in range(a + 1):
            for j in range(b + 1):
                T[i, j] += (-1) ** (a + b - i - j) * n * comb(a, i) * comb(b, j)
    return {key: c for key, c in sorted(T.items()) if c}


def tutte_eval(T, x, y):
    return sum(c * x ** i * y ** j for (i, j), c in T.items())


def crapo_beta(M):
    """Crapo beta invariant: (-1)^r(E) sum_A (-1)^|A| r(A)."""
    return (-1) ** M.rank(M.ground()) * sum((-1) ** len(A) * M.rank(A) for A in _subsets(M))


def matroid_flats(M):
    """All flats (closed sets), by closure of every subset."""
    flats = {M.closure(A) for A in _subsets(M)}
    return tuple(sorted(flats, key=lambda f: (len(f), sorted(f))))


def _restriction(M, subset):
    subset = sorted(subset)
    back = {i: e for i, e in enumerate(subset)}
    return Matroid(len(subset), lambda A: M.rank({back[i] for i in A}))


def _contraction(M, subset):
    subset = frozenset(subset)
    rest = sorted(M.ground() - subset)
    back = {i: e for i, e in enumerate(rest)}
    base = M.rank(subset)
    return Matroid(len(rest), lambda A: M.rank({back[i] for i in A} | subset) - base)


def matroid_tree_count(M):
    """Torsion-weighted tree count of the independence complex via flats.

    The product over flats F of |E - F| raised to alpha(F) beta(M/F), where
    alpha is the Tutte evaluation T(0, 1) of the restriction and beta is the
    Crapo invariant of the contraction.
    """
    if M.size > 10:
        raise ValueError("flat enumeration capped at 10 ground elements")
    total = 1
    for F in matroid_flats(M):
        outside = M.size - len(F)
        if outside == 0:
            continue
        alpha = tutte_eval(tutte_polynomial(_restriction(M, F)), 0, 1)
        if alpha == 0:
            continue
        beta = crapo_beta(_contraction(M, F))
        total *= outside ** (alpha * beta)
    return total


# ---------------------------------------------------------------------------
# named complexes
# ---------------------------------------------------------------------------

NAMED_FACETS = {
    "bipyramid": ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 3, 5)),
    "rp2_six_vertex": (
        (1, 2, 4),
        (1, 2, 6),
        (1, 3, 5),
        (1, 3, 6),
        (1, 4, 5),
        (2, 3, 4),
        (2, 3, 5),
        (2, 5, 6),
        (3, 4, 6),
        (4, 5, 6),
    ),
    "moebius": ((1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 4, 5), (1, 2, 5)),
    "annulus": ((1, 2, 4), (2, 4, 5), (2, 3, 5), (3, 5, 6), (1, 3, 6), (1, 4, 6)),
}


def named_simplicial(name):
    if name not in NAMED_FACETS:
        raise ValueError(f"unknown simplicial complex {name!r}")
    facets = NAMED_FACETS[name]
    n = max(v for f in facets for v in f)
    return from_facets(n, [set(f) for f in facets])


def named_complex(name):
    """A named complex as a chain complex.

    Simplicial names: bipyramid, rp2_six_vertex, moebius, annulus.  The name
    rp2_cell is the one-cell-per-dimension structure on the projective plane,
    whose top map has degree 2.
    """
    if name == "rp2_cell":
        return ChainComplex.create(
            (("pt",), ("loop",), ("disk",)),
            (Matrix([[0]]), Matrix([[2]])),
        )
    return named_simplicial(name).to_chain_complex()
