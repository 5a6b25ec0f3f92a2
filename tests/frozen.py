"""Frozen copies of library routines that a faster or simpler one replaced.

Each function here is the replaced routine as it last stood in the library,
kept unchanged so that differential tests can compare the new code against
it on a seeded corpus.  Do not optimise or refactor these.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd
from operator import mul

from cellforest.complexes import (
    SimplicialComplex,
    _exact_int,
    boundary_matrix,
    laplacian,
    split_cells,
    weighted_laplacian,
    weighted_laplacian_similar,
)
from cellforest.critical import AbelianGroupStructure
from cellforest.homology import betti, homology, torsion
from cellforest.linalg import (
    CharPoly,
    Matrix,
    column_lattice_basis,
    det,
    invariant_factors,
    kernel_lattice_basis,
    pseudodet,
    rank,
    saturation_basis,
    torsion_order,
    _canon as _canon_entry,
    _canon as _exactify,
    _greedy_path,
    _smith,
    _sparse_columns,
    _sparse_rows,
)
from cellforest.matrix_forest import (
    TauReport,
    _require,
    format_exact,
)
from cellforest.oracle import (
    ForestCensus,
    RootedForest,
    _check_cap,
    _defect_context,
    _kernel_defect,
    enumerate_cobases,
)


def _canon(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def dense_product(A, B):
    """``Matrix.__mul__`` of two matrices, as a dense sum over every entry pair."""
    if A.ncols != B.nrows:
        raise ValueError(f"shape mismatch {A.shape} * {B.shape}")
    bcols = B.columns()
    return Matrix(
        tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bcols) for row in A.data),
        ncols=B.ncols,
    )


def faddeev_leverrier(M):
    """Ascending coefficients of the monic det(z*I - M) (Faddeev-LeVerrier).

    The ``linalg.char_poly`` of the library before it moved to Hessenberg
    reduction modulo primes.
    """
    if not M.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = M.nrows
    if n == 0:
        return (1,)
    scale = 1
    for row in M.data:
        for x in row:
            if isinstance(x, Fraction):
                scale = scale * x.denominator // math.gcd(scale, x.denominator)
    N = [[int(x * scale) for x in row] for row in M.data]
    ncols_range = range(n)
    # descending coefficients of det(z*I - scale*M)
    desc = [1]
    B = [row[:] for row in N]
    for k in range(1, n + 1):
        tr = sum(B[i][i] for i in ncols_range)
        if tr % k:
            raise ArithmeticError("inexact trace division in char poly recursion")
        ak = -(tr // k)
        desc.append(ak)
        if k < n:
            for i in ncols_range:
                B[i][i] += ak
            Bcols = list(zip(*B))
            B = [[sum(a * b for a, b in zip(row, col)) for col in Bcols] for row in N]
    # det(z*I - M) coefficient of z^j is desc[n-j] / scale^(n-j)
    return tuple(_canon(Fraction(desc[n - j], scale ** (n - j))) for j in range(n + 1))


# Miller-Rabin with the first 13 prime bases has no strong pseudoprime below
# 3.3 * 10^24 (Sorenson and Webster, Math. Comp. 2017), so for every 62-bit
# candidate it proves primality.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the largest primes below 2^62, in descending order, found on first use
_PRIMES = []


def _is_prime(n):
    """``linalg._is_prime``: deterministic primality test, exact for n below 3.3 * 10^24."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(i):
    """``linalg._prime``: the i-th largest prime below 2^62, the moduli of
    ``char_poly_common_denominator``."""
    while len(_PRIMES) <= i:
        c = (_PRIMES[-1] if _PRIMES else 1 << 62) - 1
        while not _is_prime(c):
            c -= 1
        _PRIMES.append(c)
    return _PRIMES[i]


def _hessenberg_char_poly_mod(N, p):
    """``linalg._hessenberg_char_poly_mod``: ascending coefficients of
    det(z*I - N) mod the prime p, by similarity reduction of N mod p to upper
    Hessenberg form H and the recurrence
    p_m = (z - h_mm) p_{m-1} - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1}.
    """
    n = len(N)
    H = [[x % p for x in row] for row in N]
    for m in range(1, n - 1):
        col = m - 1
        piv = next((i for i in range(m, n) if H[i][col]), None)
        if piv is None:
            continue
        if piv != m:
            H[m], H[piv] = H[piv], H[m]
            for row in H:
                row[m], row[piv] = row[piv], row[m]
        Hm = H[m]
        inv = pow(Hm[col], -1, p)
        tail = Hm[col:]
        us = [0] * (n - m - 1)
        for i in range(m + 1, n):
            Hi = H[i]
            if Hi[col]:
                u = Hi[col] * inv % p
                us[i - m - 1] = u
                Hi[col:] = [(a - u * b) % p for a, b in zip(Hi[col:], tail)]
        # the column operations commute, so they are applied together
        if any(us):
            for row in H:
                row[m] = (row[m] + sum(map(mul, us, row[m + 1 :]))) % p
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[-1]
        h = H[m - 1][m - 1]
        acc = [0] + prev
        for j in range(m):
            acc[j] -= h * prev[j]
        t = 1
        for i in range(m - 1, 0, -1):
            t = t * H[i][i - 1] % p
            if not t:
                break
            c = H[i - 1][m - 1] * t % p
            if c:
                acc[:i] = [a - c * b for a, b in zip(acc, polys[i - 1])]
        polys.append([x % p for x in acc])
    return polys[n]


def char_poly_common_denominator(M):
    """``linalg.char_poly`` when it scaled M by one common denominator.

    M is scaled by the lcm s of all its denominators to an integer matrix N,
    the CRT runs up to twice B = prod_i (1 + ||row_i(N)||_2), and the
    coefficient of z^j is divided by s^(n-j).
    """
    if not M.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = M.nrows
    if n == 0:
        return CharPoly((1,))
    scale = 1
    for row in M.data:
        for x in row:
            if isinstance(x, Fraction):
                scale = scale * x.denominator // math.gcd(scale, x.denominator)
    N = [[int(x * scale) for x in row] for row in M.data]
    bound = 1
    for row in N:
        s = sum(x * x for x in row)
        bound *= 1 + (math.isqrt(s - 1) + 1 if s else 0)  # 1 + ceil(||row||_2)
    # ascending coefficients of det(z*I - N), modulo the product of the primes so far
    residues = None
    modulus = 1
    i = 0
    while modulus <= 2 * bound:
        p = _prime(i)
        r = _hessenberg_char_poly_mod(N, p)
        if residues is None:
            residues = r
        else:
            inv = pow(modulus % p, -1, p)
            residues = [a + modulus * ((b - a) * inv % p) for a, b in zip(residues, r)]
        modulus *= p
        i += 1
    half = modulus // 2
    desc = [c - modulus if c > half else c for c in residues]
    # the coefficient of z^j in det(z*I - M) is that of det(z*I - N) over scale^(n-j)
    return CharPoly(tuple(_canon(Fraction(desc[j], scale ** (n - j))) for j in range(n + 1)))


# ---------------------------------------------------------------------------
# the dense greedy loop, the Bareiss determinant, and the dense Smith loop
# with its transform switch, with and without the unit-minor certificate
# ---------------------------------------------------------------------------

def _normalize_row(row):
    g = 0
    for x in row:
        g = math.gcd(g, x)
        if g == 1:
            return row
    if g > 1:
        return [x // g for x in row]
    return row


def greedy_column_basis_dense(M):
    """``linalg.greedy_column_basis``: each column reduced in turn against every pivot."""
    pivots = []  # (pivot_row, integer row vector of length nrows)
    basis = []
    for j in range(M.ncols):
        v = [x for x in M.column(j)]
        s = 1
        for x in v:
            if isinstance(x, Fraction):
                s = s * x.denominator // math.gcd(s, x.denominator)
        # scale column to integers
        v = [int(x * s) for x in v]
        for prow, pvec in pivots:
            c = v[prow]
            if c:
                p = pvec[prow]
                v = [a * p - b * c for a, b in zip(v, pvec)]
        v = _normalize_row(v)
        for i, x in enumerate(v):
            if x:
                pivots.append((i, v))
                basis.append(j)
                break
    return tuple(basis)


def _bareiss_det(rows, n):
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for i in range(k + 1, n):
                if rows[i][k]:
                    rows[k], rows[i] = rows[i], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pkk = rows[k][k]
        for i in range(k + 1, n):
            rik = rows[i][k]
            ri, rk = rows[i], rows[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pkk - rik * rk[j]) // prev
            ri[k] = 0
        prev = pkk
    return sign * rows[n - 1][n - 1]


def det_by_bareiss(M):
    """``linalg.det``: dense fraction-free (Bareiss) elimination of the rows,
    each scaled to integers by the lcm of its denominators."""
    if not M.is_square:
        raise ValueError("determinant of a non-square matrix")
    if M.nrows == 0:
        return 1
    rows = []
    scalars = []
    for row in M.data:
        s = 1
        for x in row:
            if isinstance(x, Fraction):
                s = s * x.denominator // math.gcd(s, x.denominator)
        rows.append([int(x * s) for x in row])
        scalars.append(s)
    d = _bareiss_det(rows, M.nrows)
    return _canon(Fraction(d, math.prod(scalars)))


def _snf_core(A, m, n, want_transforms):
    """Diagonalize integer matrix A in place; returns (factors, L, R)."""
    L = [[1 if i == j else 0 for j in range(m)] for i in range(m)] if want_transforms else None
    R = [[1 if i == j else 0 for j in range(n)] for i in range(n)] if want_transforms else None
    factors = []
    t = 0
    while True:
        # locate a pivot of smallest nonzero magnitude in the trailing block
        best = None
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                v = Ai[j]
                if v:
                    a = abs(v)
                    if best is None or a < best[0]:
                        best = (a, i, j)
                        if a == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, bi, bj = best
        if bi != t:
            A[t], A[bi] = A[bi], A[t]
            if L:
                L[t], L[bi] = L[bi], L[t]
        if bj != t:
            for row in A:
                row[t], row[bj] = row[bj], row[t]
            if R:
                for row in R:
                    row[t], row[bj] = row[bj], row[t]
        while True:
            # clear the pivot column with row operations
            restart = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        Ai, At = A[i], A[t]
                        for j in range(t, n):
                            Ai[j] -= q * At[j]
                        if L:
                            Li, Lt = L[i], L[t]
                            for j in range(m):
                                Li[j] -= q * Lt[j]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        if L:
                            L[t], L[i] = L[i], L[t]
                        restart = True
            if restart:
                continue
            # clear the pivot row with column operations
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        for row in A:
                            row[j] -= q * row[t]
                        if R:
                            for row in R:
                                row[j] -= q * row[t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        if R:
                            for row in R:
                                row[t], row[j] = row[j], row[t]
                        restart = True
            if restart:
                continue
            # divisibility: the pivot must divide every remaining entry
            p = A[t][t]
            offender = None
            for i in range(t + 1, m):
                Ai = A[i]
                for j in range(t + 1, n):
                    if Ai[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            At = A[t]
            Ao = A[offender]
            for j in range(t, n):
                At[j] += Ao[j]
            if L:
                Lt, Lo = L[t], L[offender]
                for j in range(m):
                    Lt[j] += Lo[j]
        if A[t][t] < 0:
            for j in range(t, n):
                A[t][j] = -A[t][j]
            if L:
                for j in range(m):
                    L[t][j] = -L[t][j]
        factors.append(A[t][t])
        t += 1
    return factors, L, R


def invariant_factors_by_smith(M):
    """``linalg.invariant_factors``: a dense Smith form of every matrix."""
    if not M.is_integral:
        raise ValueError("invariant factors require an integer matrix")
    A = [list(row) for row in M.data]
    factors, _, _ = _snf_core(A, M.nrows, M.ncols, want_transforms=False)
    return tuple(factors)


def invariant_factors_by_certificate(M):
    """``linalg.invariant_factors``: the greedy path's minor as a certificate,
    else the Hermite-pass Smith form of all of M.

    Their product is the gcd of the maximal minors, so when the greedy path's
    minor is +-1 they are all 1 and no Smith form is run.  The path runs over
    rows, which is cheaper than over columns on boundaries and small matrices.
    """
    if not M.is_integral:
        raise ValueError("invariant factors require an integer matrix")
    basis, minor = _greedy_path(_sparse_rows(M))
    if abs(minor) == 1:
        return (1,) * len(basis)
    factors, _, _ = _smith(M.data, [()] * M.nrows, [()] * M.ncols)
    return tuple(factors)


def kernel_lattice_basis_by_smith(M):
    """``linalg.kernel_lattice_basis``: the last columns of the right Smith transform."""
    rows, _ = _integer_rows(M)
    A = [row[:] for row in rows]
    factors, _, R = _snf_core(A, M.nrows, M.ncols, want_transforms=True)
    r = len(factors)
    cols = [tuple(R[i][j] for i in range(M.ncols)) for j in range(r, M.ncols)]
    return Matrix.from_columns(cols, nrows=M.ncols)


# ---------------------------------------------------------------------------
# routes that went through the exact rational solve, and the dense Laplacian
# ---------------------------------------------------------------------------

def dense_laplacian(X, k, kind="ud"):
    """``complexes.laplacian`` as dense products of the boundary and its transpose."""
    if kind not in ("ud", "du", "tot"):
        raise ValueError(f"unknown Laplacian kind {kind!r}")
    d = X.dim
    if kind == "ud":
        if not -1 <= k <= d - 1:
            raise ValueError(f"up-down Laplacian undefined at k={k} for a {d}-complex")
        b = X.boundaries[k + 1]
        return dense_product(b, b.transpose())
    if kind == "du":
        if not 0 <= k <= d:
            raise ValueError(f"down-up Laplacian undefined at k={k} for a {d}-complex")
        b = X.boundaries[k]
        return dense_product(b.transpose(), b)
    if not 0 <= k <= d - 1:
        raise ValueError(f"total Laplacian undefined at k={k} for a {d}-complex")
    return dense_laplacian(X, k, "ud") + dense_laplacian(X, k, "du")


def covolume_squared_by_gram(A):
    """``linalg.covolume_squared``: the Gram determinant det(A^T A) of an
    independent-column matrix."""
    g = det(A.transpose() * A)
    if g == 0:
        raise ValueError("columns are linearly dependent")
    return g


def discriminant_group_by_gram(basis):
    """``critical.discriminant_group``: the torsion of the cokernel of the
    Gram matrix basis^T basis."""
    return AbelianGroupStructure(tuple(f for f in invariant_factors(basis.transpose() * basis) if f > 1))


def tau_covolume_by_solve(X, weights=None):
    """``matrix_forest.tau_covolume`` with det(L|_B) from solving B A = L B."""
    d = X.dim
    _require(d >= 1, "covolume formula needs dimension at least 1")
    b = boundary_matrix(X, d)
    basis = column_lattice_basis(b)
    if basis.ncols == 0:
        return TauReport(method="covolume", k=d, value=1, details=(("rank", "0"),))
    L = dense_laplacian(X, d - 1, "ud") if weights is None else weighted_laplacian(X, d, weights)
    action = solve_by_gauss_jordan(basis, L * basis)
    det_action = det(action)
    covol2 = covolume_squared_by_gram(basis)
    t_x = torsion(X, d - 1)
    value = _exactify(Fraction(t_x * t_x) * det_action / covol2)
    return TauReport(
        method="covolume",
        k=d,
        value=value,
        corrections=((f"t{d-1}(X)", t_x), ("covol^2", covol2)),
        details=(("det_restricted", format_exact(det_action)),),
    )


def tau_covolume_by_gram(X, weights=None):
    """``matrix_forest.tau_covolume`` with det(L|_B) = det(B^T L B) / covol(B)^2,
    from B^T L B = (B^T B) A for the matrix A of L|_B."""
    d = X.dim
    _require(d >= 1, "covolume formula needs dimension at least 1")
    b = boundary_matrix(X, d)
    basis = column_lattice_basis(b)
    if basis.ncols == 0:
        return TauReport(method="covolume", k=d, value=1, details=(("rank", "0"),))
    L = _top_laplacian(X, weights)
    covol2 = covolume_squared_by_gram(basis)
    det_action = _exactify(Fraction(det(basis.transpose() * L * basis)) / covol2)
    t_x = torsion(X, d - 1)
    value = _exactify(Fraction(t_x * t_x) * det_action / covol2)
    return TauReport(
        method="covolume",
        k=d,
        value=value,
        corrections=((f"t{d-1}(X)", t_x), ("covol^2", covol2)),
        details=(("det_restricted", format_exact(det_action)),),
    )


def defect_context_by_quotient(X, k):
    """``oracle._defect_context`` when the defect was a lattice quotient order."""
    bk = boundary_matrix(X, k)
    ker = kernel_lattice_basis(bk)
    if k + 1 <= X.dim:
        sat = saturation_basis(boundary_matrix(X, k + 1))
    else:
        sat = Matrix.zeros(bk.ncols, 0)
    return bk, ker, sat


def kernel_defect_by_quotient(bk, ker, sat, cobase):
    """``oracle._kernel_defect`` through ``lattice_quotient_order_by_gauss_jordan``."""
    if ker.ncols == 0:
        return 1
    outside = sorted(set(range(bk.ncols)) - set(cobase))
    sub = bk.submatrix(range(bk.nrows), outside)
    ker_sub = kernel_lattice_basis(sub)
    lifted = [[0] * ker_sub.ncols for _ in range(bk.ncols)]
    for local, global_idx in enumerate(outside):
        for j in range(ker_sub.ncols):
            lifted[global_idx][j] = ker_sub[local, j]
    gens = Matrix.from_columns(
        [sat.column(j) for j in range(sat.ncols)]
        + [tuple(row[j] for row in lifted) for j in range(ker_sub.ncols)],
        nrows=bk.ncols,
    )
    order = lattice_quotient_order_by_gauss_jordan(ker, gens)
    if order is None:
        raise ValueError("cobase does not span: infinite defect")
    return order


def circuits_by_solve(X, tree):
    """The circuit half of ``critical.fundamental_vectors``: solve, lcm, rescale."""
    tree = tuple(sorted(tree))
    b = boundary_matrix(X, X.dim)
    n = b.ncols
    tree_cols = b.submatrix(range(b.nrows), tree)
    circuits = {}
    for j in (j for j in range(n) if j not in set(tree)):
        target = Matrix.from_columns([b.column(j)], nrows=b.nrows)
        coords = solve_by_gauss_jordan(tree_cols, target)
        denom = 1
        for i in range(len(tree)):
            c = Fraction(coords[i, 0])
            denom = denom * c.denominator // math.gcd(denom, c.denominator)
        vec = [0] * n
        for i, t in enumerate(tree):
            vec[t] = -int(Fraction(coords[i, 0]) * denom)
        vec[j] = denom
        circuits[j] = _primitive(vec, j)
    return circuits


def bonds_by_kernel(X, tree):
    """The bond half of ``critical.fundamental_vectors``: for each tree facet t,
    an integer kernel basis of the rest of the tree's columns, searched for a
    row combination whose coboundary is nonzero at t."""
    tree = tuple(sorted(tree))
    b = boundary_matrix(X, X.dim)
    n = b.ncols
    bonds = {}
    for t in tree:
        rest = [c for c in tree if c != t]
        # row combinations y with (y^T b) vanishing on the rest of the tree
        constraint = Matrix([[b[i, r] for i in range(b.nrows)] for r in rest], ncols=b.nrows)
        ker = kernel_lattice_basis(constraint)
        for jcol in range(ker.ncols):
            y = ker.column(jcol)
            u = [sum(y[i] * b[i, c] for i in range(b.nrows)) for c in range(n)]
            if u[t]:
                bonds[t] = _primitive(u, t)
                break
        else:
            raise AssertionError("no fundamental bond found for a tree facet")
    return bonds


def _primitive(vec, positive_at):
    g = 0
    for x in vec:
        g = math.gcd(g, x)
    vec = [x // g for x in vec]
    if vec[positive_at] < 0:
        vec = [-x for x in vec]
    return tuple(vec)


# ---------------------------------------------------------------------------
# the oracle's enumerators before the depth-first search: every subset of the
# right size, tested from scratch
# ---------------------------------------------------------------------------

def profile_columns(cols):
    """``oracle._profile_columns``: (rank, torsion) of sparse integer columns."""
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
    return rk + len(factors), math.prod(f for f in factors if f > 1)


def forests_by_combinations(X, k=None, cap=None):
    """``oracle.enumerate_forests``: one elimination pass per rank-size subset."""
    k = X.dim if k is None else k
    b = boundary_matrix(X, k)
    r = rank(b)
    _check_cap(math.comb(b.ncols, r), cap, f"forest census at k={k}")
    cols = _sparse_columns(b)
    forests = []
    for subset in combinations(range(b.ncols), r):
        rk, tor = profile_columns([cols[j] for j in subset])
        if rk == r:
            forests.append((subset, tor))
    return ForestCensus(k, r, tuple(forests))


def rooted_forests_by_combinations(X, cap=None):
    """``oracle.enumerate_rooted_forests``: one determinant per (facets, faces) pair."""
    d = X.dim
    if d < 1:
        raise ValueError("rooted forests need dimension at least 1")
    b = boundary_matrix(X, d)
    nd, nd1 = b.ncols, b.nrows
    total = sum(math.comb(nd, s) * math.comb(nd1, s) for s in range(min(nd, nd1) + 1))
    _check_cap(total, cap, "rooted forest enumeration")
    out = []
    for s in range(min(nd, nd1) + 1):
        for facets in combinations(range(nd), s):
            for faces in combinations(range(nd1), s):
                if s == 0 or det(b.submatrix(faces, facets)) != 0:
                    out.append(RootedForest(facets, faces))
    return tuple(out)


def rooted_sums_by_row_sets(X, cap=None):
    """``oracle.rooted_forest_torsion_sums``: one column search per row set."""
    d = X.dim
    b = boundary_matrix(X, d)
    nd1 = b.nrows
    r = rank(b)
    total = sum(math.comb(nd1, s) for s in range(r + 1))
    _check_cap(total, cap, "rooted forest torsion sums")
    cols_full = _sparse_columns(b)
    c = [0] * (nd1 + 1)
    for s in range(r + 1):
        for faces in combinations(range(nd1), s):
            keep = set(faces)
            cols = [{i: v for i, v in col.items() if i in keep} for col in cols_full]
            c[nd1 - s] += sum_squared_minors(cols, s)
    return tuple(c)


def sum_squared_minors(cols, target):
    """``oracle._sum_squared_minors``: sum of det^2 over the column subsets of
    the given size, for sparse columns supported on ``target`` rows."""
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
                    g = math.gcd(g, vv)
                    if g == 1:
                        break
                if g > 1:
                    v = {rr: vv // g for rr, vv in v.items()}
                pr = next(iter(v))
                total += rec(j + 1, chosen + 1, basis + [(pr, v)], num * v[pr] * g, den * scale)
        return total

    return rec(0, 0, [], 1, 1)


def _eliminate(cands, pr, v, pv):
    """Reduce candidates (j, w, a, g) against the pivot column v, pivot pv in row pr.

    Each w <- pv*w - w[pr]*v is divided by its content h, so that
    w = (a/g)*column_j + (pivot columns) holds with a <- a*pv and g <- g*h.
    A candidate reduced to zero depends on the pivots and is dropped.  No dict
    given is mutated (w is copied before its update), so the columns may be
    the stored rows of a Matrix, which ``_sparse_rows`` hands out uncopied.
    """
    rest = []
    for cand in cands:
        j, w, a, g = cand
        c = w.get(pr)
        if not c:
            rest.append(cand)
            continue
        # w <- pv*w - c*v kills row pr fraction-free
        w = {r: x * pv for r, x in w.items()}
        for r, x in v.items():
            nx = w.get(r, 0) - c * x
            if nx:
                w[r] = nx
            else:
                del w[r]
        if not w:
            continue
        h = math.gcd(*w.values())
        if h > 1:
            w = {r: x // h for r, x in w.items()}
            g *= h
        rest.append((j, w, a * pv, g))
    return rest


def independent_subsets_unpruned(cols, size):
    """``oracle._independent_subsets`` before a node stopped at its first
    child without a leaf: every candidate of every node is branched on.

    Independent ``size``-subsets of sparse {row: value} integer columns, in
    lexicographic order, each as (subset, |det|) for one nonzero maximal minor.

    A node carries every later column reduced against the pivots of its
    prefix by ``linalg._eliminate``: v = (a/g)*column + (pivot columns), a the
    product of the pivots.  A column reduced to zero drops out with all its
    extensions.  The chosen columns are triangular on their pivot rows P, so
    det of the subset on P is the product of pivot*g/a; unit pivots come
    first, to keep that minor at 1.  The leftmost path is ``linalg._greedy_path``.
    """

    def rec(prefix, cands, num, den):
        need = size - len(prefix)
        for pos, (j, v, a, g) in enumerate(cands):
            if len(cands) - pos < need:
                return
            for pr, pv in v.items():
                if pv == 1 or pv == -1:
                    break
            if need == 1:
                yield prefix + (j,), abs(num * pv * g // (den * a))
                continue
            rest = _eliminate(cands[pos + 1 :], pr, v, pv)
            yield from rec(prefix + (j,), rest, num * pv * g, den * a)

    if size == 0:
        return iter([((), 1)])
    return rec((), [(j, c, 1, 1) for j, c in enumerate(cols) if c], 1, 1)


def independent_subsets_recursive(cols, size):
    """``oracle._independent_subsets`` as one generator per node, each leaf
    passed up through a chain of ``yield from``: its depth is bound by the
    recursion limit.  Each node returns whether it yielded a leaf, and a node
    stops at its first child without one.
    """

    def rec(prefix, cands, num, den):
        need = size - len(prefix)
        for pos, (j, v, a, g) in enumerate(cands):
            if len(cands) - pos < need:
                return pos > 0
            for pr, pv in v.items():
                if pv == 1 or pv == -1:
                    break
            if need == 1:
                yield prefix + (j,), abs(num * pv * g // (den * a))
                continue
            rest = _eliminate(cands[pos + 1 :], pr, v, pv)
            found = yield from rec(prefix + (j,), rest, num * pv * g, den * a)
            if not found:
                return pos > 0
        return bool(cands)

    if size == 0:
        return iter([((), 1)])
    return rec((), [(j, c, 1, 1) for j, c in enumerate(cols) if c], 1, 1)


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


def independent_subsets_by_stack(cols, size):
    """``oracle._independent_subsets`` as the rooted search last called it,
    on this module's own ``_eliminate``.

    Independent ``size``-subsets of sparse {row: value} integer columns, in
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


def rooted_pairs_by_row_search(b, cap, what):
    """``oracle._rooted_pairs``: for each independent column set F, a new
    ``independent_subsets_by_stack`` search over the rows of b[:, F].

    (F, S, |det b[S, F]|) over the nonsingular square submatrices of b,
    sizes ascending, then lexicographic in (F, S).

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
        for facets, _ in independent_subsets_by_stack(cols, s):
            keep = set(facets)
            sub = [{c: v for c, v in row.items() if c in keep} for row in rows]
            for faces, minor in independent_subsets_by_stack(sub, s):
                yield facets, faces, minor


def cobases_by_combinations(X, k, cap=None):
    """``oracle.enumerate_cobases``: a dense rank per row subset."""
    b = boundary_matrix(X, k + 1)
    r = rank(b)
    _check_cap(math.comb(b.nrows, r), cap, f"cobase enumeration at k={k}")
    bt = b.transpose()
    out = []
    for rows in combinations(range(b.nrows), r):
        if rank(bt.submatrix(range(bt.nrows), rows)) == r:
            out.append(rows)
    return tuple(out)


def cobase_defect_enumerator_by_cobases(X, k, cap=None):
    """``oracle.cobase_defect_enumerator`` before it walked the forests of d_k
    where beta_k = 0: the row-side cobase search at every level, each root's
    torsion from its own Smith form."""
    ker, sat = _defect_context(X, k)
    bk = boundary_matrix(X, k)
    total = 0
    for cobase in enumerate_cobases(X, k, cap):
        _, root = split_cells(X, k, cobase)
        t_root = torsion_order(bk.submatrix(range(bk.nrows), root))
        defect = _kernel_defect(ker, sat, cobase)
        total += t_root * t_root * defect * defect
    return total


# ---------------------------------------------------------------------------
# dense matrix storage
# ---------------------------------------------------------------------------


def _integer_rows(M):
    """``linalg._integer_rows`` when it returned dense rows: each row scaled by
    its denominator lcm; returns (rows, per-row scalars).

    Row scaling preserves rank and kernel, and multiplies the determinant by
    the product of the scalars.
    """
    rows = []
    scalars = []
    for row in M.data:
        s = 1
        for x in row:
            if isinstance(x, Fraction):
                s = s * x.denominator // math.gcd(s, x.denominator)
        rows.append([int(x * s) for x in row])
        scalars.append(s)
    return rows, scalars


class DenseMatrix:
    """``linalg.Matrix`` when it stored every entry in dense row tuples."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, rows, ncols=None):
        data = tuple(tuple(_canon_entry(x) for x in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols does not match row width")
            ncols = width
        elif ncols is None:
            raise ValueError("a matrix with no rows needs an explicit ncols")
        self.data = data
        self.nrows = len(data)
        self.ncols = ncols

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), ncols=n)

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(tuple((0,) * ncols for _ in range(nrows)), ncols=ncols)

    @classmethod
    def from_columns(cls, cols, nrows=None):
        cols = tuple(tuple(c) for c in cols)
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            raise ValueError("a matrix with no columns needs an explicit nrows")
        return cls(tuple(tuple(c[i] for c in cols) for i in range(nrows)), ncols=len(cols))

    @classmethod
    def diagonal(cls, entries, nrows=None, ncols=None):
        entries = tuple(entries)
        n = len(entries)
        nrows = n if nrows is None else nrows
        ncols = n if ncols is None else ncols
        return cls(
            tuple(
                tuple(entries[i] if i == j and i < n else 0 for j in range(ncols))
                for i in range(nrows)
            ),
            ncols=ncols,
        )

    # -- accessors --------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def is_square(self):
        return self.nrows == self.ncols

    @property
    def is_integral(self):
        return all(isinstance(x, int) for row in self.data for x in row)

    def __getitem__(self, key):
        i, j = key
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def columns(self):
        return tuple(zip(*self.data)) if self.nrows else ((),) * self.ncols

    def submatrix(self, rows, cols):
        rows = tuple(rows)
        cols = tuple(cols)
        return DenseMatrix(tuple(tuple(self.data[i][j] for j in cols) for i in rows), ncols=len(cols))

    def transpose(self):
        return DenseMatrix(self.columns(), ncols=self.nrows)

    # -- arithmetic -------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, DenseMatrix):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
            # each row of the product adds a * (row k of other) over the nonzero a = self[i, k]
            n = other.ncols
            brows = [[(j, x) for j, x in enumerate(row) if x] for row in other.data]
            out = []
            for row in self.data:
                acc = [0] * n
                for a, brow in zip(row, brows):
                    if a:
                        for j, x in brow:
                            acc[j] += a * x
                out.append(acc)
            return DenseMatrix(out, ncols=n)
        return self.scale(other)

    def scale(self, s):
        s = _canon_entry(s)
        return DenseMatrix(tuple(tuple(s * x for x in row) for row in self.data), ncols=self.ncols)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return DenseMatrix(
            tuple(tuple(a + b for a, b in zip(r1, r2)) for r1, r2 in zip(self.data, other.data)),
            ncols=self.ncols,
        )

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    @property
    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def __eq__(self, other):
        return isinstance(other, DenseMatrix) and self.shape == other.shape and self.data == other.data

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.data))

    def __repr__(self):
        return f"DenseMatrix({self.nrows}x{self.ncols})"


# ---------------------------------------------------------------------------
# the rational Gauss-Jordan solve and the deletion-contraction Tutte polynomial
# ---------------------------------------------------------------------------


def solve_by_gauss_jordan(A, B):
    """``linalg.solve_matrix`` as a rational Gauss-Jordan loop over [A | B]."""
    if A.nrows != B.nrows:
        raise ValueError("row mismatch in solve")
    m, n = A.shape
    aug = [[Fraction(x) for x in row_a] + [Fraction(x) for x in row_b]
           for row_a, row_b in zip(A.data, B.data)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if aug[i][c]), None)
        if piv is None:
            raise ValueError("coefficient matrix does not have full column rank")
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    for i in range(r, m):
        if any(aug[i][n:]):
            raise ValueError("inconsistent linear system")
    X = [[_canon(aug[i][n + j]) for j in range(B.ncols)] for i in range(n)]
    return Matrix(X, ncols=B.ncols)


def lattice_quotient_order_by_gauss_jordan(K, S):
    """``linalg.lattice_quotient_order`` with its coordinates from ``solve_by_gauss_jordan``."""
    nk = K.ncols
    if nk == 0:
        return 1 if S.ncols == 0 or S.is_zero else None
    if S.ncols == 0:
        return None
    coords = solve_by_gauss_jordan(K, S)
    if not coords.is_integral:
        raise ValueError("generators do not lie in the lattice")
    factors = invariant_factors(coords)
    return math.prod(factors) if len(factors) == nk else None


def tutte_by_deletion_contraction(M):
    """``families.tutte_polynomial`` by deletion-contraction, as {(i, j): coeff} for x^i y^j."""
    if M.size > 10:
        raise ValueError("Tutte polynomial capped at 10 ground elements")

    @lru_cache(maxsize=None)
    def rec(remaining, contracted):
        if not remaining:
            return ((0, 0, 1),)
        e = min(remaining)
        rest = remaining - {e}
        base = M.rank(contracted)
        is_loop = M.rank(contracted | {e}) == base
        full_rank = M.rank(remaining | contracted) - base
        rest_rank = M.rank(rest | contracted) - base
        is_coloop = not is_loop and rest_rank == full_rank - 1
        if is_loop:
            return tuple((i, j + 1, c) for i, j, c in rec(rest, contracted))
        if is_coloop:
            return tuple((i + 1, j, c) for i, j, c in rec(rest, contracted | {e}))
        out = {}
        for i, j, c in rec(rest, contracted):
            out[(i, j)] = out.get((i, j), 0) + c
        for i, j, c in rec(rest, contracted | {e}):
            out[(i, j)] = out.get((i, j), 0) + c
        return tuple((i, j, c) for (i, j), c in sorted(out.items()))

    terms = rec(M.ground(), frozenset())
    return {(i, j): c for i, j, c in terms}


def _alternating_hypotheses(X):
    d = X.dim
    for k in range(d):
        _require(betti(X, k) == 0, f"beta_{k}(X) != 0: alternating product needs acyclicity below the top")
    for k in range(d - 1):
        _require(
            torsion(X, k) == 1,
            f"t_{k}(X) != 1: alternating product needs torsion-free homology below codimension 1",
        )


def tau_alternating_by_own_loop(X):
    """``matrix_forest.tau_alternating`` with its own product loop."""
    d = X.dim
    _require(d >= 1, "alternating product needs dimension at least 1")
    _alternating_hypotheses(X)
    value = Fraction(1)
    lams = []
    for i in range(d + 1):
        lam = pseudodet(laplacian(X, i - 1, "ud"))
        lams.append((f"lam(L{i-1})", format_exact(lam)))
        value *= Fraction(lam) ** ((-1) ** (d - i))
    return TauReport(
        method="alternating",
        k=d,
        value=_exactify(value),
        details=tuple(lams),
        hypotheses=tuple(
            [f"beta_{k}(X)=0" for k in range(d)] + [f"t_{k}(X)=1" for k in range(d - 1)]
        ),
    )


def tau_weighted_alternating_by_own_loop(X, weights):
    """``matrix_forest.tau_weighted_alternating`` with its own product loops:
    the weight monomials first, then the pseudodeterminants."""
    d = X.dim
    _require(d >= 1, "weighted alternating product needs dimension at least 1")
    _alternating_hypotheses(X)
    value = Fraction(1)
    for k in range(d):
        exp = (-1) ** (d - k - 1)
        for i in range(X.n_cells(k)):
            value *= Fraction(weights[(k, i)]) ** exp
    for k in range(-1, d):
        lam = pseudodet(weighted_laplacian_similar(X, k + 1, weights))
        value *= Fraction(lam) ** ((-1) ** (d - k - 1))
    return TauReport(method="weighted-alternating", k=d, value=_exactify(value))


# ---------------------------------------------------------------------------
# the eigenvalue-product recursion, one level per call
# ---------------------------------------------------------------------------


def _top_laplacian(X, weights):
    if weights is None:
        return laplacian(X, X.dim - 1, "ud")
    return weighted_laplacian(X, X.dim, weights)


def _weighted_level_factor(X, weights):
    """Level k of the algebraic weighting: the pseudodeterminant of the
    weighted Laplacian on the (k-1)-cells times their weight monomial (the
    empty face's weight is 1)."""

    def level_factor(k):
        mono = math.prod(weights.cell_weights(X, k - 1))
        return pseudodet(weighted_laplacian_similar(X, k, weights)) * mono

    return level_factor


def _codim2_homology(X, k):
    """(beta_{k-2}, t_{k-2}) from one homology pass (a rank and a Smith form),
    where ``betti`` and ``torsion`` would take two ranks and a Smith form."""
    if k < 2:
        return 0, 1
    h = homology(X, k - 2)
    return h.betti, h.torsion_order


def _eigen_level(X, k, level_factor, formula):
    """Level k of the eigenvalue-product recursion, grounded at tau_{-1} = 1:
    tau_k = t_{k-2}^2 * level_factor(k) / tau_{k-1}.

    ``level_factor(k)`` is the pseudodeterminant of the level's (possibly
    weighted) Laplacian on the (k-1)-cells, times any weight monomial; at
    k = 0 that Laplacian is the 1x1 augmentation one.  Hypotheses are checked
    top down, each naming ``formula``.  Returns (tau_k, level factor, t_{k-2},
    tau_{k-1}).
    """
    if k == -1:
        return 1, 1, 1, 1
    _require(
        betti(X, k - 1) == 0,
        f"beta_{k-1}(X) != 0: {formula} needs vanishing codim-1 homology",
    )
    beta, t_x = _codim2_homology(X, k)
    _require(
        beta == 0,
        f"beta_{k-2}(X) != 0: {formula} needs vanishing codim-2 homology",
    )
    lam = level_factor(k)
    below = _eigen_level(X, k - 1, level_factor, formula)[0]
    return _exactify(Fraction(t_x * t_x) * lam / below), lam, t_x, below


def tau_pseudodet_by_recursion(X, weights=None):
    """``matrix_forest.tau_pseudodet`` through the recursive ``_eigen_level``,
    which takes the top pseudodeterminant before checking the lower levels."""
    d = X.dim
    _require(d >= 1, "eigenvalue-product formula needs dimension at least 1")

    def level_factor(k):
        # weights apply at the top level only
        return pseudodet(_top_laplacian(X, weights) if k == d else laplacian(X, k - 1, "ud"))

    value, lam, t_x, below = _eigen_level(X, d, level_factor, "eigenvalue-product formula")
    return TauReport(
        method="pseudodet",
        k=d,
        value=value,
        corrections=((f"t{d-2}(X)", t_x), (f"tau{d-1}(X)", below)),
        details=(("pseudodet", format_exact(lam)),),
        hypotheses=(f"beta_{d-1}(X)=0", f"beta_{d-2}(X)=0"),
    )


def tau_algebraic_weighted_by_recursion(X, weights):
    """``matrix_forest.tau_algebraic_weighted`` through the recursive ``_eigen_level``."""
    d = X.dim
    _require(d >= 1, "algebraic weighted formula needs dimension at least 1")
    value, _, t_x, _ = _eigen_level(
        X, d, _weighted_level_factor(X, weights), "algebraic weighted formula"
    )
    return TauReport(
        method="algebraic-weighted",
        k=d,
        value=value,
        corrections=((f"t{d-2}(X)", t_x),),
        hypotheses=(f"beta_{d-1}(X)=0", f"beta_{d-2}(X)=0"),
    )


def from_facets_by_pairs(n, facets):
    """``complexes.from_facets`` testing every facet against every other."""
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


def is_shifted_by_faces(S, relabel=False):
    """``complexes.is_shifted`` through every face of ``S``."""
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


def delete_and_link_by_faces(S, v):
    """``complexes.delete_and_link`` through every face of ``S``."""
    v = _exact_int(v, "vertex")
    deletion = []
    link = []
    for layer in S.faces_by_dim():
        for face in layer:
            fs = set(face)
            if v in fs:
                rest = fs - {v}
                if rest:
                    link.append(rest)
            else:
                deletion.append(fs)
    if not deletion:
        raise ValueError(f"deleting vertex {v} leaves an empty complex")
    if not link:
        raise ValueError(f"vertex {v} has an empty link")
    return from_facets_by_pairs(S.n, deletion), from_facets_by_pairs(S.n, link)


def shifted_complex_by_own_filter(n, generators):
    """``families.shifted_complex`` with its own maximal-face filter."""
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
    S = from_facets_by_pairs(n, [set(f) for f in maximal])
    if not is_shifted_by_faces(S):
        raise AssertionError("order ideal closure failed to produce a shifted complex")
    return S


def shifted_signatures_by_faces(S):
    """``families.shifted_signatures`` through every face of ``S``."""
    if not is_shifted_by_faces(S):
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
