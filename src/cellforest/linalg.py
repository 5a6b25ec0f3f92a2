"""Exact integer and rational matrix kernel.

All arithmetic is arbitrary precision: matrices hold Python ``int`` or
``fractions.Fraction`` entries, and every algorithm below is fraction-free
(integer pivoting), exact rational, or exact modular.  No floating
point anywhere, and no probabilistic step.

Rank, the greedy bases, ``det`` and the unit-pivot contraction of
``invariant_factors`` share one sparse elimination step (``_eliminate``, as in
Dumas-Saunders-Villard, J. Symbolic Comput. 2001): columns (or rows) are
{index: value} dicts, and each surviving one is reduced fraction-free against
a pivot, w <- pv*w - w[pr]*v, divided by its content, and dropped once zero.
Unit pivots come first.  The oracle's depth-first search branches over this
step down to the nodes two short of a leaf, which read each leaf's pivot off
the reduced entries without storing them; rank, the bases and ``det`` follow
its leftmost path (``_greedy_path``), which also yields the signed det of the
basis on its pivot indices.
``invariant_factors`` pivots only on entries +-1 of rows never divided by a
content, so each pivot is a unimodular step that splits off a factor 1, and
it runs the dense Smith form only on the rows those pivots leave.

Lattices, Smith forms and integer kernels share one dense Euclidean loop,
the row Hermite form ``_row_hermite``, whose rows may carry ride-along
entries that record the transform.  The Smith form alternates row and column
Hermite passes until the matrix is diagonal (Kannan-Bachem, SIAM J. Comput.
1979).  Reducing the entries above each pivot keeps them small: on the
80x80 L_1 of the 5-cube no entry exceeds 9 bits, or 82 with both transforms.
An integer kernel is one Hermite pass of [M^T | I], and exact solves read
their solutions off kernels: no rational Gauss-Jordan loop remains.

A lattice Gram matrix is formed in one place, ``_lattice_gram``.  A Hermite
basis B (n x r) whose pivots are all 1 is the identity on its pivot rows, so
B^T B = I_r + X^T X with X the other n - r rows; when n - r < r the Gram
matrix is taken as I_{n-r} + X X^T instead, which has the same determinant
(Sylvester's identity) and the same invariant factors, so ``covolume_squared``
and the discriminant groups of ``critical`` read the smaller matrix.

The characteristic polynomial is multimodular (Dumas-Pernet-Wan, ISSAC 2005):
Hessenberg reduction modulo Mersenne primes 2^e - 1 from a fixed list, so no
primality test runs here, with the coefficients times the product R of the
row denominators rebuilt by the Chinese remainder theorem once the modulus
exceeds twice a row-wise Hadamard-type bound on them.  A pass costs O(n^3)
operations on integers of the modulus's size; in CPython that costs about the
same at any modulus up to a few hundred bits and about four times as much at
1279 bits, so one modulus of at most 4423 bits is taken alone whenever one
passes the bound (``_moduli``).

Conventions:

* ``Matrix`` is immutable and stores each row as its nonzeros, so products,
  transposes and eliminations of the mostly zero boundaries and Laplacians
  cost only those; ``data`` is a dense view built on request.  Zero-by-n and
  n-by-zero shapes are legal (empty lattice bases, fully-rooted boundaries).
  Its greedy column basis, rank and invariant factors are memoized
  privately, each computed at most once, and the rank is read off whichever
  of the other two came first; ``==`` and ``hash`` read only the entries, as
  before.
* Characteristic polynomials are monic in ``z`` with coefficients stored in
  ascending order, so ``coeffs[k]`` multiplies ``z**k``.
* Smith normal form returns positive invariant factors ``d_1 | d_2 | ... | d_r``
  (zeros are implicit padding) together with both unimodular transforms,
  from alternating Hermite passes with identity rows riding along.
* ``kernel_lattice_basis`` reduces the rows of [M^T | I] on their first m
  entries; the identity parts of the rows that vanish there are a saturated
  basis of ker M.  Callers rely on the lattice, not on the particular basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul


def _canon(x):
    """Normalize an entry: Fractions with unit denominator collapse to int."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise TypeError(f"matrix entries must be int or Fraction, got {type(x).__name__}")


class Matrix:
    """Immutable sparse matrix over exact integers / rationals: row i is the
    {column: value} dict ``_rows[i]`` of its nonzeros, in ascending column order.
    ``greedy_column_basis``, ``rank``, ``invariant_factors`` and ``char_poly``
    memoize their results in ``_basis``, ``_rank``, ``_factors`` and
    ``_poly``, and ``complexes._unit_gram`` keeps a stored boundary's unit
    Laplacians in ``_grams``; ``==`` and ``hash`` ignore all five.  A memo
    lives as long as its matrix, and a shared matrix is never changed in
    place, so every caller reads the same values."""

    __slots__ = ("nrows", "ncols", "_rows", "is_integral", "_basis", "_rank", "_factors", "_poly", "_grams")

    def __init__(self, rows, ncols=None):
        rows = list(map(tuple, rows))
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != width:
                raise ValueError("ncols does not match row width")
            ncols = width
        elif ncols is None:
            raise ValueError("a matrix with no rows needs an explicit ncols")
        # a row of ints skips _canon, which checks every other entry, zeros too
        self._set([{j: x for j, x in enumerate(r) if x} if set(map(type, r)) <= {int}
                   else {j: y for j, x in enumerate(r) if (y := _canon(x))} for r in rows], ncols)

    def _set(self, rows, ncols, integral=None):
        """Store the {column: value} rows.  Unless ``integral`` is given, their
        Fractions of denominator 1 become ints and integrality is found."""
        if integral is None:
            integral = True
            for row in rows:
                for j, x in row.items():
                    if type(x) is not int:
                        if x.denominator == 1:
                            row[j] = x.numerator
                        else:
                            integral = False
        self._rows = tuple(rows)
        self.nrows = len(self._rows)
        self.ncols = ncols
        self.is_integral = integral
        self._basis = self._rank = self._factors = self._poly = self._grams = None

    @classmethod
    def _from_rows(cls, rows, ncols, integral=None):
        """The matrix whose row i has the nonzeros ``rows[i]``, as in ``_set``."""
        M = object.__new__(cls)
        M._set(rows, ncols, integral)
        return M

    # -- constructors -----------------------------------------------------

    @classmethod
    def identity(cls, n):
        return cls.diagonal((1,) * n)

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls._from_rows([{} for _ in range(nrows)], ncols, True)

    @classmethod
    def from_columns(cls, cols, nrows=None):
        cols = tuple(cols)
        if not cols and nrows is None:
            raise ValueError("a matrix with no columns needs an explicit nrows")
        return cls(cols, ncols=None if cols else nrows).transpose()

    @classmethod
    def diagonal(cls, entries, nrows=None, ncols=None):
        entries = tuple(entries)
        nrows = len(entries) if nrows is None else nrows
        ncols = len(entries) if ncols is None else ncols
        rows = [{} for _ in range(nrows)]
        for i in range(min(len(entries), nrows, ncols)):
            if x := _canon(entries[i]):
                rows[i][i] = x
        return cls._from_rows(rows, ncols)

    # -- accessors --------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def is_square(self):
        return self.nrows == self.ncols

    @property
    def data(self):
        """The dense rows, built on demand."""
        return tuple(map(self.row, range(self.nrows)))

    def _col(self, j):
        if not -self.ncols <= j < self.ncols:
            raise IndexError("matrix column index out of range")
        return j % self.ncols

    def __getitem__(self, key):
        i, j = key
        return self._rows[i].get(self._col(j), 0)

    def row(self, i):
        out = [0] * self.ncols
        for j, x in self._rows[i].items():
            out[j] = x
        return tuple(out)

    def column(self, j):
        j = self._col(j)
        return tuple(row.get(j, 0) for row in self._rows)

    def columns(self):
        return self.transpose().data

    def submatrix(self, rows, cols):
        cols = [self._col(j) for j in cols]
        at = {c: k for k, c in enumerate(cols)}
        picked = [self._rows[i] for i in rows]
        if all(a < b for a, b in zip(cols, cols[1:])):  # ascending: walk the nonzeros
            out = [{at[j]: x for j, x in row.items() if j in at} for row in picked]
        else:
            out = [{k: row[c] for k, c in enumerate(cols) if c in row} for row in picked]
        return Matrix._from_rows(out, len(cols), self.is_integral or None)

    def transpose(self):
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self._rows):
            for j, x in row.items():
                cols[j][i] = x
        return Matrix._from_rows(cols, self.nrows, self.is_integral)

    # -- arithmetic -------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
            # row i of the product adds a * (row k of other) over the nonzeros a = self[i, k]
            out = []
            for row in self._rows:
                acc = {}
                for k, a in row.items():
                    for j, x in other._rows[k].items():
                        acc[j] = acc.get(j, 0) + a * x
                out.append({j: acc[j] for j in sorted(acc) if acc[j]})
            return Matrix._from_rows(out, other.ncols, (self.is_integral and other.is_integral) or None)
        return self.scale(other)

    def scale(self, s):
        s = _canon(s)
        out = [{j: s * x for j, x in row.items()} if s else {} for row in self._rows]
        return Matrix._from_rows(out, self.ncols, (self.is_integral and isinstance(s, int)) or None)

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        out = [{j: v for j in sorted(r1.keys() | r2.keys()) if (v := r1.get(j, 0) + r2.get(j, 0))}
               for r1, r2 in zip(self._rows, other._rows)]
        return Matrix._from_rows(out, self.ncols, (self.is_integral and other.is_integral) or None)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    @property
    def is_zero(self):
        return not any(self._rows)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.shape == other.shape and self._rows == other._rows

    def __hash__(self):
        return hash((self.nrows, self.ncols, tuple(tuple(row.items()) for row in self._rows)))

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols})"


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial det(z*I - M), ascending coefficients."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs or self.coeffs[-1] != 1:
            raise ValueError("characteristic polynomial must be monic")

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _canon(acc) if isinstance(acc, (int, Fraction)) else acc

    def strip_zero_roots(self):
        """Drop the z^m factor: coefficients above the lowest nonzero one."""
        return self.coeffs[next((k for k, c in enumerate(self.coeffs) if c), len(self.coeffs)):]


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form: left * M * right is diagonal(invariant_factors) padded with zeros."""

    invariant_factors: tuple
    left: Matrix
    right: Matrix

    @property
    def rank(self):
        return len(self.invariant_factors)

    def diagonal_matrix(self, nrows, ncols):
        return Matrix.diagonal(self.invariant_factors, nrows=nrows, ncols=ncols)


# ---------------------------------------------------------------------------
# the sparse elimination step: rank, greedy bases and determinants
# ---------------------------------------------------------------------------


def _integer_rows(M):
    """(rows, scalars): M's rows as sparse {column: value} integer dicts, each
    scaled by the lcm of its denominators, and those lcms.  Row scaling keeps
    rank and kernel, and multiplies det by the product of the scalars.  An
    integer matrix gives its stored rows.
    """
    if M.is_integral:
        return M._rows, (1,) * M.nrows
    scalars = [math.lcm(*(x.denominator for x in row.values() if type(x) is not int)) for row in M._rows]
    return [{j: int(x * s) for j, x in row.items()} for s, row in zip(scalars, M._rows)], scalars


def _sparse_rows(M):
    """M's rows as sparse {column: value} integer dicts, scaled as in ``_integer_rows``."""
    return _integer_rows(M)[0]


def _sparse_columns(M):
    """M's columns as sparse {row: value} integer dicts, each scaled by the lcm
    of its denominators, which keeps every rank and every lexicographic basis."""
    return _sparse_rows(M.transpose())


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


def _greedy_path(cols):
    """(basis, minor) for sparse integer columns, along the search's leftmost path.

    The first surviving candidate is always the next pivot column, so
    ``basis`` is the lexicographically first maximal independent set of
    columns.  Its pivot is its first stored entry of value +-1, else its last
    stored entry.  The basis is triangular on its pivot rows in pivot order,
    where its det is the product of pv*g/a over the pivots; times the sign of
    the permutation that sorts those rows, this is ``minor``, the integer det
    of the basis on its pivot rows in ascending order.  Preferring unit
    pivots keeps that minor at +-1 wherever the reductions allow.
    """
    cands = [(j, c, 1, 1) for j, c in enumerate(cols) if c]
    basis = []
    rows = []
    num = den = 1
    while cands:
        j, v, a, g = cands[0]
        for pr, pv in v.items():
            if pv == 1 or pv == -1:
                break
        basis.append(j)
        rows.append(pr)
        num *= pv * g
        den *= a
        cands = _eliminate(cands[1:], pr, v, pv)
    inversions = sum(p > q for i, p in enumerate(rows) for q in rows[i + 1 :])
    minor = num // den
    return tuple(basis), -minor if inversions & 1 else minor


# ---------------------------------------------------------------------------
# rank / determinant / characteristic polynomial
# ---------------------------------------------------------------------------


def greedy_column_basis(M):
    """Lexicographically first maximal independent set of column indices,
    searched at most once per matrix."""
    if M._basis is None:
        M._basis = _greedy_path(_sparse_columns(M))[0]
    return M._basis


def greedy_row_basis(M):
    """Lexicographically first maximal independent set of row indices."""
    return _greedy_path(_sparse_rows(M))[0]


def rank(M):
    """Exact rank over the rationals: the size of the memoized greedy column
    basis, unless ``invariant_factors`` has already set it."""
    if M._rank is None:
        M._rank = len(greedy_column_basis(M))
    return M._rank


def det(M):
    """Exact determinant on the leftmost path of the sparse elimination step.

    Each row is scaled to integers by the lcm of its denominators; the path
    over those rows takes them all exactly when the determinant is nonzero,
    and its minor is then the determinant of the scaled matrix.
    """
    if not M.is_square:
        raise ValueError("determinant of a non-square matrix")
    rows, scalars = _integer_rows(M)
    basis, minor = _greedy_path(rows)
    if len(basis) < M.nrows:
        return 0
    return _canon(Fraction(minor, math.prod(scalars)))


def char_poly(M):
    """Monic det(z*I - M) with exact coefficients, by Hessenberg reduction mod primes.

    Row i of M is scaled by the lcm r_i of its denominators to an integer row
    N_i, and R = prod_i r_i.  The coefficient of z^(n-k) is +-e_k of the
    eigenvalues, a sum of k x k principal minors, and
    R * minor_S(M) = prod_{i not in S} r_i * minor_S(N); so R times every
    coefficient is an integer, and Hadamard's inequality bounds it by
    B = prod_i (r_i + ||N_i||_2).  For each prime p that does not divide R,
    the rows N_i * r_i^-1 mod p (that is, M mod p) are reduced to upper
    Hessenberg form by similarity transforms, the characteristic polynomial
    is read off by the row recurrence (Cohen, *A Course in Computational
    Algebraic Number Theory*, Alg. 2.2.9), and its coefficients are
    multiplied by R mod p.  The primes are Mersenne primes in the order of
    ``_moduli``, and one dividing R is skipped.  The residues are combined
    by the Chinese remainder theorem until the modulus exceeds 2B;
    symmetric residues are then exactly R times the coefficients, and are
    divided by R.  An integer matrix has every r_i = 1, so R = 1 and
    B = prod_i (1 + ||row_i||_2).  Each row takes its own lcm, not the lcm s
    of all denominators, because scaling M by s would put s^n in place of R
    and multiply every row norm by s, which costs roughly n*log2(s) more bits
    of modulus.  The primes are proven (see ``_MERSENNE_EXPONENTS``), and the
    loop stops on the bound alone, never on residues that merely stop changing.
    The polynomial is computed at most once per matrix.
    """
    if not M.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    if M._poly is not None:
        return M._poly
    n = M.nrows
    if n == 0:
        return CharPoly((1,))
    N, scalars = _integer_rows(M)
    R = math.prod(scalars)
    bound = 1
    for r, row in zip(scalars, N):
        s = sum(x * x for x in row.values())
        bound *= r + (math.isqrt(s - 1) + 1 if s else 0)  # r_i + ceil(||N_i||_2)
    N = Matrix._from_rows(N, n, True).data
    # ascending coefficients of R * det(z*I - M), modulo the product of the primes so far
    residues = None
    modulus = 1
    moduli = _moduli(bound)
    while modulus <= 2 * bound:
        p = next(moduli, None)
        if p is None:
            raise ValueError(f"a Hadamard bound of {bound.bit_length()} bits exceeds the listed Mersenne primes")
        if R % p == 0:
            continue
        rows = []
        for r, row in zip(scalars, N):
            u = pow(r, -1, p)
            rows.append(row if u == 1 else [x * u for x in row])
        res = [c * R % p for c in _hessenberg_char_poly_mod(rows, p)]
        if residues is None:
            residues = res
        else:
            inv = pow(modulus % p, -1, p)
            residues = [a + modulus * ((b - a) * inv % p) for a, b in zip(residues, res)]
        modulus *= p
    half = modulus // 2
    M._poly = CharPoly(tuple(_canon(Fraction(c - modulus if c > half else c, R)) for c in residues))
    return M._poly


# Exponents e of the known Mersenne primes 2^e - 1 from 2^61 - 1 to
# 2^82589933 - 1, each proven prime by the Lucas-Lehmer test (Lehmer, Ann. of
# Math. 1930).  Their product has about 5.8 * 10^8 bits, so only a matrix of
# some 70 MB could have a Hadamard bound beyond it.
_MERSENNE_EXPONENTS = (
    61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423,
    9689, 9941, 11213, 19937, 21701, 23209, 44497, 86243, 110503, 132049, 216091,
    756839, 859433, 1257787, 1398269, 2976221, 3021377, 6972593, 13466917, 20996011,
    24036583, 25964951, 30402457, 32582657, 37156667, 42643801, 43112609, 57885161,
    74207281, 77232917, 82589933,
)
# Up to this many bits, one pass modulo 2^e - 1 costs less than the e/61
# passes modulo 2^61 - 1 it replaces: at 4423 bits it costs about 28 of them
# and replaces 73 (a 66 x 66 Laplacian, CPython 3.11).  So one such modulus is
# taken alone whenever it passes the bound.
_SMALL_EXPONENT = 4423


def _moduli(bound):
    """The Mersenne primes for a CRT that must pass 2 * bound, in the order to try them.

    2^e - 1 > 2 * bound exactly when e exceeds the bit length of bound.  The
    moduli of at most 4423 bits that pass it alone come first, smallest first;
    then the other ones of at most 4423 bits from the largest down; then the
    larger ones from the smallest up.
    """
    b = bound.bit_length()
    small = [e for e in _MERSENNE_EXPONENTS if e <= _SMALL_EXPONENT]
    order = [e for e in small if e > b] + [e for e in small if e <= b][::-1]
    order += [e for e in _MERSENNE_EXPONENTS if e > _SMALL_EXPONENT]
    return ((1 << e) - 1 for e in order)


def _hessenberg_char_poly_mod(N, p):
    """Ascending coefficients of det(z*I - N) mod the prime p.

    Reduces N mod p to upper Hessenberg form H by similarity transforms (a row
    swap with the matching column swap, then for each row i below the pivot
    row m, row_i -= u*row_m with column_m += u*column_i), skipping a column that
    is already zero below the subdiagonal.  Then p_0 = 1 and
    p_m = (z - h_mm) p_{m-1} - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1},
    indices from 1, gives det(z*I - H) = p_n.
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


def pseudodet(M):
    """Product of the nonzero eigenvalues, from the characteristic polynomial.

    The sign is fixed assuming positive-semidefinite input (the Laplacian
    case); the zero matrix yields 1 by the empty-product convention.  Taking
    it from the spectrum, not from ``det`` of a restriction, keeps the
    eigenvalue routes independent of the determinant routes they are checked
    against.
    """
    return abs(char_poly(M).strip_zero_roots()[0])


# ---------------------------------------------------------------------------
# Smith normal form and invariant factors
# ---------------------------------------------------------------------------


def _smith(A, left, right):
    """Smith form of the integer rows A by alternating row and column Hermite passes.

    ``left`` holds one ride-along row per row of A and ``right`` one per
    column; a row pass carries the left rows and a column pass, a row pass on
    the transpose, carries the right rows (Kannan-Bachem, SIAM J. Comput.
    1979).  Identity rows come out as L and the rows of R^T with L*A*R = D;
    empty rows cost nothing, so the factors alone need no separate loop.  The
    passes alternate until the core is diagonal, and each pair (a, b) that
    breaks the divisibility chain becomes (gcd, lcm) by the 2x2 extended-gcd
    transform.  Returns (factors, left rows, right rows).
    """
    lines = [[*a, *l] for a, l in zip(A, left)]
    other = [list(c) for c in right]
    width = len(other)  # core entries at the front of each line
    fixed = ([], [])  # ride-along rows whose row or column left the core
    side = 0  # 0: lines are rows with left riding along; 1: columns with right
    while True:
        lines, r = _row_hermite(lines, width)
        fixed[side].extend(line[width:] for line in lines[r:])
        lines = lines[:r]
        # echelon rows vanish left of their pivot, so only entries right of i matter
        if not any(any(line[i + 1 : width]) for i, line in enumerate(lines)):
            break
        lines, other = (
            [[*col, *o] for col, o in zip(zip(*lines), other)],
            [line[width:] for line in lines],
        )
        width = r
        side ^= 1
    d = [line[i] for i, line in enumerate(lines)]
    mine = [line[width:] for line in lines]
    L, R = (mine, other) if side == 0 else (other, mine)
    # diag(a, b) -> diag(g, lcm) by L2 = [[s, t], [-b/g, a/g]], R2 = [[1, -t*b/g], [1, s*a/g]]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            a, b = d[i], d[j]
            if b % a:
                g = math.gcd(a, b)
                s = pow(a // g, -1, b // g)
                t = (g - s * a) // b
                ag, bg = a // g, b // g
                L[i], L[j] = (
                    [s * x + t * y for x, y in zip(L[i], L[j])],
                    [ag * y - bg * x for x, y in zip(L[i], L[j])],
                )
                R[i], R[j] = (
                    [x + y for x, y in zip(R[i], R[j])],
                    [s * ag * y - t * bg * x for x, y in zip(R[i], R[j])],
                )
                d[i], d[j] = g, ag * b
    return d, L + fixed[0], R + fixed[1]


def smith_normal_form(M):
    """Smith normal form with unimodular transforms: left*M*right = diag(factors)."""
    if not M.is_integral:
        raise ValueError("Smith normal form requires an integer matrix")
    m, n = M.shape
    factors, L, Rt = _smith(M.data, Matrix.identity(m).data, Matrix.identity(n).data)
    return SNFResult(tuple(factors), Matrix(L, ncols=m), Matrix(Rt, ncols=n).transpose())


def invariant_factors(M):
    """Positive invariant factors of an integer matrix (no transforms).

    Unit pivots are contracted first by the sparse step over the rows: the
    first candidate (j, w, a, g) with g = 1 and an entry pv = +-1 is the pivot,
    and the others are reduced against it.  With pv = +-1, w <- pv*w - c*v is
    a unimodular row operation, and column operations then clear the rest of
    the pivot row, so each pivot splits off an invariant factor 1 (Cohen,
    GTM 138, §2.4).  The content division is not unimodular: a candidate with
    g > 1 stands for the row g*w, and never pivots.  What is left, g*w over
    the columns still present, goes to the dense Smith form, whose factors
    follow the ones (Dumas-Saunders-Villard, J. Symbolic Comput. 2001).
    """
    if not M.is_integral:
        raise ValueError("invariant factors require an integer matrix")
    if M._factors is not None:
        return M._factors
    cands = [(j, w, 1, 1) for j, w in enumerate(_sparse_rows(M)) if w]
    ones = 0
    i = 0
    while i < len(cands):  # the first candidate with g = 1 and a unit entry pivots
        _, v, _, g = cands[i]
        pv = 0
        if g == 1:
            for pr, pv in v.items():
                if pv == 1 or pv == -1:
                    break
        if pv == 1 or pv == -1:
            del cands[i]
            cands = _eliminate(cands, pr, v, pv)
            ones += 1
            i = 0
        else:
            i += 1
    factors = []
    if cands:
        at = {c: k for k, c in enumerate(sorted({c for _, w, _, _ in cands for c in w}))}
        dense = []
        for _, w, _, g in cands:
            row = [0] * len(at)
            for c, x in w.items():
                row[at[c]] = g * x
            dense.append(row)
        factors, _, _ = _smith(dense, [()] * len(dense), [()] * len(at))
    M._factors = (1,) * ones + tuple(factors)
    M._rank = len(M._factors)
    return M._factors


def torsion_order(M):
    """Product of the invariant factors exceeding 1."""
    return math.prod(invariant_factors(M))


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


def _row_hermite(rows, ncols):
    """Row Hermite form on the first ncols entries of each row; returns (rows, r).

    Entries past the first ncols ride along through every row operation, so
    identity rows appended there record the unimodular transform.  rows[:r]
    is the canonical echelon part (positive pivots, entries above a pivot
    reduced into [0, pivot)); rows[r:] vanish on the first ncols entries.
    """
    work = [list(row) for row in rows]
    r = 0
    for c in range(ncols):
        live = [i for i in range(r, len(work)) if work[i][c]]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda i: abs(work[i][c]))
            tail = work[live[0]][c:]
            p = tail[0]
            for i in live[1:]:
                wi = work[i]
                q = wi[c] // p
                if q:
                    wi[c:] = [a - q * b for a, b in zip(wi[c:], tail)]
            live = [i for i in live if work[i][c]]
        i0 = live[0]
        work[r], work[i0] = work[i0], work[r]
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        tail = work[r][c:]
        p = tail[0]
        for wi in work[:r]:
            q = wi[c] // p
            if q:
                wi[c:] = [a - q * b for a, b in zip(wi[c:], tail)]
        r += 1
    return work, r


def column_lattice_basis(A):
    """Integer basis (as matrix columns) of the lattice spanned by A's columns.

    Column-style Hermite normal form with zero columns dropped: column j has
    its first nonzero, a positive pivot, at row p_j, with p_0 < p_1 < ...,
    so the basis on its pivot rows is lower triangular, and each entry left
    of a pivot in its row lies in [0, pivot).
    """
    if not A.is_integral:
        raise ValueError("lattice basis requires an integer matrix")
    h, r = _row_hermite(A.columns(), A.nrows)
    return Matrix.from_columns(h[:r], nrows=A.nrows)


def kernel_lattice_basis(M):
    """Integer basis of ker M as matrix columns, from one Hermite pass of [M^T | I].

    The pass is a unimodular row transform U with U*M^T in echelon form; the
    rows of U whose image vanishes lie in ker M, and as rows of a unimodular
    matrix they span a saturated lattice of full rank in it.
    """
    m, n = M.shape
    lines = [[0] * m + [int(i == j) for i in range(n)] for j in range(n)]
    for i, row in enumerate(_sparse_rows(M)):
        for j, x in row.items():
            lines[j][i] = x
    h, r = _row_hermite(lines, m)
    return Matrix.from_columns([row[m:] for row in h[r:]], nrows=n)


def saturation_basis(M):
    """Integer basis of (rational column span of M) ∩ Z^nrows."""
    W = kernel_lattice_basis(M.transpose())
    return kernel_lattice_basis(W.transpose())


# No route of the package solves a system or takes a quotient order any more.
# These two stay only because benchmarks/test_benchmarks.py requires every name
# in the tracer's metric tables (benchmarks/tracer.py) to exist.
def solve_matrix(A, B):
    """Solve A*X = B exactly; A must have full column rank and the system be consistent.

    Column j of X comes from the integer kernel of [A | B_j]: with A of full
    column rank that kernel has rank at most 1, and a basis vector (v, t) has
    t != 0 and gives A*(-v/t) = B_j.  An empty kernel means no solution.
    """
    if A.nrows != B.nrows:
        raise ValueError("row mismatch in solve")
    n = A.ncols
    if rank(A) < n:
        raise ValueError("coefficient matrix does not have full column rank")
    rows = A.data
    cols = []
    for b in B.columns():
        K = kernel_lattice_basis(Matrix([(*a, x) for a, x in zip(rows, b)], ncols=n + 1))
        if not K.ncols:
            raise ValueError("inconsistent linear system")
        *v, t = K.column(0)
        cols.append([Fraction(-x, t) for x in v])
    return Matrix.from_columns(cols, nrows=n)


def _pivot_rows(B):
    """The row p_j of the first nonzero of each column j of B; None for a zero column."""
    first = [None] * B.ncols
    for i, row in enumerate(B._rows):
        for j in row:
            if first[j] is None:
                first[j] = i
    return first


def _lattice_gram(B):
    """A Gram matrix of the lattice spanned by B's columns, on the smaller side
    when B's pivot rows form an identity block.

    Say B is n x r and integral, and row p_j is exactly e_j for each column j.
    With X the other n - r rows, B^T B = I_r + X^T X.  Sylvester's identity
    (Horn and Johnson, *Matrix Analysis*, 2nd ed., Thm 1.3.22) gives
    det(I_r + X^T X) = det(I_{n-r} + X X^T), and unimodular row and column
    operations reduce [[I_r, X^T], [-X, I_{n-r}]] to diag(I, I_r + X^T X) and
    to diag(I_{n-r} + X X^T, I) alike, so both sides have the same invariant
    factors, hence the same determinant and cokernel.  I_{n-r} + X X^T is
    returned when n - r < r; B^T B otherwise, and for any other B.
    """
    n, r = B.shape
    if B.is_integral and n - r < r:
        pivots = _pivot_rows(B)
        if None not in pivots and all(B._rows[p] == {j: 1} for j, p in enumerate(pivots)):
            taken = set(pivots)
            X = B.submatrix([i for i in range(n) if i not in taken], range(r))
            return X * X.transpose() + Matrix.identity(n - r)
    return B.transpose() * B


def covolume_squared(A):
    """Gram determinant det(A^T A) of an independent-column matrix.

    When A is an integral n x r matrix whose pivot rows form an identity
    block and n - r < r, the determinant is taken as det(I_{n-r} + X X^T) on
    the other rows X, by Sylvester's identity (Horn and Johnson, Thm 1.3.22);
    otherwise as det(A^T A) (``_lattice_gram``).
    """
    g = det(_lattice_gram(A))
    if g == 0:
        raise ValueError("columns are linearly dependent")
    return g


def lattice_quotient_order(K, S):
    """Order of (lattice spanned by K's columns) / (sublattice generated by S's columns).

    Returns None when the ranks differ (infinite quotient).  S's columns must
    lie in the lattice spanned by K (integer coordinates).
    """
    nk = K.ncols
    if nk == 0:
        return 1 if S.ncols == 0 or S.is_zero else None
    if S.ncols == 0:
        return None
    coords = solve_matrix(K, S)
    if not coords.is_integral:
        raise ValueError("generators do not lie in the lattice")
    factors = invariant_factors(coords)
    return math.prod(factors) if len(factors) == nk else None
