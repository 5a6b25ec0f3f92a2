"""Frozen copies of library routines that a faster algorithm replaced.

Each function here is the replaced routine as it last stood in the library,
kept unchanged so that differential tests can compare the new code against
it on a seeded corpus.  Do not optimise or refactor these.
"""

import math
from fractions import Fraction


def _canon(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


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
