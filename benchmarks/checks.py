"""Closed forms the benchmark checks the program's outputs against.

Every value here is computed from its published formula with plain integer
arithmetic, apart from the program, so a fast path that returns a wrong
integer fails the benchmark instead of speeding it up.  Where no closed form
applies (weighted routes, the Moebius strip, the annulus) the workloads
compare independent routes of the program instead.
"""

from math import comb, factorial, prod


def kalai(n, d):
    """Torsion-weighted d-tree count of the d-skeleton of the (n-1)-simplex: n^C(n-2, d)."""
    return n ** comb(n - 2, d)


def adin(sizes):
    """Top-dimensional tree count of the complete colorful complex K_{n_1,...,n_r}.

    prod_i n_i ^ (prod_{j != i} (n_j - 1)).
    """
    return prod(
        n ** prod(m - 1 for j, m in enumerate(sizes) if j != i) for i, n in enumerate(sizes)
    )


def hypercube_skeleton(n, k):
    """k-tree count of the n-cube: prod_{j > k} (2j)^(C(n, j) C(j-2, k-1))."""
    return prod((2 * j) ** (comb(n, j) * comb(j - 2, k - 1)) for j in range(k + 1, n + 1))


def simplex_rooted_poly(n, d):
    """Ascending coefficients of det(L + zI) on the (d-1)-faces of K_n^d.

    The Laplacian has eigenvalue 0 with multiplicity C(n-1, d-1) and n with
    multiplicity C(n-1, d), so det(L + zI) = z^C(n-1,d-1) (z + n)^C(n-1,d).
    """
    low, high = comb(n - 1, d - 1), comb(n - 1, d)
    return tuple([0] * low + [comb(high, j) * n ** (high - j) for j in range(high + 1)])


def cayley_forests(n):
    """Spanning trees of the complete graph K_n: n^(n-2)."""
    return n ** (n - 2)


def labelled_rp2_count():
    """Six-vertex triangulations of RP^2 on labelled vertices: 6!/|A_5| = 12."""
    return factorial(6) // (factorial(5) // 2)


def simplex_betti(n, d, k):
    """Reduced Betti number beta_k of K_n^d: C(n-1, d+1) at the top, 0 below."""
    return comb(n - 1, d + 1) if k == d else 0


def colorful_betti(sizes, k):
    """Reduced Betti number of the complete colorful complex (shellable, so top only)."""
    return prod(n - 1 for n in sizes) if k == len(sizes) - 1 else 0


def hypercube_skeleton_betti(n, top, k):
    """Reduced Betti number beta_k of the top-skeleton of the n-cube.

    The cube is contractible, so only the top skeleton dimension carries
    homology; its rank is read off the reduced Euler characteristic
    sum_{j=-1}^{top} (-1)^j f_j with f_j = C(n, j) 2^(n-j) and f_{-1} = 1.
    """
    if k != top:
        return 0
    euler = -1 + sum((-1) ** j * comb(n, j) * 2 ** (n - j) for j in range(top + 1))
    return (-1) ** top * euler
