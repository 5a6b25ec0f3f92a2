"""Cross-cutting invariants: every structural property checked on a fleet of
instances rather than a single example."""

import random
from itertools import combinations
from math import comb, prod

from cellforest.complexes import (
    ChainComplex,
    boundary_matrix,
    from_facets,
    laplacian,
)
from cellforest.families import (
    complete_colorful,
    graphic_matroid,
    hypercube_complex,
    matroid_complex,
    named_complex,
    shifted_complex,
    simplex_skeleton,
    uniform_matroid,
)
from cellforest.homology import betti, torsion
from cellforest.linalg import (
    Matrix,
    char_poly,
    invariant_factors,
    kernel_lattice_basis,
    rank,
    smith_normal_form,
)
from cellforest.oracle import enumerate_forests, tau_bruteforce

from frozen import solve_by_gauss_jordan


def family_instances():
    return [
        ("k3", simplex_skeleton(3, 1).to_chain_complex()),
        ("k4", simplex_skeleton(4, 1).to_chain_complex()),
        ("c4", from_facets(4, [{1, 2}, {2, 3}, {3, 4}, {1, 4}]).to_chain_complex()),
        ("delta-4-2", simplex_skeleton(4, 2).to_chain_complex()),
        ("delta-5-2", simplex_skeleton(5, 2).to_chain_complex()),
        ("colorful-2-2-2", complete_colorful(2, 2, 2).to_chain_complex()),
        ("colorful-2-2-3", complete_colorful(2, 2, 3).to_chain_complex()),
        ("bipyramid", named_complex("bipyramid")),
        ("rp2-cell", named_complex("rp2_cell")),
        ("rp2-six", named_complex("rp2_six_vertex")),
        ("moebius", named_complex("moebius")),
        ("annulus", named_complex("annulus")),
        ("q3", hypercube_complex(3)),
        ("shifted-235", shifted_complex(5, [(2, 3, 5)]).to_chain_complex()),
    ]


class TestBoundaryComposition:
    def test_everywhere(self):
        for name, X in family_instances():
            for k in range(1, X.dim + 1):
                product = boundary_matrix(X, k - 1) * boundary_matrix(X, k)
                assert product.is_zero, name


class TestSpectraAdjacency:
    def test_up_down_matches_down_up_above(self):
        for name, X in family_instances():
            if sum(X.n_cells(k) for k in range(X.dim + 1)) > 60:
                continue
            for k in range(-1, X.dim):
                up = char_poly(laplacian(X, k, "ud"))
                down = char_poly(laplacian(X, k + 1, "du"))
                assert up.strip_zero_roots() == down.strip_zero_roots(), (name, k)

    def test_total_spectrum_is_multiset_union(self):
        # char(tot) * z^n == char(ud) * char(du), since ud and du annihilate
        # each other and so are simultaneously diagonalizable
        for name, X in (("bipyramid", named_complex("bipyramid")), ("q3", hypercube_complex(3))):
            for k in range(X.dim):
                tot = char_poly(laplacian(X, k, "tot")).coeffs
                ud = char_poly(laplacian(X, k, "ud")).coeffs
                du = char_poly(laplacian(X, k, "du")).coeffs
                left = _poly_mul(tot, _monomial(len(ud) - 1))
                right = _poly_mul(ud, du)
                assert left == right, (name, k)


def _monomial(degree):
    return (0,) * degree + (1,)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


class TestForestCharacterizations:
    def test_conditions_coincide(self):
        for name, X in family_instances():
            nd = X.n_cells(X.dim)
            if nd > 12:
                continue
            d = X.dim
            b = boundary_matrix(X, d)
            rank_top = rank(b)
            beta_d = betti(X, d)
            beta_d1 = betti(X, d - 1)
            assert nd - beta_d == rank_top
            below = boundary_matrix(X, d - 1)
            nullity_below = below.ncols - rank(below)
            ranks = {
                subset: rank(b.submatrix(range(b.nrows), subset))
                for size in range(nd + 1)
                for subset in combinations(range(nd), size)
            }
            for subset, r in ranks.items():
                size = len(subset)
                bd_t = size - r  # top Betti number of the spanning subcomplex
                bd1_t = nullity_below - r  # codim-1 Betti number
                cond_a = bd_t == 0 and bd1_t == beta_d1
                cond_b = bd1_t == beta_d1 and size == nd - beta_d
                cond_c = bd_t == 0 and size == nd - beta_d
                cond_e = bd_t == 0 and all(
                    len(sup) - ranks[sup] > 0
                    for f in range(nd)
                    if f not in subset
                    for sup in [tuple(sorted(subset + (f,)))]
                )
                cond_f = bd1_t == beta_d1 and all(
                    nullity_below - ranks[tuple(x for x in subset if x != f)] > beta_d1
                    for f in subset
                )
                cond_g = r == size == rank_top
                assert cond_a == cond_b == cond_c == cond_e == cond_f == cond_g, (
                    name,
                    subset,
                )


class TestTorsionDivisibility:
    def test_tree_torsion_is_multiple_of_ambient(self):
        # two disks glued to one loop with degrees 4 and 6: ambient torsion 2,
        # the two spanning trees carry torsion 4 and 6
        X = ChainComplex.create(
            (("v",), ("e",), ("d1", "d2")),
            (Matrix([[0]]), Matrix([[4, 6]])),
        )
        assert torsion(X, 1) == 2
        census = enumerate_forests(X)
        assert sorted(t for _, t in census.forests) == [4, 6]
        for _, t in census.forests:
            assert t % torsion(X, 1) == 0

    def test_named_instances(self):
        for name in ("rp2_six_vertex", "moebius", "annulus"):
            X = named_complex(name)
            t_x = torsion(X, X.dim - 1)
            for _, t in enumerate_forests(X).forests:
                assert t % t_x == 0, name

    def test_k62_census(self):
        X = simplex_skeleton(6, 2).to_chain_complex()
        t_x = torsion(X, 1)
        assert t_x == 1
        assert all(t % t_x == 0 for _, t in enumerate_forests(X).forests)


class TestTorsionTwoRoutes:
    def test_census_torsion_equals_kernel_quotient(self):
        # the column-Smith route against the kernel-lattice presentation of
        # codim-1 homology, on projective-plane trees inside the 2-skeleton
        # of the 6-vertex simplex
        X = simplex_skeleton(6, 2).to_chain_complex()
        b2 = boundary_matrix(X, 2)
        kernel = kernel_lattice_basis(boundary_matrix(X, 1))
        census = enumerate_forests(X)
        samples = [f for f, t in census.forests if t == 2][:4]
        samples += [f for f, t in census.forests if t == 1][:4]
        lookup = dict(census.forests)
        for facets in samples:
            cols = b2.submatrix(range(b2.nrows), facets)
            coords = solve_by_gauss_jordan(kernel, cols)
            assert coords.is_integral
            t = prod(f for f in invariant_factors(coords) if f > 1)
            assert t == lookup[facets]


class TestSmithReconstruction:
    def test_two_hundred_random_matrices(self):
        rng = random.Random(14)
        for _ in range(200):
            m = rng.randrange(1, 6)
            n = rng.randrange(1, 6)
            M = Matrix([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)])
            res = smith_normal_form(M)
            assert res.left * M * res.right == res.diagonal_matrix(m, n)
            fs = res.invariant_factors
            assert all(fs[i + 1] % fs[i] == 0 for i in range(len(fs) - 1))
            assert len(fs) == rank(M)


def _integer_root_multiplicities(L):
    """Integer spectrum of a PSD integer matrix via its char poly, or None.

    Eigenvalues of a positive-semidefinite matrix are bounded by the trace,
    so only roots 0..trace need trying.
    """
    cp = char_poly(L)
    bound = sum(L[i, i] for i in range(L.nrows))
    coeffs = list(cp.coeffs)
    roots = {}
    zeros = 0
    while len(coeffs) > 1 and coeffs[0] == 0:
        zeros += 1
        coeffs = coeffs[1:]
    if zeros:
        roots[0] = zeros
    while len(coeffs) > 1:
        for root in range(1, bound + 1):
            # synthetic division by (z - root)
            out = [0] * (len(coeffs) - 1)
            carry = coeffs[-1]
            for i in range(len(coeffs) - 2, -1, -1):
                out[i] = carry
                carry = coeffs[i] + root * carry
            if carry == 0:
                roots[root] = roots.get(root, 0) + 1
                coeffs = out
                break
        else:
            return None
    return roots


class TestLaplacianIntegrality:
    def test_shifted_spectrum_is_conjugate_degree_partition(self):
        for gens in ([(2, 3, 5)], [(3, 5)], [(2, 3, 4)], [(4, 5)]):
            n = max(v for g in gens for v in g)
            S = shifted_complex(n, gens)
            X = S.to_chain_complex()
            d = S.dim
            roots = _integer_root_multiplicities(laplacian(X, d - 1, "ud"))
            assert roots is not None, gens
            degrees = sorted(
                (sum(1 for f in S.facets if v in f) for v in range(1, n + 1)), reverse=True
            )
            degrees = [x for x in degrees if x]
            conjugate = [sum(1 for p in degrees if p >= j) for j in range(1, degrees[0] + 1)]
            spectrum = sorted(
                (r for r, m in roots.items() if r != 0 for _ in range(m)), reverse=True
            )
            assert spectrum == conjugate, gens

    def test_matroid_complexes_integral_and_apc(self):
        from cellforest.homology import is_z_apc

        cases = [
            uniform_matroid(2, 4),
            uniform_matroid(2, 5),
            graphic_matroid(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
            graphic_matroid(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]),
        ]
        for M in cases:
            X = matroid_complex(M).to_chain_complex()
            assert is_z_apc(X)
            for k in range(X.dim):
                assert _integer_root_multiplicities(laplacian(X, k, "ud")) is not None

    def test_hypercube_spectrum(self):
        for n in (1, 2, 3, 4):
            Q = hypercube_complex(n)
            for k in range(n):
                roots = _integer_root_multiplicities(laplacian(Q, k, "ud"))
                assert roots is not None
                for j in range(k + 1, n + 1):
                    assert roots.get(2 * j, 0) == comb(j - 1, k) * comb(n, j), (n, k, j)
                nonzero = sum(m for r, m in roots.items() if r)
                assert nonzero == sum(
                    comb(j - 1, k) * comb(n, j) for j in range(k + 1, n + 1)
                )


class TestCensusCardinality:
    def test_maximal_forest_size(self):
        for name, X in family_instances():
            if comb(X.n_cells(X.dim), rank(boundary_matrix(X, X.dim))) > 200000:
                continue
            census = enumerate_forests(X)
            expect = X.n_cells(X.dim) - betti(X, X.dim)
            assert all(len(f) == expect for f, _ in census.forests), name

    def test_graph_census_matches_determinant(self):
        from cellforest.matrix_forest import graph_matrix_tree

        for name, X in family_instances():
            if X.dim != 1:
                continue
            assert tau_bruteforce(X) == graph_matrix_tree(X).value, name
