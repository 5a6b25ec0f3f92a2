import random
from fractions import Fraction
from itertools import combinations

import pytest

from cellforest.linalg import (
    Matrix,
    char_poly,
    column_lattice_basis,
    covolume_squared,
    det,
    greedy_column_basis,
    invariant_factors,
    kernel_lattice_basis,
    lattice_quotient_order,
    pseudodet,
    rank,
    saturation_basis,
    smith_normal_form,
    solve_matrix,
    torsion_order,
)

from frozen import lattice_quotient_order_by_gauss_jordan, solve_by_gauss_jordan

# boundary of the triangle graph on vertices 1,2,3 with edges 12,13,23
D1_K3 = Matrix([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
L0_K3 = Matrix([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])


def cofactor_det(M):
    """Independent determinant oracle: recursive cofactor expansion."""
    n = M.nrows
    if n == 0:
        return 1
    if n == 1:
        return M[0, 0]
    total = 0
    rest = list(range(1, n))
    for j in range(n):
        cols = [c for c in range(n) if c != j]
        minor = M.submatrix(rest, cols)
        term = M[0, j] * cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def rank_by_minors(M):
    """Independent rank oracle: largest size of a nonvanishing minor."""
    best = 0
    for r in range(1, min(M.shape) + 1):
        found = False
        for rows in combinations(range(M.nrows), r):
            for cols in combinations(range(M.ncols), r):
                if cofactor_det(M.submatrix(rows, cols)) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = r
    return best


class TestMatrix:
    def test_empty_shapes(self):
        z = Matrix.zeros(0, 3)
        assert z.shape == (0, 3)
        assert z.transpose().shape == (3, 0)
        assert Matrix.from_columns([], nrows=2).shape == (2, 0)

    def test_product_and_canonical_fractions(self):
        a = Matrix([[Fraction(1, 2), 1], [0, 2]])
        b = Matrix([[2, 0], [1, 1]])
        assert a * b == Matrix([[2, 1], [2, 2]])
        assert (a * b).is_integral

    @pytest.mark.parametrize("m, inner, n", [(2, 0, 3), (0, 2, 3), (0, 0, 0)])
    def test_product_with_an_empty_shape(self, m, inner, n):
        # a factor with no rows still has ncols (empty) columns, so each product is a zero matrix
        a = Matrix([[1] * inner for _ in range(m)], ncols=inner)
        b = Matrix([[1] * n for _ in range(inner)], ncols=n)
        assert a * b == Matrix.zeros(m, n)

    def test_submatrix(self):
        m = Matrix([[1, 2, 3], [4, 5, 6]])
        assert m.submatrix([1], [0, 2]) == Matrix([[4, 6]])


class TestRank:
    def test_identity(self):
        assert rank(Matrix.identity(2)) == 2

    def test_zero(self):
        assert rank(Matrix.zeros(3, 4)) == 0

    def test_triangle_boundary(self):
        # oracle: brute force over minors
        assert rank_by_minors(D1_K3) == 2
        assert rank(D1_K3) == 2

    def test_random_against_minors(self):
        rng = random.Random(7)
        for _ in range(40):
            m = rng.randrange(1, 5)
            n = rng.randrange(1, 5)
            M = Matrix([[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)])
            assert rank(M) == rank_by_minors(M)

    def test_rational_entries(self):
        M = Matrix([[Fraction(1, 3), Fraction(2, 3)], [Fraction(1, 2), 1]])
        assert rank(M) == rank_by_minors(M)


class TestDet:
    def test_one_by_one(self):
        assert det(Matrix([[1]])) == 1

    def test_reduced_laplacian_k3(self):
        assert det(Matrix([[2, -1], [-1, 2]])) == 3

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det(Matrix.zeros(2, 3))

    def test_cofactor_agreement_hundred_samples(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randrange(1, 5)
            M = Matrix([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)])
            assert det(M) == cofactor_det(M)

    def test_rational_determinant(self):
        M = Matrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]])
        assert det(M) == cofactor_det(M) == Fraction(1, 10) - Fraction(1, 12)


class TestCharPoly:
    def test_zero_matrix(self):
        assert char_poly(Matrix.zeros(2, 2)).coeffs == (0, 0, 1)

    def test_one_by_one(self):
        assert char_poly(Matrix([[5]])).coeffs == (-5, 1)

    def test_k3_laplacian_hand_expansion(self):
        # det(zI - L) expanded by hand: z^3 - 6z^2 + 9z
        assert char_poly(L0_K3).coeffs == (0, 9, -6, 1)

    def test_matches_determinant_at_points(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randrange(1, 5)
            M = Matrix([[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)])
            cp = char_poly(M)
            for z in (0, 1, -2, 7):
                zI = Matrix.diagonal([z] * n)
                assert cp(z) == cofactor_det(zI - M)

    def test_rational_rescaling(self):
        M = Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
        cp = char_poly(M)
        assert cp.coeffs == (Fraction(1, 6), Fraction(-5, 6), 1)


class TestPseudodet:
    def test_k3_laplacian(self):
        assert pseudodet(L0_K3) == 9

    def test_identity(self):
        assert pseudodet(Matrix.identity(4)) == 1

    def test_zero_matrix_empty_product(self):
        assert pseudodet(Matrix.zeros(3, 3)) == 1

    def test_complete_graph_spectra(self):
        # L0(K_n) has eigenvalue n with multiplicity n-1
        for n in range(2, 13):
            L = Matrix([[n - 1 if i == j else -1 for j in range(n)] for i in range(n)])
            assert pseudodet(L) == n ** (n - 1)


class TestSmithNormalForm:
    def test_single_entry(self):
        assert smith_normal_form(Matrix([[2]])).invariant_factors == (2,)

    def test_identity(self):
        assert smith_normal_form(Matrix.identity(2)).invariant_factors == (1, 1)

    def test_divisibility_normalization(self):
        # [[2,0],[0,3]] -> 1 | 6, checkable by unimodular ops by hand
        assert smith_normal_form(Matrix([[2, 0], [0, 3]])).invariant_factors == (1, 6)

    def test_reconstruction_and_unimodularity(self):
        rng = random.Random(99)
        for _ in range(60):
            m = rng.randrange(1, 5)
            n = rng.randrange(1, 5)
            M = Matrix([[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)])
            res = smith_normal_form(M)
            assert res.left * M * res.right == res.diagonal_matrix(m, n)
            assert abs(cofactor_det(res.left)) == 1
            assert abs(cofactor_det(res.right)) == 1
            fs = res.invariant_factors
            assert all(f > 0 for f in fs)
            assert all(fs[i + 1] % fs[i] == 0 for i in range(len(fs) - 1))
            assert len(fs) == rank_by_minors(M)
            assert invariant_factors(M) == fs

    def test_torsion_order(self):
        assert torsion_order(Matrix([[2, 0], [0, 3]])) == 6
        assert torsion_order(Matrix.identity(3)) == 1


class TestLattices:
    def test_covolume_identity(self):
        assert covolume_squared(Matrix.identity(3)) == 1

    def test_covolume_doubled_line(self):
        assert covolume_squared(Matrix([[2]])) == 4

    def test_covolume_image_of_triangle_boundary(self):
        # Gram determinant of any 2-column basis of im d1(K3) is 3
        basis = D1_K3.submatrix(range(3), greedy_column_basis(D1_K3))
        assert covolume_squared(basis) == 3
        hb = column_lattice_basis(D1_K3)
        assert covolume_squared(hb) == 3

    def test_covolume_rejects_dependent(self):
        with pytest.raises(ValueError):
            covolume_squared(Matrix([[1, 2], [2, 4]]))

    def test_covolume_unimodular_invariance(self):
        rng = random.Random(31)
        A = Matrix([[1, 0], [2, 3], [0, 1]])
        g = covolume_squared(A)
        for _ in range(20):
            # random unimodular 2x2 via elementary ops
            U = Matrix.identity(2)
            for _ in range(4):
                a = rng.choice([-2, -1, 1, 2])
                E = Matrix([[1, a], [0, 1]]) if rng.random() < 0.5 else Matrix([[1, 0], [a, 1]])
                U = U * E
            assert covolume_squared(A * U) == g

    def test_hermite_identity(self):
        assert column_lattice_basis(Matrix.identity(3)) == Matrix.identity(3)

    def test_hermite_gcd_lattice(self):
        assert column_lattice_basis(Matrix([[2, 4]])) == Matrix([[2]])

    def test_hermite_drops_dependent_columns(self):
        from cellforest.families import named_complex

        b2 = named_complex("bipyramid").boundaries[2]
        assert b2.ncols == 7
        assert column_lattice_basis(b2).ncols == 5

    def test_hermite_spans_same_lattice(self):
        rng = random.Random(12)
        for _ in range(30):
            m = rng.randrange(1, 4)
            n = rng.randrange(1, 5)
            A = Matrix([[rng.randrange(-5, 6) for _ in range(n)] for _ in range(m)])
            H = column_lattice_basis(A)
            assert rank(H) == H.ncols == rank(A)
            # each generator lies in each lattice: quotient orders are 1 both ways
            if H.ncols:
                assert lattice_quotient_order_by_gauss_jordan(H, A) in (1, None)
                cols_a = [A.column(j) for j in range(A.ncols) if any(A.column(j))]
                if cols_a:
                    Anz = Matrix.from_columns(cols_a, nrows=m)
                    coords = solve_by_gauss_jordan(H, Anz)
                    assert coords.is_integral

    def test_kernel_basis(self):
        K = kernel_lattice_basis(D1_K3)
        assert K.ncols == 1
        col = K.column(0)
        assert sorted(abs(x) for x in col) == [1, 1, 1]
        assert (D1_K3 * K).is_zero

    def test_kernel_of_empty_map(self):
        K = kernel_lattice_basis(Matrix.zeros(0, 3))
        assert K == Matrix.identity(3)

    def test_saturation(self):
        # span of (2,0) and (0,2) saturates to Z^2
        S = saturation_basis(Matrix([[2, 0], [0, 2]]))
        assert abs(det(S)) == 1
        # span of (1,1) saturates to itself
        S2 = saturation_basis(Matrix([[1], [1]]))
        assert S2.ncols == 1
        assert sorted(abs(x) for x in S2.column(0)) == [1, 1]
        # span of (2,2) also saturates to the (1,1) line
        S3 = saturation_basis(Matrix([[2], [2]]))
        assert sorted(abs(x) for x in S3.column(0)) == [1, 1]

    def test_quotient_orders(self):
        assert lattice_quotient_order(Matrix.identity(2), Matrix.identity(2).scale(2)) == 4
        assert lattice_quotient_order(Matrix.identity(1), Matrix.zeros(1, 0)) is None
        # kernel of the projective plane's degree-1 map modulo twice itself
        assert lattice_quotient_order(Matrix([[1]]), Matrix([[2]])) == 2

    def test_quotient_rejects_outside_span(self):
        with pytest.raises(ValueError):
            lattice_quotient_order(Matrix([[1], [0]]), Matrix([[0], [1]]))


class TestSolve:
    def test_exact_solution(self):
        A = Matrix([[2, 0], [0, 3], [1, 1]])
        X = Matrix([[1, -2], [0, 4]])
        B = A * X
        assert solve_matrix(A, B) == X

    def test_inconsistent(self):
        A = Matrix([[1], [1]])
        with pytest.raises(ValueError):
            solve_matrix(A, Matrix([[1], [2]]))
