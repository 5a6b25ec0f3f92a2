"""Lattice Gram invariants on the smaller side of a basis with unit pivot rows.

``linalg._lattice_gram`` returns I + X X^T on the n - r rows X off the pivot
rows when B is integral, its pivot rows form an identity block and n - r < r;
otherwise B^T B.  ``covolume_squared`` takes its det and
``critical.discriminant_group`` its cokernel.  These tests compare both with
the frozen Gram routes on Hermite, cut and flow bases of the corpus, on
seeded random bases of every shape, and on bases where the side rule must
not apply.
"""

import random
from fractions import Fraction

from cellforest.complexes import boundary_matrix
from cellforest.critical import discriminant_group
from cellforest.families import named_complex
from cellforest.linalg import Matrix, _lattice_gram, column_lattice_basis, covolume_squared, kernel_lattice_basis

from corpus import CORPUS, SEED, unimodular
from frozen import covolume_squared_by_gram, discriminant_group_by_gram


def outcome(f, B):
    """The value and its type, or the ValueError's text."""
    try:
        value = f(B)
    except ValueError as exc:
        return ("raised", str(exc))
    return ("value", value, type(value))


def side(B):
    """The side of B's Gram matrix: "r" for B^T B, else "n-r" (the rows off the pivot rows)."""
    return "r" if _lattice_gram(B) == B.transpose() * B else "n-r"


def check(bases):
    """Both invariants of every basis agree with the frozen Gram routes;
    returns the list of sides taken."""
    sides = []
    for B in bases:
        assert outcome(covolume_squared, B) == outcome(covolume_squared_by_gram, B), B.data
        assert outcome(discriminant_group, B) == outcome(discriminant_group_by_gram, B), B.data
        sides.append(side(B))
    return sides


def unit_pivot_basis(rng, n, r, entry=lambda rng: rng.randint(-3, 3)):
    """An n x r basis with row p_j = e_j for r random rows p_j in random order,
    and ``entry`` values in the other rows, zero in column j above p_j, so
    that p_j is the first nonzero row of column j."""
    pivots = rng.sample(range(n), r)
    at = {p: j for j, p in enumerate(pivots)}
    rows = []
    for i in range(n):
        if i in at:
            rows.append([int(j == at[i]) for j in range(r)])
        else:
            rows.append([entry(rng) if pivots[j] < i else 0 for j in range(r)])
    return Matrix(rows, ncols=r)


def shapes(rng, count, relation, least=1):
    """``count`` shapes (n, r), r >= ``least``, with n - r below, above or equal to r."""
    out = []
    for _ in range(count):
        r = rng.randint(least, 6)
        q = {"below": rng.randint(0, r - 1), "above": rng.randint(r + 1, 9), "equal": r}[relation]
        out.append((r + q, r))
    return out


def test_corpus_bases_match_the_gram_route_on_both_sides():
    bases = []
    for X in CORPUS:
        for k in range(1, X.dim + 1):
            b = boundary_matrix(X, k)
            bases += [column_lattice_basis(b), column_lattice_basis(b.transpose()), kernel_lattice_basis(b)]
    sides = check(bases)
    assert "n-r" in sides and "r" in sides


def test_random_unit_pivot_bases_take_the_smaller_side():
    rng = random.Random(SEED)
    for relation, want in (("below", "n-r"), ("above", "r"), ("equal", "r")):
        bases = [unit_pivot_basis(rng, n, r) for n, r in shapes(rng, 40, relation)]
        assert set(check(bases)) == {want}, relation


def test_bases_without_an_identity_block_keep_the_gram_route():
    rng = random.Random(SEED + 1)
    # the Hermite image basis of d_2 on RP^2: 15 x 10, one pivot of 2
    rp2 = column_lattice_basis(boundary_matrix(named_complex("rp2_six_vertex"), 2))
    assert any(x == 2 for row in rp2.data for x in row)
    # unit-pivot lattices under a unimodular change of basis, and with their
    # rows shuffled so that other rows may lead a column
    changed, shuffled = [rp2], []
    for n, r in shapes(rng, 40, "below", least=2):
        B = unit_pivot_basis(rng, n, r)
        changed.append(B * unimodular(rng, r))
        shuffled.append(Matrix(rng.sample(B.data, n), ncols=r))
    assert all(B.nrows - B.ncols < B.ncols for B in changed + shuffled)
    assert set(check(changed)) == {"r"}
    assert set(check(shuffled)) == {"n-r", "r"}


def test_degenerate_bases_match_the_gram_route():
    bases = [
        Matrix.zeros(3, 0),
        Matrix.zeros(0, 0),
        Matrix([[1, 0], [0, 0], [2, 0]]),  # a zero column
        Matrix([[1, 1], [0, 0], [2, 2]]),  # a repeated column
        Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
        Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1], [4, 5, 6]]),
    ]
    assert check(bases) == ["r"] * 4 + ["n-r"] * 2
    assert outcome(covolume_squared, bases[2]) == ("raised", "columns are linearly dependent")


def test_rational_basis_keeps_the_gram_route():
    rng = random.Random(SEED + 2)

    def entry(rng):
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    bases = [Matrix([[1, 0], [0, 1], [Fraction(1, 2), Fraction(1, 3)]])]
    bases += [unit_pivot_basis(rng, n, r, entry) for n, r in shapes(rng, 20, "below")]
    for B in bases:
        if B.is_integral:
            continue
        G = B.transpose() * B
        assert _lattice_gram(B) == G
        assert outcome(covolume_squared, B) == outcome(covolume_squared_by_gram, B)
        want = outcome(discriminant_group_by_gram, B)
        assert outcome(discriminant_group, B) == want
        if not G.is_integral:
            assert want == ("raised", "invariant factors require an integer matrix")
    assert outcome(covolume_squared, bases[0])[1:] == (Fraction(49, 36), Fraction)
