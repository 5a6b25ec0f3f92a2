"""Differential corpus: the multimodular ``char_poly`` against frozen Faddeev-LeVerrier."""

import random
from fractions import Fraction

import pytest

from cellforest.complexes import WeightAssignment, weighted_laplacian_similar
from cellforest.families import complete_colorful, named_complex
from cellforest.linalg import Matrix, _is_prime, _prime, char_poly

from corpus import SEED, low_rank_psd, random_integer, random_rational
from frozen import faddeev_leverrier


def agrees(M):
    got = char_poly(M).coeffs
    want = faddeev_leverrier(M)
    # same values and the same exact types (int where integral, else Fraction)
    return got == want and [type(c) for c in got] == [type(c) for c in want]


def test_empty_and_one_by_one():
    assert agrees(Matrix([], ncols=0))
    for x in (0, 1, -7, Fraction(3, 4), 10 ** 40):
        assert agrees(Matrix([[x]]))


@pytest.mark.parametrize("kind", [random_integer, random_rational, low_rank_psd])
def test_seeded_corpus(kind):
    rng = random.Random(f"{SEED}-{kind.__name__}")
    for _ in range(80):
        assert agrees(kind(rng, rng.randint(2, 9)))


def test_non_symmetric_and_triangular():
    rng = random.Random(SEED)
    for n in range(2, 8):
        upper = Matrix([[rng.randint(-5, 5) if j >= i else 0 for j in range(n)] for i in range(n)])
        assert agrees(upper)
        assert agrees(upper.transpose())
        nilpotent = Matrix([[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)])
        assert agrees(nilpotent)


def test_similar_weighted_laplacians():
    rng = random.Random(SEED)
    for X in (named_complex("bipyramid"), complete_colorful(2, 2, 2).to_chain_complex()):
        w = WeightAssignment({
            (k, i): Fraction(rng.randint(1, 9), rng.randint(1, 9))
            for k in range(X.dim + 1) for i in range(X.n_cells(k))
        })
        for k in range(X.dim + 1):
            assert agrees(weighted_laplacian_similar(X, k, w))


def test_large_entries_need_several_primes():
    rng = random.Random(SEED)
    M = random_integer(rng, 6, -10 ** 25, 10 ** 25)
    assert max(abs(c) for c in faddeev_leverrier(M)) > _prime(0) ** 3
    assert agrees(M)


def test_pivot_vanishing_mod_the_first_prime():
    p = _prime(0)
    # the subdiagonal pivot of the first column is p, zero mod p: with a
    # zero below it the column is skipped, otherwise rows and columns swap
    assert agrees(Matrix([[1, 2, 3], [p, 4, 5], [0, 6, 7]]))
    assert agrees(Matrix([[1, 2, 3, 4], [p, 4, 5, 6], [0, 6, 7, 8], [0, 0, 2 * p, 9]]))
    assert agrees(Matrix([[1, 2, 3], [p, 4, 5], [7, 6, 7]]))
    assert agrees(Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 5]]))


def test_primes_are_proven_and_below_2_to_62():
    primes = [_prime(i) for i in range(4)]
    assert primes == sorted(set(primes), reverse=True)
    assert all(2 ** 61 < p < 2 ** 62 for p in primes)
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for i in range(2, 2000):
        if sieve[i]:
            for j in range(i * i, 2000, i):
                sieve[j] = False
    assert [n for n in range(2000) if _is_prime(n)] == [n for n in range(2000) if sieve[n]]
    # strong pseudoprimes to the first 4 and to the first 12 prime bases
    assert not _is_prime(3215031751)
    assert not _is_prime(318665857834031151167461)
