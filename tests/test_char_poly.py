"""Differential corpus: the multimodular ``char_poly`` against frozen Faddeev-LeVerrier
and against the frozen common-denominator multimodular routine."""

import random
from fractions import Fraction

import pytest

import frozen
from cellforest import linalg
from cellforest.complexes import weighted_laplacian, weighted_laplacian_similar
from cellforest.families import complete_colorful, hypercube_complex, named_complex
from cellforest.linalg import Matrix, _is_prime, _prime, char_poly
from cellforest.matrix_forest import tau_pseudodet

from corpus import (
    SEED,
    low_rank_psd,
    random_integer,
    random_pure_2_complexes,
    random_rational,
    random_weights,
)
from frozen import char_poly_common_denominator, faddeev_leverrier


def agrees(M):
    got = char_poly(M).coeffs
    want = faddeev_leverrier(M)
    # same values and the same exact types (int where integral, else Fraction)
    return got == want and [type(c) for c in got] == [type(c) for c in want]


def test_empty_and_one_by_one():
    assert agrees(Matrix([], ncols=0))
    for x in (0, 1, -7, Fraction(3, 4), 10 ** 40):
        assert agrees(Matrix([[x]]))


def row_scaled(rng, n):
    """An integer matrix with each row divided by its own denominator, so the
    row lcms differ and their product is far below the common lcm to the n."""
    dens = [rng.choice((1, 2, 3, 5, 7, 11, 13, 17, 19, 23)) for _ in range(n)]
    return Matrix([[Fraction(rng.randint(-9, 9), q) for _ in range(n)] for q in dens])


@pytest.mark.parametrize("kind", [random_integer, random_rational, low_rank_psd, row_scaled])
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
        w = random_weights(rng, X)
        for k in range(X.dim + 1):
            assert agrees(weighted_laplacian_similar(X, k, w))


WEIGHTED = {
    **{f"random pure 2-complex {i}": X for i, X in enumerate(random_pure_2_complexes(random.Random(SEED), 3))},
    "rp2_six_vertex": named_complex("rp2_six_vertex"),
    "Q_3": hypercube_complex(3),
    "colorful 2,2,2,2": complete_colorful(2, 2, 2, 2).to_chain_complex(),
}


@pytest.mark.parametrize("X", WEIGHTED.values(), ids=WEIGHTED.keys())
def test_weighted_laplacians_match_the_common_denominator_routine(X):
    w = random_weights(random.Random(SEED), X)
    for laplacian in (weighted_laplacian, weighted_laplacian_similar):
        for k in range(X.dim + 1):
            L = laplacian(X, k, w)
            got = char_poly(L).coeffs
            want = char_poly_common_denominator(L).coeffs
            assert got == want
            assert [type(c) for c in got] == [type(c) for c in want]


def primes_used(monkeypatch, module, M, routine):
    """The primes, in order, for which ``routine(M)`` reduces a matrix mod p."""
    seen = []
    inner = module._hessenberg_char_poly_mod

    def counting(N, p):
        seen.append(p)
        return inner(N, p)

    with monkeypatch.context() as m:
        m.setattr(module, "_hessenberg_char_poly_mod", counting)
        routine(M)
    return seen


def test_a_prime_dividing_a_denominator_is_skipped(monkeypatch):
    p = _prime(0)
    for M in (
        Matrix([[Fraction(1, p), 2], [3, 4]]),
        Matrix([[1, Fraction(5, 3 * p), 0], [2, 1, Fraction(1, 2)], [0, 7, Fraction(-1, p)]]),
    ):
        seen = primes_used(monkeypatch, linalg, M, char_poly)
        assert p not in seen and seen[0] == _prime(1)
        assert agrees(M)


def test_integer_matrices_take_the_same_primes_as_before(monkeypatch):
    rng = random.Random(SEED)
    for M in [random_integer(rng, n) for n in range(1, 8)] + [random_integer(rng, 6, -10 ** 25, 10 ** 25)]:
        assert primes_used(monkeypatch, linalg, M, char_poly) == primes_used(
            monkeypatch, frozen, M, char_poly_common_denominator
        )


def test_colorful_2222_similar_laplacians_need_at_most_7_primes(monkeypatch):
    # the benchmark's spectral workload draws these weights with seed 1; with
    # one common denominator the 32 x 32 level took 21 primes
    X = complete_colorful(2, 2, 2, 2).to_chain_complex()
    w = random_weights(random.Random(1), X)
    for k in range(X.dim + 1):
        assert len(primes_used(monkeypatch, linalg, weighted_laplacian_similar(X, k, w), char_poly)) <= 7


def test_pseudodet_route_reaches_char_poly(monkeypatch):
    X = complete_colorful(2, 2, 2).to_chain_complex()
    w = random_weights(random.Random(SEED), X)
    calls = []
    inner = linalg.char_poly

    def counting(M):
        calls.append(M.shape)
        return inner(M)

    monkeypatch.setattr(linalg, "char_poly", counting)
    tau_pseudodet(X)
    tau_pseudodet(X, weights=w)
    assert len(calls) == 2 * (X.dim + 1)


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
