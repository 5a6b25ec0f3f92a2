"""Differential corpus: the multimodular ``char_poly`` against frozen Faddeev-LeVerrier
and against the frozen common-denominator multimodular routine, which takes
62-bit primes where ``char_poly`` takes Mersenne primes."""

import math
import random
from fractions import Fraction

import pytest

import frozen
from cellforest import linalg
from cellforest.complexes import weighted_laplacian, weighted_laplacian_similar
from cellforest.families import complete_colorful, hypercube_complex, named_complex
from cellforest.linalg import _MERSENNE_EXPONENTS, Matrix, char_poly
from cellforest.matrix_forest import tau_pseudodet

from corpus import (
    SEED,
    low_rank_psd,
    random_integer,
    random_pure_2_complexes,
    random_rational,
    random_weights,
)
from frozen import _is_prime, _prime, char_poly_common_denominator, faddeev_leverrier

M61 = 2 ** 61 - 1
M4423 = 2 ** 4423 - 1


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


def exponents_used(monkeypatch, M):
    """The exponents e, in order, of the moduli 2^e - 1 that ``char_poly(M)`` takes."""
    return [p.bit_length() for p in primes_used(monkeypatch, linalg, M, char_poly)]


def test_a_prime_dividing_a_denominator_is_skipped(monkeypatch):
    # a denominator divisible by 2^61 - 1 puts the bound past 60 bits
    for M, exponents in (
        (Matrix([[Fraction(1, M61), 2], [3, 4]]), [89]),
        (Matrix([[1, Fraction(5, 3 * M61), 0], [2, 1, Fraction(1, 2)], [0, 7, Fraction(-1, M61)]]), [521]),
    ):
        assert exponents_used(monkeypatch, M) == exponents
        assert agrees(M)
    # the bound passes 4423 bits, so the moduli go from 4423 bits down, and the
    # one that divides the denominator is passed over for the next
    M = Matrix([[Fraction(1, M4423)]])
    assert exponents_used(monkeypatch, M) == [4253, 3217]
    assert agrees(M)
    # 2^89 - 1 ... 2^4423 - 1 fall short of twice the 19120-bit bound and
    # 2^61 - 1 divides the denominator, so the next modulus is 2^9689 - 1
    M = Matrix([[Fraction(2 ** 19119 + 1, M61)]])
    assert exponents_used(monkeypatch, M) == [4423, 4253, 3217, 2281, 2203, 1279, 607, 521, 127, 107, 89, 9689]
    assert agrees(M)


def test_moduli_chosen_for_a_few_bounds(monkeypatch):
    # B is the Hadamard bound (1 + |x|) of a 1 x 1 integer matrix [x]; the
    # first listed modulus of at most 4423 bits above 2B is taken alone, and
    # failing that they go from 4423 bits down
    for x, exponents in (
        (0, [61]),
        (1, [61]),
        (2 ** 59, [61]),
        (2 ** 60, [89]),
        (2 ** 125, [127]),
        (2 ** 126, [521]),
        (2 ** 4421, [4423]),
        (2 ** 4422, [4423, 4253]),
        (10 ** 2000, [4423, 4253]),
        (10 ** 3000, [4423, 4253, 3217]),
        (10 ** 4000, [4423, 4253, 3217, 2281]),
    ):
        M = Matrix([[x]])
        assert exponents_used(monkeypatch, M) == exponents, x
        assert agrees(M)


def test_colorful_2222_similar_laplacians_need_one_modulus_per_level(monkeypatch):
    # the benchmark's spectral workload draws these weights with seed 1
    X = complete_colorful(2, 2, 2, 2).to_chain_complex()
    w = random_weights(random.Random(1), X)
    levels = [exponents_used(monkeypatch, weighted_laplacian_similar(X, k, w)) for k in range(X.dim + 1)]
    assert levels == [[61], [521], [521], [521]]


def test_moduli_beyond_4423_bits(monkeypatch):
    # the twelve moduli of at most 4423 bits have 19168 bits together
    rng = random.Random(SEED)
    near = [[10 ** 2000 + rng.randint(-10 ** 6, 10 ** 6) for _ in range(3)] for _ in range(3)]
    for M in (Matrix([[10 ** 6000]]), Matrix([[-(10 ** 6000)]]), Matrix(near)):
        exponents = exponents_used(monkeypatch, M)
        assert exponents[:12] == sorted(e for e in _MERSENNE_EXPONENTS if e <= 4423)[::-1]
        assert exponents[12:] == [9689]
        assert agrees(M)


def test_a_bound_beyond_the_listed_moduli_is_refused(monkeypatch):
    monkeypatch.setattr(linalg, "_MERSENNE_EXPONENTS", (61, 89))
    assert char_poly(Matrix([[2 ** 148]])).coeffs == (-(2 ** 148), 1)
    with pytest.raises(ValueError, match="151 bits exceeds the listed Mersenne primes"):
        char_poly(Matrix([[2 ** 150]]))


def lucas_lehmer(e):
    """Whether 2^e - 1 is prime, for an odd prime e (Lehmer, Ann. of Math. 1930)."""
    m = (1 << e) - 1
    s = 4
    for _ in range(e - 2):
        s = (s * s - 2) % m
    return s == 0


def test_listed_exponents_give_proven_primes():
    assert list(_MERSENNE_EXPONENTS) == sorted(set(_MERSENNE_EXPONENTS))
    assert _MERSENNE_EXPONENTS[0] == 61
    # every exponent of a Mersenne prime is prime itself
    assert all(all(e % q for q in range(2, math.isqrt(e) + 1)) for e in _MERSENNE_EXPONENTS)
    assert all(lucas_lehmer(e) for e in _MERSENNE_EXPONENTS if e <= 4423)
    # 2^67 - 1 = 193707721 * 761838257287 and 2^11 - 1 = 23 * 89
    assert not lucas_lehmer(67)
    assert not lucas_lehmer(11)
    assert [e for e in range(3, 128, 2) if lucas_lehmer(e)] == [3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127]


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
    assert max(abs(c) for c in faddeev_leverrier(M)) > M61 ** 3
    assert agrees(M)


def test_pivot_vanishing_mod_the_first_prime(monkeypatch):
    # the subdiagonal pivot of the first column is p, zero mod p: with a
    # zero below it the column is skipped, otherwise rows and columns swap;
    # an entry p puts the bound past 4423 bits when p = 2^4423 - 1, so that
    # is the first modulus
    for p in (M61, M4423):
        for M in (
            Matrix([[1, 2, 3], [p, 4, 5], [0, 6, 7]]),
            Matrix([[1, 2, 3, 4], [p, 4, 5, 6], [0, 6, 7, 8], [0, 0, 2 * p, 9]]),
            Matrix([[1, 2, 3], [p, 4, 5], [7, 6, 7]]),
        ):
            assert agrees(M)
            if p == M4423:
                # agrees(M) has memoized M's polynomial, so an equal fresh matrix
                assert primes_used(monkeypatch, linalg, Matrix(M.data), char_poly)[0] == p
    assert agrees(Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 5]]))


def test_primes_are_proven_and_below_2_to_62():
    # the frozen routine's own moduli
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
