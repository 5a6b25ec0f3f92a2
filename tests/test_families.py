import random
from fractions import Fraction
from math import comb, prod

import pytest

from cellforest.complexes import WeightAssignment, boundary_matrix, skeleton
from cellforest.families import (
    binom_ext,
    colorful_tree_count,
    colorful_tree_count_weighted,
    colorful_vertex_weighting,
    complete_colorful,
    conjugate_partition,
    crapo_beta,
    ferrers_graph,
    ferrers_tree_count_weighted,
    ferrers_vertex_weighting,
    graphic_matroid,
    hypercube_complex,
    hypercube_edge_tree_count,
    hypercube_tree_count,
    hypercube_tree_count_weighted,
    hypercube_weights,
    matroid_complex,
    matroid_tree_count,
    named_complex,
    named_simplicial,
    shifted_complex,
    shifted_signatures,
    shifted_tree_count_weighted,
    simplex_skeleton,
    simplex_tree_count,
    simplex_tree_count_weighted,
    tutte_eval,
    tutte_polynomial,
    uniform_matroid,
)
from cellforest.homology import betti, homology, is_z_apc
from cellforest.matrix_forest import graph_matrix_tree, tau_alternating
from cellforest.oracle import tau_bruteforce, tau_weighted_bruteforce
from cellforest.verify import sample_fractions

RNG_SEED = 424242


class TestBinomialConvention:
    def test_values_forced_by_special_cases(self):
        assert binom_ext(-1, 0) == 1
        assert binom_ext(-1, -1) == 1
        assert binom_ext(0, -1) == 0
        assert binom_ext(0, 1) == 0
        assert binom_ext(4, 2) == comb(4, 2)


class TestSimplexSkeleton:
    def test_k4(self):
        assert simplex_skeleton(4, 1).facets == frozenset(
            frozenset(e) for e in ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))
        )

    def test_counts(self):
        assert simplex_tree_count(5, 2) == 125
        assert simplex_tree_count(6, 2) == 46656
        for n in range(3, 8):
            assert simplex_tree_count(n, 1) == n ** (n - 2)

    def test_weighted_at_ones_matches_unweighted(self):
        for n, d in ((4, 2), (5, 2), (5, 1)):
            assert simplex_tree_count_weighted(n, d, [1] * n) == simplex_tree_count(n, d)

    def test_bounds(self):
        with pytest.raises(ValueError):
            simplex_skeleton(3, 3)
        with pytest.raises(ValueError):
            simplex_skeleton(13, 2)


class TestColorful:
    def test_bipartite_special_case(self):
        for m, n in ((2, 3), (3, 3), (2, 4)):
            assert colorful_tree_count(1, (m, n)) == n ** (m - 1) * m ** (n - 1)

    def test_all_singletons_reduce_to_simplex(self):
        for r in (3, 4, 5):
            for k in range(r):
                assert colorful_tree_count(k, (1,) * r) == simplex_tree_count(r, k)

    def test_cross_polytope_display(self):
        # all color classes of size 2
        for r in (3, 4):
            for k in range(r):
                want = prod(
                    (2 * (r - m)) ** (comb(r, m) * binom_ext(r - 2 - m, k - m))
                    for m in range(0, k + 1)
                )
                assert colorful_tree_count(k, (2,) * r) == want

    def test_octahedron_values(self):
        assert colorful_tree_count(1, (2, 2, 2)) == 384
        assert colorful_tree_count(2, (2, 2, 2)) == 8

    def test_generator_facet_count(self):
        S = complete_colorful(2, 2, 3)
        assert len(S.facets) == 12
        assert is_z_apc(S.to_chain_complex())

    def test_weighted_reduces_at_ones(self):
        sizes = (2, 2, 2)
        v = {(j, t): 1 for j in (1, 2, 3) for t in (1, 2)}
        for k in range(3):
            assert colorful_tree_count_weighted(k, sizes, v) == colorful_tree_count(k, sizes)

    def test_weighted_vs_oracle(self):
        rng = random.Random(RNG_SEED)
        sizes = (2, 2, 2)
        S = complete_colorful(*sizes)
        X = S.to_chain_complex()
        for _ in range(2):
            v = {(j, t): Fraction(rng.randint(1, 20), rng.randint(1, 20)) for j in (1, 2, 3) for t in (1, 2)}
            w = colorful_vertex_weighting(S, sizes, v)
            for k in (1, 2):
                assert colorful_tree_count_weighted(k, sizes, v) == tau_weighted_bruteforce(X, k, w)

    def test_inexact_vertex_weight_rejected(self):
        # the weight of color 2's first vertex, which compiles to vertex 3
        v = {(j, t): 1 for j in (1, 2) for t in (1, 2)}
        v[(2, 1)] = 0.5
        with pytest.raises(ValueError, match="^weight of vertex 3 is not an int or a Fraction: 0.5$"):
            colorful_vertex_weighting(complete_colorful(2, 2), (2, 2), v)


class TestHypercube:
    def test_cell_counts(self):
        Q3 = hypercube_complex(3)
        assert [len(c) for c in Q3.cells] == [8, 12, 6, 1]

    def test_edge_count_display_matches_general_formula(self):
        for n in (1, 2, 3, 4):
            assert hypercube_edge_tree_count(n) == hypercube_tree_count(1, n)

    def test_named_values(self):
        assert hypercube_tree_count(1, 3) == 384
        assert hypercube_tree_count(2, 3) == 6

    def test_counts_vs_alternating(self):
        for n in (2, 3):
            Q = hypercube_complex(n)
            for k in range(1, n + 1):
                assert tau_alternating(skeleton(Q, k)).value == hypercube_tree_count(k, n)

    def test_weighted_at_ones(self):
        ones = [1, 1, 1]
        for k in (1, 2, 3):
            assert hypercube_tree_count_weighted(k, 3, ones, ones, ones) == hypercube_tree_count(k, 3)

    def test_weighted_vs_oracle_q2(self):
        rng = random.Random(RNG_SEED + 1)
        Q2 = hypercube_complex(2)
        q, x, y = (sample_fractions(rng, 2) for _ in range(3))
        w = hypercube_weights(2, q, x, y)
        for k in (1, 2):
            assert hypercube_tree_count_weighted(k, 2, q, x, y) == tau_weighted_bruteforce(Q2, k, w)

    def test_generation_cap(self):
        with pytest.raises(ValueError):
            hypercube_complex(6)


class TestShifted:
    def test_bipyramid_as_order_ideal(self):
        S = shifted_complex(5, [(2, 3, 5)])
        assert S.facets == named_simplicial("bipyramid").facets

    def test_rejects_impure(self):
        with pytest.raises(ValueError):
            shifted_complex(4, [(3,), (1, 2)])

    def test_signatures_of_threshold_graph(self):
        S = shifted_complex(3, [(2, 3)])
        sigs = shifted_signatures(S)
        assert sigs == (((2,), (1, 2, 3)),)

    def test_coarse_count_vs_matrix_tree(self):
        rng = random.Random(RNG_SEED + 2)
        S = shifted_complex(5, [(3, 5)])
        X = S.to_chain_complex()
        v = sample_fractions(rng, 5)
        got = shifted_tree_count_weighted(S, v)
        assert got == tau_weighted_bruteforce(X, 1, WeightAssignment.from_vertex_weights(S, v))
        assert shifted_tree_count_weighted(S, [1] * 5) == graph_matrix_tree(X).value

    def test_coarse_count_two_dimensional(self):
        rng = random.Random(RNG_SEED + 3)
        S = shifted_complex(5, [(2, 3, 5)])
        X = S.to_chain_complex()
        v = sample_fractions(rng, 5)
        w = WeightAssignment.from_vertex_weights(S, v)
        assert shifted_tree_count_weighted(S, v) == tau_weighted_bruteforce(X, 2, w)

    def test_betti_equals_facets_avoiding_vertex_one(self):
        for gens in ([(2, 3, 5)], [(3, 4, 5)], [(2, 4)]):
            n = max(v for g in gens for v in g)
            S = shifted_complex(n, gens)
            X = S.to_chain_complex()
            d = S.dim
            missing = sum(1 for f in S.facets if 1 not in f)
            assert betti(X, d) == missing


class TestFerrers:
    def test_conjugate(self):
        assert conjugate_partition((3, 2, 2)) == (3, 3, 1)
        with pytest.raises(ValueError):
            conjugate_partition((1, 2))

    def test_rectangle_is_complete_bipartite(self):
        G = ferrers_graph((3, 3))
        X = G.to_chain_complex()
        assert graph_matrix_tree(X).value == 3 ** 1 * 2 ** 2
        assert ferrers_tree_count_weighted((3, 3), [1, 1], [1, 1, 1]) == 12

    def test_single_box(self):
        assert ferrers_tree_count_weighted((1,), [Fraction(3)], [Fraction(5)]) == 15

    def test_weighted_vs_oracle(self):
        rng = random.Random(RNG_SEED + 4)
        for parts in ((2, 1), (3, 1, 1), (3, 2, 2)):
            G = ferrers_graph(parts)
            X = G.to_chain_complex()
            x = sample_fractions(rng, len(parts))
            y = sample_fractions(rng, parts[0])
            w = ferrers_vertex_weighting(G, parts, x, y)
            assert ferrers_tree_count_weighted(parts, x, y) == tau_weighted_bruteforce(X, 1, w)

    def test_inexact_vertex_weight_rejected(self):
        # rows are vertices 1 and 2, columns 3 and 4
        G = ferrers_graph((2, 1))
        with pytest.raises(ValueError, match="^weight of vertex 1 is not an int or a Fraction: 0.1$"):
            ferrers_vertex_weighting(G, (2, 1), [0.1, 1], [1, 1])
        with pytest.raises(ValueError, match="^weight of vertex 4 is not an int or a Fraction: True$"):
            ferrers_vertex_weighting(G, (2, 1), [1, 1], [1, True])


class TestMatroids:
    def test_tutte_k4(self):
        M = graphic_matroid(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
        T = tutte_polynomial(M)
        assert tutte_eval(T, 1, 1) == 16
        assert tutte_eval(T, 2, 1) == 38  # forests of K4

    def test_crapo_beta_uniform(self):
        assert crapo_beta(uniform_matroid(2, 4)) == comb(2, 1)
        assert crapo_beta(uniform_matroid(1, 3)) == 1

    def test_rank_one_uniform_complex(self):
        M = uniform_matroid(1, 4)
        X = matroid_complex(M).to_chain_complex()
        assert matroid_tree_count(M) == tau_bruteforce(X) == 4

    def test_kook_lee_vs_oracle(self):
        cases = [
            uniform_matroid(2, 4),
            graphic_matroid(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
            graphic_matroid(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]),
        ]
        for M in cases:
            X = matroid_complex(M).to_chain_complex()
            assert matroid_tree_count(M) == tau_bruteforce(X)
            assert is_z_apc(X)

    def test_ground_cap(self):
        with pytest.raises(ValueError):
            tutte_polynomial(uniform_matroid(2, 11))


class TestNamedComplexes:
    def test_bipyramid_count(self, bipyramid):
        assert tau_bruteforce(bipyramid) == 15

    def test_rp2_six_vertex(self, rp2_six):
        assert homology(rp2_six, 1).torsion_order == 2
        assert tau_bruteforce(rp2_six) == 4

    def test_moebius_not_a_union_of_trees(self, moebius):
        # a maximal forest that is not a tree, with nontrivial codim-1 homology
        assert betti(moebius, 1) == 1
        assert betti(moebius, 2) == 0

    def test_annulus_betti(self, annulus):
        assert betti(annulus, 1) == 1
        assert betti(annulus, 2) == 0

    def test_closed_surfaces(self, rp2_six):
        # every edge of the six-vertex projective plane lies in two triangles
        b2 = boundary_matrix(rp2_six, 2)
        for i in range(b2.nrows):
            assert sum(1 for j in range(b2.ncols) if b2[i, j] != 0) == 2

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_complex("dunce_hat")
