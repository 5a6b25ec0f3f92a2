"""Acceptance gate: one test per criterion, each printing a pass line and
enforcing its stated runtime budget.  All comparisons are exact."""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from math import comb

from cellforest.complexes import (
    WeightAssignment,
    boundary_matrix,
    dual_complex,
    laplacian,
    skeleton,
)
from cellforest.critical import critical_group, critical_group_reduced, sequence_order_check
from cellforest.families import (
    binom_ext,
    colorful_tree_count,
    colorful_tree_count_weighted,
    colorful_vertex_weighting,
    complete_colorful,
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
    shifted_complex,
    shifted_tree_count_weighted,
    simplex_skeleton,
    simplex_tree_count,
    simplex_tree_count_weighted,
    tutte_eval,
    tutte_polynomial,
    uniform_matroid,
)
from cellforest.homology import homology, relative_homology_torsion
from cellforest.linalg import char_poly, det, pseudodet
from cellforest.matrix_forest import (
    default_root,
    graph_matrix_tree,
    rooted_forest_polynomial,
    tau_algebraic_weighted,
    tau_alternating,
    tau_cobase,
    tau_cobase_spectral,
    tau_covolume,
    tau_pseudodet,
    tau_reduced,
)
from cellforest.oracle import (
    count_orientations,
    enumerate_forests,
    rooted_forest_torsion_sums,
    tau_bruteforce,
    tau_weighted_bruteforce,
)
from cellforest.verify import sample_fractions

SEED = 987123


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s ({elapsed:.1f}s)"
    print(f"[acceptance] criterion {number:2d} ({description}): PASS in {elapsed:.2f}s")


def test_criterion_01_cayley_and_bipartite():
    with criterion(1, "complete and complete bipartite counts", 10):
        for n in range(3, 8):
            X = simplex_skeleton(n, 1).to_chain_complex()
            want = n ** (n - 2)
            assert tau_reduced(X).value == want
            assert tau_pseudodet(X).value == want
            assert tau_bruteforce(X) == want
        for m in range(1, 5):
            for n in range(1, 5):
                X = complete_colorful(m, n).to_chain_complex()
                want = n ** (m - 1) * m ** (n - 1)
                assert tau_reduced(X).value == want
                assert tau_pseudodet(X).value == want
                assert tau_bruteforce(X) == want


def test_criterion_02_bipyramid():
    with criterion(2, "bipyramid trees and star-rooted determinant", 1):
        X = named_complex("bipyramid")
        census = enumerate_forests(X)
        assert len(census.forests) == 15
        assert all(t == 1 for _, t in census.forests)
        labels = X.labels(1)
        star = tuple(i for i, lab in enumerate(labels) if lab.split(",")[0] == "1")
        report = tau_reduced(X, root=star)
        assert report.value == 15
        assert dict(report.details)["det_reduced"] == "15"


def test_criterion_03_projective_plane():
    with criterion(3, "projective plane torsion, pseudodeterminants, five methods", 5):
        cell = named_complex("rp2_cell")
        six = named_complex("rp2_six_vertex")
        for X in (cell, six):
            assert homology(X, 1).torsion_order == 2
        assert pseudodet(laplacian(six, 2, "du")) == 3 ** 4 * 4 ** 3
        assert pseudodet(laplacian(six, 1, "du")) == 6 ** 5
        assert pseudodet(laplacian(six, 0, "du")) == 6
        for method in (tau_alternating, tau_pseudodet, tau_reduced, tau_covolume, tau_cobase, tau_cobase_spectral):
            assert method(six).value == 4, method.__name__


def test_criterion_04_simplex_skeleton_counts():
    with criterion(4, "simplex skeleton counts with torsion census", 600):
        for n, d in ((4, 1), (5, 1), (4, 2), (5, 2), (6, 2)):
            X = simplex_skeleton(n, d).to_chain_complex()
            want = simplex_tree_count(n, d)
            assert want == n ** binom_ext(n - 2, d)
            assert tau_reduced(X).value == want
            assert tau_pseudodet(X).value == want
            assert tau_alternating(X).value == want
        for n, d in ((5, 2), (6, 2)):
            X = simplex_skeleton(n, d).to_chain_complex()
            census = enumerate_forests(X)
            assert census.tau() == simplex_tree_count(n, d)
            if (n, d) == (6, 2):
                assert comb(X.n_cells(2), census.rank) == 184756
                assert any(t == 2 for _, t in census.forests)


def test_criterion_05_reduced_spectrum():
    with criterion(5, "reduced Laplacian spectrum of simplex skeletons", 30):
        for d in (1, 2):
            for n in range(d + 1, 8):
                X = simplex_skeleton(n, d).to_chain_complex()
                root = default_root(X)
                sel = [i for i in range(X.n_cells(d - 1)) if i not in set(root)]
                L = laplacian(X, d - 1, "ud").submatrix(sel, sel)
                got = char_poly(L).coeffs
                # (z-1)^C(n-2,d-1) (z-n)^C(n-2,d), expanded
                poly = [1]
                for _ in range(binom_ext(n - 2, d - 1)):
                    poly = [a - b for a, b in zip(poly + [0], [0] + poly)]
                for _ in range(binom_ext(n - 2, d)):
                    poly = [a - n * b for a, b in zip(poly + [0], [0] + poly)]
                # poly currently holds descending coefficients of the product
                assert got == tuple(reversed(poly)), (n, d)


def test_criterion_06_colorful_counts():
    with criterion(6, "colorful complex counts and special cases", 120):
        for sizes in ((2, 2, 2), (2, 2, 3)):
            X = complete_colorful(*sizes).to_chain_complex()
            r = len(sizes)
            assert colorful_tree_count(0, sizes) == sum(sizes) == X.n_cells(0)
            for k in range(1, r):
                assert colorful_tree_count(k, sizes) == tau_alternating(skeleton(X, k)).value
        assert colorful_tree_count(1, (3, 3)) == 81
        assert graph_matrix_tree(complete_colorful(3, 3).to_chain_complex()).value == 81
        # special cases of the closed form
        for sizes in ((2, 3), (2, 2, 2), (2, 2, 3)):
            r = len(sizes)
            want = 1
            for i in range(r):
                exp = 1
                for j in range(r):
                    if j != i:
                        exp *= sizes[j] - 1
                want *= sizes[i] ** exp
            assert colorful_tree_count(r - 1, sizes) == want
        for r in (3, 4, 5):
            for k in range(r):
                assert colorful_tree_count(k, (1,) * r) == simplex_tree_count(r, k)
        for r in (3, 4):
            from math import prod

            for k in range(r):
                want = prod(
                    (2 * (r - m)) ** (comb(r, m) * binom_ext(r - 2 - m, k - m))
                    for m in range(k + 1)
                )
                assert colorful_tree_count(k, (2,) * r) == want
        assert tau_bruteforce(complete_colorful(2, 2, 2).to_chain_complex(), 1) == 384


def test_criterion_07_weighted_identities():
    with criterion(7, "weighted identities at sampled rational weights", 300):
        rng = random.Random(SEED)
        for _ in range(5):
            for n in (4, 5):
                S = simplex_skeleton(n, 1)
                X = S.to_chain_complex()
                v = sample_fractions(rng, n)
                w = WeightAssignment.from_vertex_weights(S, v)
                want = Fraction(1)
                for vi in v:
                    want *= vi
                want *= sum(v) ** (n - 2)
                assert tau_weighted_bruteforce(X, 1, w) == want
                assert tau_algebraic_weighted(X, w).value == want
            for n, d in ((4, 2), (5, 2)):
                S = simplex_skeleton(n, d)
                X = S.to_chain_complex()
                v = sample_fractions(rng, n)
                w = WeightAssignment.from_vertex_weights(S, v)
                want = simplex_tree_count_weighted(n, d, v)
                assert tau_weighted_bruteforce(X, d, w) == want
            sizes = (2, 2, 2)
            S = complete_colorful(*sizes)
            X = S.to_chain_complex()
            v = {(j, t): Fraction(rng.randint(1, 20), rng.randint(1, 20)) for j in (1, 2, 3) for t in (1, 2)}
            w = colorful_vertex_weighting(S, sizes, v)
            for k in (1, 2):
                assert colorful_tree_count_weighted(k, sizes, v) == tau_weighted_bruteforce(X, k, w)
            for parts in ((2, 1), (2, 2), (3, 2, 1)):
                G = ferrers_graph(parts)
                XG = G.to_chain_complex()
                x = sample_fractions(rng, len(parts))
                y = sample_fractions(rng, parts[0])
                wG = ferrers_vertex_weighting(G, parts, x, y)
                assert ferrers_tree_count_weighted(parts, x, y) == tau_weighted_bruteforce(XG, 1, wG)
            for n_cube in (2, 3):
                Q = hypercube_complex(n_cube)
                q = sample_fractions(rng, n_cube)
                x = sample_fractions(rng, n_cube)
                y = sample_fractions(rng, n_cube)
                wQ = hypercube_weights(n_cube, q, x, y)
                for k in range(1, n_cube + 1):
                    assert hypercube_tree_count_weighted(k, n_cube, q, x, y) == tau_weighted_bruteforce(Q, k, wQ)
            for gens in ([(2, 3, 5)], [(3, 5)], [(2, 3, 4, 5)]):
                n = max(v for g in gens for v in g)
                S = shifted_complex(n, gens)
                X = S.to_chain_complex()
                v = sample_fractions(rng, n)
                w = WeightAssignment.from_vertex_weights(S, v)
                assert shifted_tree_count_weighted(S, v) == tau_weighted_bruteforce(X, S.dim, w)


def test_criterion_08_hypercube():
    with criterion(8, "hypercube counts and spectra", 300):
        for n in range(1, 5):
            Q = hypercube_complex(n)
            assert hypercube_edge_tree_count(n) == hypercube_tree_count(1, n)
            assert tau_alternating(skeleton(Q, 1)).value == hypercube_tree_count(1, n)
        assert hypercube_tree_count(1, 3) == 384
        for n in (3, 4):
            Q = hypercube_complex(n)
            for k in range(1, n + 1):
                assert tau_alternating(skeleton(Q, k)).value == hypercube_tree_count(k, n)
        assert tau_bruteforce(hypercube_complex(3), 2) == hypercube_tree_count(2, 3) == 6
        # spectrum: nonzero eigenvalues of the k-th Laplacian are 2(k+1)..2n
        for n in range(1, 5):
            Q = hypercube_complex(n)
            for k in range(n):
                got = char_poly(laplacian(Q, k, "ud")).coeffs
                poly = [1]
                for j in range(k + 1, n + 1):
                    for _ in range(comb(j - 1, k) * comb(n, j)):
                        poly = [a - 2 * j * b for a, b in zip(poly + [0], [0] + poly)]
                nzeros = Q.n_cells(k) - sum(
                    comb(j - 1, k) * comb(n, j) for j in range(k + 1, n + 1)
                )
                expected = (0,) * nzeros + tuple(reversed(poly))
                assert got == expected, (n, k)


def test_criterion_09_duality():
    with criterion(9, "duality between cube skeletons and colorful complexes", 120):
        for n in (3, 4):
            X = skeleton(hypercube_complex(n), n - 1)
            sizes = (2,) * n
            assert X.n_cells(0) == colorful_tree_count(n - 1, sizes)
            for k in range(1, n):
                assert tau_alternating(skeleton(X, k)).value == colorful_tree_count(n - 1 - k, sizes)
            Y = dual_complex(X)
            for k in range(1, n):
                assert tau_alternating(skeleton(Y, k)).value == colorful_tree_count(k, sizes)
        rng = random.Random(SEED + 9)
        X = skeleton(hypercube_complex(3), 2)
        values = {
            (k, i): Fraction(rng.randint(1, 20), rng.randint(1, 20))
            for k in range(3)
            for i in range(X.n_cells(k))
        }
        w = WeightAssignment(values)
        Y = dual_complex(X)
        wstar = w.reciprocal_for_dual(X)
        for k in (1, 2):
            mono = Fraction(1)
            for i in range(X.n_cells(k)):
                mono *= values[(k, i)]
            assert tau_weighted_bruteforce(X, k, w) == mono * tau_weighted_bruteforce(Y, 2 - k, wstar)


def test_criterion_10_matroid_counts():
    with criterion(10, "matroid flat-product counts and base counts", 60):
        cases = [
            graphic_matroid(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]),
            graphic_matroid(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)]),
            uniform_matroid(2, 4),
        ]
        for M in cases:
            S = matroid_complex(M)
            X = S.to_chain_complex()
            assert matroid_tree_count(M) == tau_bruteforce(X)
            assert tutte_eval(tutte_polynomial(M), 1, 1) == len(S.facets)


def test_criterion_11_rooted_forests():
    with criterion(11, "rooted forest polynomial and orientations", 300):
        from cellforest.complexes import from_facets

        instances = [
            simplex_skeleton(3, 1).to_chain_complex(),
            simplex_skeleton(4, 1).to_chain_complex(),
            from_facets(4, [{1, 2}, {2, 3}, {3, 4}, {1, 4}]).to_chain_complex(),
            named_complex("bipyramid"),
            named_complex("rp2_six_vertex"),
        ]
        for X in instances:
            assert rooted_forest_polynomial(X).coeffs == rooted_forest_torsion_sums(X)
        six = instances[-1]
        b = boundary_matrix(six, 2)
        found = False
        for root in combinations(range(15), 5):
            keep = tuple(i for i in range(15) if i not in set(root))
            if det(b.submatrix(keep, range(10))) == 0:
                continue
            if count_orientations(six, tuple(range(10)), keep) == 2:
                assert relative_homology_torsion(six, root) == 2
                found = True
                break
        assert found


def test_criterion_12_general_forest_formulas():
    with criterion(12, "cobase formulas beyond vanishing homology", 120):
        for name in ("moebius", "annulus"):
            X = named_complex(name)
            want = tau_bruteforce(X)
            assert tau_cobase(X).value == want
            assert tau_cobase_spectral(X).value == want
        for X in (
            named_complex("bipyramid"),
            simplex_skeleton(5, 2).to_chain_complex(),
            complete_colorful(2, 2, 2).to_chain_complex(),
        ):
            assert tau_cobase(X).value == tau_pseudodet(X).value
            assert tau_cobase_spectral(X).value == tau_pseudodet(X).value


def test_criterion_13_critical_groups():
    with criterion(13, "critical groups and sequence orders", 120):
        instances = [
            simplex_skeleton(3, 1).to_chain_complex(),
            simplex_skeleton(4, 1).to_chain_complex(),
            named_complex("bipyramid"),
            named_complex("rp2_six_vertex"),
            complete_colorful(2, 2, 2).to_chain_complex(),
        ]
        for X in instances:
            for i in range(X.dim):
                K = critical_group(X, i)
                assert K.order == tau_bruteforce(X, i + 1)
                reduced = critical_group_reduced(X, i)
                if reduced is not None:
                    assert reduced == K
        k3 = instances[0]
        assert str(critical_group(k3, 0)) == "Z/3"
        rep = sequence_order_check(named_complex("bipyramid"))
        assert rep.all_orders_equal and rep.critical_order == 15
        rep = sequence_order_check(named_complex("rp2_six_vertex"))
        assert rep.ok and rep.error_order == 2 and rep.critical_order == 4


def test_criterion_14_property_suite():
    with criterion(14, "structural property sweep", 300):
        import test_properties as props

        props.TestForestCharacterizations().test_conditions_coincide()
        props.TestBoundaryComposition().test_everywhere()
        props.TestSpectraAdjacency().test_up_down_matches_down_up_above()
        props.TestTorsionDivisibility().test_tree_torsion_is_multiple_of_ambient()
        props.TestTorsionDivisibility().test_named_instances()
        props.TestTorsionDivisibility().test_k62_census()
        props.TestSmithReconstruction().test_two_hundred_random_matrices()
