import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from cellforest import linalg, matrix_forest
from cellforest.complexes import (
    WeightAssignment,
    dual_complex,
    from_facets,
    laplacian,
    skeleton,
    weighted_laplacian,
    weighted_laplacian_similar,
)
from cellforest.families import complete_colorful, hypercube_complex, simplex_skeleton
from cellforest.homology import homology, relative_homology_torsion
from cellforest.linalg import Matrix, char_poly, invariant_factors, pseudodet, rank
from cellforest.matrix_forest import (
    HypothesisError,
    _level_pseudodet,
    METHODS,
    UNWEIGHTED_ONLY,
    WEIGHT_REQUIRED,
    graph_matrix_tree,
    rooted_forest_polynomial,
    tau,
    tau_algebraic_weighted,
    tau_alternating,
    tau_cobase,
    tau_cobase_spectral,
    tau_covolume,
    tau_pseudodet,
    tau_reduced,
    tau_weighted_alternating,
)
from cellforest.oracle import (
    CapExceeded,
    cobase_defect_enumerator,
    enumerate_forests,
    enumerate_rooted_forests,
    rooted_forest_torsion_sums,
    tau_bruteforce,
    tau_weighted_bruteforce,
)

from corpus import CORPUS, SEED, TORSION_BELOW, random_pure_2_complexes, random_weights
from frozen import tau_algebraic_weighted_by_recursion, tau_pseudodet_by_recursion

# two disjoint solid tetrahedra: beta_2 = beta_1 = 0 but beta_0 = 1
TETRAHEDRA = from_facets(8, [{1, 2, 3, 4}, {5, 6, 7, 8}]).to_chain_complex()


def _outcome(route, X):
    """A route's rendered report and value type, or its refusal."""
    try:
        report = route(X)
    except ValueError as exc:
        return type(exc), str(exc)
    return report.render(), type(report.value)


class TestReduced:
    def test_bipyramid_star_root(self, bipyramid):
        labels = bipyramid.labels(1)
        star = tuple(i for i, lab in enumerate(labels) if lab.split(",")[0] == "1")
        report = tau_reduced(bipyramid, root=star)
        assert report.value == 15
        assert dict(report.details)["det_reduced"] == "15"

    def test_k3_vertex_root(self, k3):
        assert tau_reduced(k3, root=(0,)).value == 3

    def test_annulus_unicyclic_root(self, annulus):
        report = tau_reduced(annulus)
        assert report.value == tau_bruteforce(annulus)
        # the default root keeps rank(d1) + beta_1 = 6 edges: a unicyclic graph
        root = dict(report.details)["root"].split(",")
        assert len(root) == 6

    def test_root_independence(self, rp2_six):
        # the count does not depend on the root: exercise several
        from itertools import combinations

        from cellforest.linalg import det

        b = rp2_six.boundaries[2]
        seen = 0
        for root in combinations(range(15), 5):
            keep = [i for i in range(15) if i not in set(root)]
            if det(b.submatrix(keep, range(10))) == 0:
                continue
            assert tau_reduced(rp2_six, root=root).value == 4
            seen += 1
            if seen == 25:
                break

    def test_invalid_root_rejected(self, moebius):
        with pytest.raises(HypothesisError):
            tau_reduced(moebius, root=tuple(range(5)))

    def test_out_of_range_root_rejected(self, bipyramid, moebius):
        for X in (bipyramid, moebius):
            n = X.n_cells(1)
            with pytest.raises(ValueError, match=rf"^1-cell index {n} out of range 0\.\.{n - 1}$"):
                tau_reduced(X, root=(0, n))


class TestPseudodet:
    def test_k3(self, k3):
        report = tau_pseudodet(k3)
        assert report.value == 3
        assert dict(report.details)["pseudodet"] == "9"

    def test_rp2_six(self, rp2_six):
        assert tau_pseudodet(rp2_six).value == 4

    def test_simplex_skeleton(self):
        X = simplex_skeleton(6, 2).to_chain_complex()
        assert tau_pseudodet(X).value == 6 ** 6

    def test_refuses_moebius(self, moebius):
        with pytest.raises(HypothesisError):
            tau_pseudodet(moebius)

    def test_one_recursion_names_each_formula(self, moebius):
        # two disjoint triangles: beta_1 = 0 but beta_0 = 1
        pair = from_facets(6, [{1, 2, 3}, {4, 5, 6}]).to_chain_complex()
        for X, beta, codim in ((moebius, 1, "codim-1"), (pair, 0, "codim-2")):
            w = WeightAssignment.ones(X)
            for route, formula in (
                (lambda: tau_pseudodet(X), "eigenvalue-product formula"),
                (lambda: tau_algebraic_weighted(X, w), "algebraic weighted formula"),
            ):
                with pytest.raises(HypothesisError) as exc:
                    route()
                assert str(exc.value) == f"beta_{beta}(X) != 0: {formula} needs vanishing {codim} homology"

    def test_the_level_loop_matches_the_frozen_recursion(self):
        rng = random.Random(SEED)
        outcomes = []
        for X in CORPUS + [TORSION_BELOW, TETRAHEDRA]:
            for k in range(X.dim + 1):
                Xk = skeleton(X, k)
                w = random_weights(rng, Xk)
                pairs = (
                    (tau_pseudodet, tau_pseudodet_by_recursion),
                    (
                        lambda Y: tau_pseudodet(Y, weights=w),
                        lambda Y: tau_pseudodet_by_recursion(Y, weights=w),
                    ),
                    (
                        lambda Y: tau_algebraic_weighted(Y, w),
                        lambda Y: tau_algebraic_weighted_by_recursion(Y, w),
                    ),
                )
                for new, old in pairs:
                    got = _outcome(new, Xk)
                    assert got == _outcome(old, Xk)
                    outcomes.append(got)
        # values and every kind of refusal: dimension, codim-1 and codim-2 homology
        assert sum(isinstance(g[0], str) for g in outcomes) >= 30
        for end in ("dimension at least 1", "codim-1 homology", "codim-2 homology"):
            assert any(g[0] is HypothesisError and g[1].endswith(end) for g in outcomes)
        assert any(g[0] is HypothesisError and g[1].startswith("beta_0(X)") for g in outcomes)

    def test_every_hypothesis_is_checked_before_the_first_pseudodet(self, monkeypatch):
        shapes = []
        real = matrix_forest.pseudodet
        monkeypatch.setattr(matrix_forest, "pseudodet", lambda M: shapes.append(M.shape) or real(M))
        w = WeightAssignment.ones(TETRAHEDRA)
        for route, formula in (
            (lambda: tau_pseudodet(TETRAHEDRA), "eigenvalue-product formula"),
            (lambda: tau_algebraic_weighted(TETRAHEDRA, w), "algebraic weighted formula"),
        ):
            with pytest.raises(HypothesisError) as exc:
                route()
            assert str(exc.value) == f"beta_0(X) != 0: {formula} needs vanishing codim-2 homology"
        assert shapes == []
        assert tau_pseudodet(simplex_skeleton(5, 3).to_chain_complex()).value == 5
        assert shapes == [(5, 5), (10, 10), (5, 5), (1, 1)]


class TestAlternating:
    def test_rp2_six(self, rp2_six):
        assert tau_alternating(rp2_six).value == 4

    def test_cube_graph(self):
        Q3 = skeleton(hypercube_complex(3), 1)
        assert tau_alternating(Q3).value == 384

    def test_k4(self, k4):
        assert tau_alternating(k4).value == 16

    def test_refuses_annulus(self, annulus):
        with pytest.raises(HypothesisError):
            tau_alternating(annulus)


class TestSmallerSide:
    """Each level's pseudodeterminant from the smaller side of its Laplacian,
    against the one on the (k-1)-cells that every level took before."""

    # Q_4's 3-skeleton takes the k-cells below the top too, at level 2
    CASES = CORPUS + random_pure_2_complexes(random.Random(SEED + 26), 6) + [skeleton(hypercube_complex(4), 3)]

    def test_every_level_matches_the_side_on_the_lower_cells(self):
        other_side = Counter()
        for n, X in enumerate(self.CASES):
            w = random_weights(random.Random(SEED + n), X)
            for k in range(X.dim + 1):
                assert _level_pseudodet(X, k) == pseudodet(laplacian(X, k - 1, "ud")), (n, k)
                got = _level_pseudodet(X, k, w, similar=True)
                assert got == pseudodet(weighted_laplacian_similar(X, k, w)), (n, k)
                assert _level_pseudodet(X, k, w) == pseudodet(weighted_laplacian(X, k, w)), (n, k)
                if X.n_cells(k) < X.n_cells(k - 1):
                    other_side["top" if k == X.dim else "below"] += 1
        # both kinds of level take the k-cells somewhere
        assert other_side == {"top": 22, "below": 2}

    def test_rooted_polynomial_matches_the_codim_1_side(self):
        sylvester = 0
        for n, X in enumerate(self.CASES):
            if X.dim >= 1:
                want = char_poly(-laplacian(X, X.dim - 1, "ud"))
                assert rooted_forest_polynomial(X) == want, n
                sylvester += X.n_cells(X.dim) < X.n_cells(X.dim - 1)
        assert sylvester >= 5

    @pytest.mark.parametrize("X", [skeleton(hypercube_complex(4), 3), complete_colorful(2, 2, 2, 2).to_chain_complex()],
                             ids=["Q4_3", "colorful_2222"])
    def test_the_order_taken_is_the_smaller_one(self, X, monkeypatch):
        shapes = []
        real = matrix_forest.pseudodet
        monkeypatch.setattr(matrix_forest, "pseudodet", lambda M: shapes.append(M.shape) or real(M))
        w = random_weights(random.Random(SEED), X)
        for k in range(X.dim + 1):
            m = min(X.n_cells(k - 1), X.n_cells(k))
            for args in ((), (w,), (w, True)):
                _level_pseudodet(X, k, *args)
                assert shapes.pop() == (m, m), (k, args)
        # the top level of both is smaller on the 3-cells
        assert X.n_cells(3) < X.n_cells(2)


class TestCovolume:
    def test_k3(self, k3):
        assert tau_covolume(k3).value == 3

    def test_rp2_one_cell(self, rp2_cell):
        report = tau_covolume(rp2_cell)
        assert report.value == 4
        assert dict(report.corrections)["covol^2"] == 4
        assert dict(report.corrections)["t1(X)"] == 2

    def test_bipyramid(self, bipyramid):
        assert tau_covolume(bipyramid).value == 15

    def test_rank_zero_convention(self, rp2_cell):
        # the 1-skeleton of the one-cell projective plane has a zero boundary
        assert tau_covolume(skeleton(rp2_cell, 1)).value == 1


class TestCobase:
    def test_moebius_and_annulus_match_oracle(self, moebius, annulus):
        for X in (moebius, annulus):
            want = tau_bruteforce(X)
            assert tau_cobase(X).value == want
            assert tau_cobase_spectral(X).value == want

    def test_reduces_to_pseudodet_when_acyclic(self, bipyramid, k4):
        for X in (bipyramid, k4, simplex_skeleton(5, 2).to_chain_complex()):
            assert tau_cobase_spectral(X).value == tau_pseudodet(X).value
            assert tau_cobase(X).value == tau_pseudodet(X).value

    def test_invalid_cobase_rejected(self, k3):
        with pytest.raises(HypothesisError):
            tau_cobase(k3, cobase=(0, 1, 2))

    def test_formal_dual_without_chain_condition_rejected(self, rp2_six):
        # the dual's augmentation does not annihilate its d_1
        X = skeleton(dual_complex(rp2_six), 1)
        assert not (X.boundaries[0] * X.boundaries[1]).is_zero
        for route in (tau_cobase, tau_cobase_spectral):
            with pytest.raises(ValueError, match=r"d_0 d_1 != 0 at level 0"):
                route(X)


class TestAlgebraicWeighted:
    def test_all_ones_recovers_pseudodet(self, k4, bipyramid):
        for X in (k4, bipyramid):
            w = WeightAssignment.ones(X)
            assert tau_algebraic_weighted(X, w).value == tau_pseudodet(X).value
            assert tau_weighted_alternating(X, w).value == tau_pseudodet(X).value

    def test_cayley_prufer_k3(self, k3):
        v = [Fraction(2), Fraction(1, 3), Fraction(5)]
        S = simplex_skeleton(3, 1)
        w = WeightAssignment.from_vertex_weights(S, v)
        want = v[0] * v[1] * v[2] * sum(v)
        assert tau_algebraic_weighted(k3, w).value == want
        assert tau_weighted_alternating(k3, w).value == want

    def test_weighted_kalai_delta42(self):
        S = simplex_skeleton(4, 2)
        X = S.to_chain_complex()
        v = [Fraction(1, 2), Fraction(3), Fraction(2, 5), Fraction(7)]
        from cellforest.families import simplex_tree_count_weighted

        w = WeightAssignment.from_vertex_weights(S, v)
        want = simplex_tree_count_weighted(4, 2, v)
        assert tau_algebraic_weighted(X, w).value == want
        assert tau_weighted_bruteforce(X, 2, w) == want


class TestRootedPolynomial:
    def test_k3_coefficients(self, k3):
        assert rooted_forest_polynomial(k3).coeffs == (0, 9, 6, 1)

    def test_matches_enumeration(self, c4, k4, bipyramid):
        for X in (c4, k4, bipyramid):
            poly = rooted_forest_polynomial(X).coeffs
            assert poly == rooted_forest_torsion_sums(X)
            n1 = X.n_cells(X.dim - 1)
            agg = [0] * (n1 + 1)
            for rf in enumerate_rooted_forests(X):
                root = rf.root_faces(X)
                t = relative_homology_torsion(X, root)
                agg[len(root)] += t * t
            assert tuple(agg) == poly

    def test_sums_weight_each_pair_by_its_determinant(self, moebius, annulus):
        # on K_5^2 twelve rooted forests have |det| = 2 over a torsion-free
        # row set; det(L + zI) = z^4 (z + 5)^6 counts them with weight 4
        want = (0,) * 4 + tuple(comb(6, k) * 5 ** (6 - k) for k in range(7))
        assert rooted_forest_torsion_sums(simplex_skeleton(5, 2).to_chain_complex()) == want
        for X in (moebius, annulus):
            assert rooted_forest_torsion_sums(X) == rooted_forest_polynomial(X).coeffs

    def test_degree_counts_codim1_cells(self, bipyramid):
        assert rooted_forest_polynomial(bipyramid).degree == 9


class TestGraphMatrixTree:
    def test_bipartite(self):
        X = complete_colorful(3, 3).to_chain_complex()
        report = graph_matrix_tree(X)
        assert report.value == 81

    def test_disjoint_union(self):
        # triangle plus an edge: 3 maximal forests, 18 rooted forests
        X = from_facets(5, [{1, 2}, {1, 3}, {2, 3}, {4, 5}]).to_chain_complex()
        report = graph_matrix_tree(X)
        assert report.value == 3
        assert dict(report.details)["rooted_forests"] == "18"
        census = enumerate_forests(X)
        assert len(census.forests) == 3

    def test_c4(self, c4):
        assert graph_matrix_tree(c4).value == 4


class TestDispatch:
    def test_tau_at_lower_dimension(self):
        Q3 = hypercube_complex(3)
        assert tau(Q3, 1, "alternating").value == 384
        assert tau(Q3, 2, "alternating").value == 6

    def test_unknown_method(self, k3):
        with pytest.raises(ValueError):
            tau(k3, 1, "magic")

    def test_weight_requirements(self, k3):
        with pytest.raises(ValueError):
            tau(k3, 1, "algebraic-weighted")
        with pytest.raises(ValueError):
            tau(k3, 1, "alternating", weights=WeightAssignment.ones(k3))

    def test_report_renders_exact(self, k3):
        text = tau_reduced(k3).render()
        assert "value: 3" in text
        assert "e+" not in text and "e-" not in text


class TestCrossMethodAgreement:
    def test_all_methods_all_instances(self):
        # every route at every k on CORPUS, unweighted and with seeded
        # weights, against the oracle; cobase-spectral enumerates cobases, and
        # one corpus complex has C(19,10) = 92,378 of them at k = 1, so the
        # route runs under a cap that only that complex exceeds
        outcomes = Counter()
        for n, X in enumerate(CORPUS):
            w = random_weights(random.Random(SEED + n), X)
            for k in range(1, X.dim + 1):
                cases = ((None, tau_bruteforce(X, k)), (w, tau_weighted_bruteforce(X, k, w)))
                for name in METHODS:
                    for weights, want in cases:
                        if name in (WEIGHT_REQUIRED if weights is None else UNWEIGHTED_ONLY):
                            continue
                        try:
                            got = tau(X, k, name, weights, cap=20_000).value
                        except HypothesisError:
                            outcomes["refused"] += 1
                            continue
                        except ValueError as exc:
                            assert str(exc).startswith("d_0 d_1 != 0"), (n, k, name, exc)
                            outcomes["d0d1"] += 1
                            continue
                        except CapExceeded:
                            assert name == "cobase-spectral", (n, k, name)
                            outcomes["capped"] += 1
                            continue
                        assert got == want, (n, k, name, weights is not None, want, got)
                        outcomes["equal"] += 1
        assert outcomes == {"equal": 383, "refused": 85, "d0d1": 4, "capped": 1}

    def test_memoized_ranks_and_factors_match_fresh_copies(self):
        # every route at every k on CORPUS, then the rank and invariant
        # factors memoized on each stored boundary against a fresh copy
        memos = Counter()
        for n, X in enumerate(CORPUS):
            w = random_weights(random.Random(SEED + n), X)
            for k in range(X.dim + 1):
                routes = [lambda: homology(X, k)]
                if k >= 1:
                    routes += [lambda: tau_bruteforce(X, k), lambda: tau_weighted_bruteforce(X, k, w)]
                    routes += [lambda name=name: tau(X, k, name, w if name in WEIGHT_REQUIRED else None,
                                                     cap=20_000) for name in METHODS]
                if k < X.dim:
                    routes.append(lambda: cobase_defect_enumerator(X, k, cap=20_000))
                for route in routes:
                    try:
                        route()
                    except (ValueError, CapExceeded):  # refusals, HypothesisError among them
                        pass
            for b in X.boundaries:
                fresh = Matrix(b.data, ncols=b.ncols)
                if b._rank is not None:
                    assert b._rank == rank(fresh)
                    memos["rank"] += 1
                if b._factors is not None:
                    assert b._factors == invariant_factors(fresh)
                    memos["factors"] += 1
        boundaries = sum(len(X.boundaries) for X in CORPUS)
        assert memos["rank"] == boundaries and memos["factors"] > boundaries // 2

    def test_tau_reduced_ranks_each_boundary_once(self, monkeypatch):
        # rank searches go through linalg.greedy_column_basis; without the
        # memo one call on K_12^3 searched d_2 four times and d_3 twice.  Every
        # search runs _greedy_path, and default_root searched d_2 again until
        # the basis itself was memoized
        X = simplex_skeleton(12, 3).to_chain_complex()
        searched, paths = Counter(), Counter()
        basis, path = linalg.greedy_column_basis, linalg._greedy_path

        def key(cols):
            return tuple(tuple(c.items()) for c in cols)

        monkeypatch.setattr(linalg, "greedy_column_basis", lambda M: searched.update([id(M)]) or basis(M))
        monkeypatch.setattr(linalg, "_greedy_path", lambda cols: paths.update([key(cols)]) or path(cols))
        tau_reduced(X)
        assert max(searched[id(b)] for b in X.boundaries) == 1
        assert [paths[key(linalg._sparse_columns(b))] for b in X.boundaries] == [0, 1, 1, 1]
        assert max(paths.values()) == 1

    def test_correction_factors_trivial_when_z_apc(self, bipyramid, k4):
        for X in (bipyramid, k4):
            for report in (tau_reduced(X), tau_pseudodet(X), tau_cobase(X)):
                for name, value in report.corrections:
                    if name.startswith("t") and not name.startswith("tau"):
                        assert value == 1, (report.method, name, value)
