import random
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest

from cellforest import oracle
from cellforest.complexes import WeightAssignment, boundary_matrix, from_facets, weighted_laplacian
from cellforest.families import simplex_skeleton
from cellforest.homology import (
    betti,
    forest_torsion,
    homology,
    is_maximal_spanning_forest,
    is_spanning_forest,
    is_spanning_tree,
    is_z_apc,
    relative_homology_torsion,
    torsion,
)
from cellforest.linalg import det, invariant_factors, rank, saturation_basis
from cellforest.matrix_forest import tau_cobase
from cellforest.oracle import (
    CapExceeded,
    _defect_context,
    cobase_defect_enumerator,
    cobase_kernel_defect,
    count_orientations,
    default_cobase,
    enumerate_cobases,
    enumerate_forests,
    enumerate_rooted_forests,
    tau_bruteforce,
    tau_weighted_bruteforce,
)

from corpus import CORPUS, SEED, conjugated_smith_complexes, middle_homology_complexes, random_flag_complexes


class TestHomology:
    def test_rp2_both_structures(self, rp2_cell, rp2_six):
        for X in (rp2_cell, rp2_six):
            h1 = homology(X, 1)
            assert h1.betti == 0
            assert h1.torsion_order == 2
            assert h1.torsion_factors == (2,)

    def test_bipyramid(self, bipyramid):
        assert homology(bipyramid, 2).betti == 2
        assert all(homology(bipyramid, k).torsion_order == 1 for k in range(3))

    def test_moebius(self, moebius):
        assert betti(moebius, 2) == 0
        assert betti(moebius, 1) == 1

    def test_simplex_skeleton_top_betti(self):
        from math import comb

        assert homology(simplex_skeleton(5, 2).to_chain_complex(), 2).betti == comb(4, 3)

    def test_z_apc(self, bipyramid, rp2_six, moebius):
        assert is_z_apc(bipyramid)
        assert not is_z_apc(rp2_six)  # codim-1 torsion
        assert not is_z_apc(moebius)  # codim-1 Betti number

    def test_out_of_range(self, k3):
        with pytest.raises(ValueError):
            homology(k3, 2)

    def test_package_attribute_is_the_module(self):
        # a function exported under the module's name would hide it, and
        # patches of cellforest.homology's names would reach nothing
        import types

        import cellforest
        import cellforest.homology as h

        assert isinstance(cellforest.homology, types.ModuleType)
        assert h is cellforest.homology
        assert h.homology is homology


class TestForestPredicates:
    def test_single_facet_is_forest_not_maximal(self, bipyramid):
        assert is_spanning_forest(bipyramid, (0,))
        assert not is_maximal_spanning_forest(bipyramid, (0,))

    def test_bipyramid_named_tree(self, bipyramid):
        labels = bipyramid.labels(2)
        drop = {labels.index("1,3,4"), labels.index("2,3,5")}
        tree = tuple(i for i in range(7) if i not in drop)
        assert is_spanning_tree(bipyramid, tree)

    def test_moebius_is_its_own_maximal_forest(self, moebius):
        everything = tuple(range(5))
        assert is_maximal_spanning_forest(moebius, everything)
        assert not is_spanning_tree(moebius, everything)


class TestCensus:
    def test_bipyramid_census(self, bipyramid):
        census = enumerate_forests(bipyramid)
        assert len(census.forests) == 15
        assert all(t == 1 for _, t in census.forests)
        assert census.rank == 5

    def test_c4_paths(self, c4):
        census = enumerate_forests(c4)
        assert len(census.forests) == 4

    def test_torsion_trees_in_k62(self):
        X = simplex_skeleton(6, 2).to_chain_complex()
        census = enumerate_forests(X)
        torsions = {t for _, t in census.forests}
        assert torsions == {1, 2}

    def test_census_constant_cardinality(self, moebius, annulus, rp2_six):
        for X in (moebius, annulus, rp2_six):
            census = enumerate_forests(X)
            expect = X.n_cells(2) - betti(X, 2)
            assert all(len(f) == expect for f, _ in census.forests)

    def test_torsion_via_dense_snf_agrees(self):
        # the sparse census profile against the dense Smith routine, on the
        # projective-plane trees inside the 2-skeleton of the 6-vertex simplex
        X = simplex_skeleton(6, 2).to_chain_complex()
        b = X.boundaries[2]
        census = enumerate_forests(X)
        torsion2 = [f for f, t in census.forests if t == 2]
        assert len(torsion2) == 12
        for facets in torsion2[:3]:
            sub = b.submatrix(range(b.nrows), facets)
            assert prod(f for f in invariant_factors(sub) if f > 1) == 2

    def test_cap(self, bipyramid):
        with pytest.raises(CapExceeded):
            enumerate_forests(bipyramid, 2, cap=1)

    def test_tau_k4(self, k4):
        assert tau_bruteforce(k4) == 16

    def test_tau_simplex_skeletons(self):
        assert tau_bruteforce(simplex_skeleton(5, 2).to_chain_complex()) == 125

    def test_weighted_census(self, k3):
        w = WeightAssignment({(1, 0): Fraction(1, 2), (1, 1): 3, (1, 2): 5})
        # trees are the three edge pairs
        expect = Fraction(1, 2) * 3 + Fraction(1, 2) * 5 + 3 * 5
        assert tau_weighted_bruteforce(k3, 1, w) == expect

    def test_tau_at_k0_counts_vertices(self, bipyramid):
        assert tau_bruteforce(bipyramid, 0) == 5

    def test_weight_missing_on_a_zero_column_is_refused(self, rp2_cell):
        # d_1 of rp2_cell is [[0]]: its one forest at k = 1 is empty and never
        # reads the edge's weight, yet the weight is required, as the
        # weighted Laplacian requires it
        for call in (tau_weighted_bruteforce, weighted_laplacian):
            with pytest.raises(ValueError, match="^missing weight for a 1-cell$"):
                call(rp2_cell, 1, WeightAssignment({}))
        assert tau_weighted_bruteforce(rp2_cell, 1, WeightAssignment({(1, 0): 7})) == 1


class TestRootedForests:
    def test_p2_single_edge(self):
        X = from_facets(2, [{1, 2}]).to_chain_complex()
        rooted = enumerate_rooted_forests(X)
        # empty forest with full root, plus one rooted tree per vertex choice
        assert len([rf for rf in rooted if rf.facets]) == 2
        assert len([rf for rf in rooted if not rf.facets]) == 1

    def test_tree_graph_unique_orientation(self):
        X = from_facets(3, [{1, 2}, {2, 3}]).to_chain_complex()
        for rf in enumerate_rooted_forests(X):
            if len(rf.facets) == 2:
                assert count_orientations(X, rf.facets, rf.nonroot_faces) == 1

    def test_orientation_lower_bound(self, rp2_six):
        # every valid rooting of the projective plane pairs at least its
        # relative torsion, and some rooting achieves exactly two
        b = rp2_six.boundaries[2]
        found_exact = False
        count = 0
        for root in combinations(range(15), 5):
            keep = [i for i in range(15) if i not in set(root)]
            if det(b.submatrix(keep, range(10))) == 0:
                continue
            count += 1
            t = relative_homology_torsion(rp2_six, root)
            o = count_orientations(rp2_six, tuple(range(10)), tuple(keep))
            assert o >= t
            if o == t == 2:
                found_exact = True
            if count >= 200 and found_exact:
                break
        assert found_exact

    def test_relative_torsion_examples(self, k3, bipyramid):
        # one root vertex on a connected graph
        assert relative_homology_torsion(k3, (0,)) == 1
        labels = bipyramid.labels(1)
        star = tuple(i for i, lab in enumerate(labels) if lab.split(",")[0] == "1")
        assert relative_homology_torsion(bipyramid, star) == 1


class TestCobases:
    def test_cobase_count_k3(self, k3):
        assert len(enumerate_cobases(k3, 0)) == 3

    def test_defect_trivial_on_connected_graph(self, k3):
        for cobase in enumerate_cobases(k3, 0):
            assert cobase_kernel_defect(k3, 0, cobase) == 1

    def test_enumerator_k3(self, k3):
        assert cobase_defect_enumerator(k3, 0) == 3

    def test_enumerator_reduces_to_tau_below(self, bipyramid):
        # with vanishing rational homology the enumerator is the census count
        # one dimension down
        assert cobase_defect_enumerator(bipyramid, 1) == tau_bruteforce(bipyramid, 1)

    def test_default_cobase_is_row_basis(self, moebius):
        cobase = default_cobase(moebius)
        b = moebius.boundaries[2]
        assert rank(b.submatrix(cobase, range(b.ncols))) == len(cobase) == rank(b)

    def test_moebius_defect_squares_to_reduced_determinant(self, moebius):
        # the cobase determinant identity, checked per cobase
        from cellforest.complexes import laplacian

        L = laplacian(moebius, 1, "ud")
        tau = tau_bruteforce(moebius)
        for cobase in enumerate_cobases(moebius, 1)[:40]:
            d = det(L.submatrix(cobase, cobase))
            defect = cobase_kernel_defect(moebius, 1, cobase)
            root = tuple(i for i in range(10) if i not in set(cobase))
            t_r = forest_torsion(moebius, root, 1)
            assert d == tau * defect * defect * t_r * t_r

    def test_enumerator_matches_its_cauchy_binet_closed_form(self):
        # for a cobase S with root R, [im d_k : d_k(Z^R)] = [Z^S : pi_S(ker d_k)] (both are the
        # cokernel of v -> (v_S, d_k v)), so t_root * defect = t_{k-1}(X) |det sat[S,:]|, whose
        # squares sum by Cauchy-Binet to t_{k-1}(X)^2 det(sat^T sat); a 0 x 0 Gram matrix has det 1
        checked = refused = 0
        for X in CORPUS + [
            *conjugated_smith_complexes(random.Random(SEED), 20),
            *middle_homology_complexes(random.Random(SEED), 20),
            *random_flag_complexes(random.Random(SEED), 6),
        ]:
            for k in range(X.dim):
                if k == 0 and not (X.boundaries[0] * X.boundaries[1]).is_zero:  # formal duals
                    with pytest.raises(ValueError):
                        cobase_defect_enumerator(X, k)
                    refused += 1
                    continue
                sat = saturation_basis(boundary_matrix(X, k + 1))
                assert cobase_defect_enumerator(X, k) == torsion(X, k - 1) ** 2 * det(sat.transpose() * sat)
                checked += 1
        assert (checked, refused) == (156, 2)


class TestLazySaturation:
    def test_context_omits_the_saturation_exactly_when_it_fills_the_kernel(self):
        seen = set()
        for X in CORPUS:
            for k in range(X.dim + 1):
                try:
                    ker, sat = _defect_context(X, k)
                except ValueError:
                    # the formal duals' vertex layer obeys no augmentation identity
                    assert k == 0 and not (X.boundaries[0] * X.boundaries[1]).is_zero
                    continue
                bk = boundary_matrix(X, k)
                nullity = bk.ncols - rank(bk)
                image_rank = rank(boundary_matrix(X, k + 1)) if k < X.dim else 0
                assert (sat is None) == (ker is None) == (image_rank == nullity)
                if sat is not None:
                    assert ker.shape == (bk.ncols, nullity)
                    assert (bk * ker).is_zero
                    assert sat.shape == (bk.ncols, image_rank)
                    if k < X.dim:
                        assert sat == saturation_basis(boundary_matrix(X, k + 1))
                seen.add(sat is None)
        assert seen == {True, False}

    def test_tau_cobase_saturates_only_with_rational_homology(self, monkeypatch, moebius):
        calls = []
        saturate = oracle.saturation_basis
        monkeypatch.setattr(oracle, "saturation_basis", lambda M: calls.append(M.shape) or saturate(M))
        tau_cobase(simplex_skeleton(6, 2).to_chain_complex())
        assert calls == []
        tau_cobase(moebius)
        assert calls == [boundary_matrix(moebius, 2).shape]
