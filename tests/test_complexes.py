import random
from fractions import Fraction
from itertools import combinations

import pytest

from cellforest.complexes import (
    ChainComplex,
    SimplicialComplex,
    WeightAssignment,
    boundary_matrix,
    delete_and_link,
    dual_complex,
    from_facets,
    is_shifted,
    laplacian,
    relative_boundary,
    skeleton,
    weighted_laplacian,
    weighted_laplacian_similar,
)
from cellforest.families import (
    hypercube_complex,
    named_simplicial,
    shifted_complex,
    shifted_signatures,
    shifted_tree_count_weighted,
    simplex_skeleton,
)
from cellforest.linalg import Matrix, rank

from frozen import delete_and_link_by_faces, shifted_complex_by_own_filter, shifted_signatures_by_faces


class TestFromFacets:
    def test_bipyramid_counts(self):
        S = named_simplicial("bipyramid")
        layers = S.faces_by_dim()
        assert [len(l) for l in layers] == [5, 9, 7]

    def test_single_edge(self):
        S = from_facets(2, [{1, 2}])
        assert S.faces_by_dim() == (((1,), (2,)), ((1, 2),))

    def test_all_triples_of_six(self):
        S = simplex_skeleton(6, 2)
        assert len(S.facets) == 20

    def test_contained_facets_discarded(self):
        S = from_facets(3, [{1, 2}, {1}, {1, 2, 3}])
        assert S.facets == frozenset({frozenset({1, 2, 3})})

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            from_facets(2, [{1, 3}])


class TestCompile:
    def test_triangle_boundary_signs(self):
        X = from_facets(3, [{1, 2, 3}]).to_chain_complex()
        assert X.cells[1] == ("1,2", "1,3", "2,3")
        assert boundary_matrix(X, 2).columns() == ((1, -1, 1),)

    def test_triangle_graph_incidence(self, k3):
        assert boundary_matrix(k3, 1) == Matrix([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])

    def test_entries_in_unit_range(self):
        for S in (named_simplicial("rp2_six_vertex"), simplex_skeleton(5, 2)):
            X = S.to_chain_complex()
            for k in range(1, X.dim + 1):
                b = boundary_matrix(X, k)
                assert all(x in (-1, 0, 1) for row in b.data for x in row)

    def test_rp2_six_vertex_sizes(self, rp2_six):
        assert [len(c) for c in rp2_six.cells] == [6, 15, 10]

    def test_boundary_composition_rejected(self):
        with pytest.raises(ValueError):
            ChainComplex.create((("a", "b"), ("e",)), (Matrix([[1], [1]]),))

    def test_boundary_composition_rejected_above_the_augmentation(self):
        # d_1 d_2 = (-1, 1)^T: checked even where the augmentation is waived
        cells = (("a", "b"), ("e",), ("f",))
        with pytest.raises(ValueError, match="composition at dimension 2 is nonzero"):
            ChainComplex.create(cells, (Matrix([[-1], [1]]), Matrix([[1]])), check_augmentation=False)

    def test_augmentation_row(self, k3):
        assert boundary_matrix(k3, 0) == Matrix([[1, 1, 1]])

    def test_bipyramid_top_rank(self, bipyramid):
        assert boundary_matrix(bipyramid, 2).shape == (9, 7)
        assert rank(boundary_matrix(bipyramid, 2)) == 5


class TestLaplacian:
    def test_k3_vertex_laplacian(self, k3):
        assert laplacian(k3, 0, "ud") == Matrix([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])

    def test_ud_at_top_rejected(self, k3):
        with pytest.raises(ValueError):
            laplacian(k3, 1, "ud")

    def test_augmentation_laplacian(self, k3):
        assert laplacian(k3, -1, "ud") == Matrix([[3]])

    def test_du_at_zero(self, k3):
        assert laplacian(k3, 0, "du") == Matrix([[1, 1, 1], [1, 1, 1], [1, 1, 1]])

    def test_total_is_sum(self, bipyramid):
        assert laplacian(bipyramid, 1, "tot") == laplacian(bipyramid, 1, "ud") + laplacian(
            bipyramid, 1, "du"
        )


class TestWeightedLaplacian:
    def test_all_ones_matches_unweighted(self, k3):
        w = WeightAssignment.ones(k3)
        assert weighted_laplacian(k3, 1, w) == laplacian(k3, 0, "ud")

    def test_k3_hand_expansion(self, k3):
        w = WeightAssignment({(1, 0): 1, (1, 1): 2, (1, 2): 3})
        assert weighted_laplacian(k3, 1, w) == Matrix(
            [[3, -1, -2], [-1, 4, -3], [-2, -3, 5]]
        )

    def test_single_edge_weight(self):
        X = from_facets(2, [{1, 2}]).to_chain_complex()
        w = WeightAssignment({(0, 0): 1, (0, 1): 1, (1, 0): 5})
        assert weighted_laplacian(X, 1, w) == Matrix([[5, -5], [-5, 5]])

    def test_similar_at_zero_sums_vertex_weights(self, k3):
        w = WeightAssignment({(0, 0): 2, (0, 1): 3, (0, 2): Fraction(1, 2)})
        assert weighted_laplacian_similar(k3, 0, w) == Matrix([[Fraction(11, 2)]])

    def test_missing_weight_raises(self, k3):
        w = WeightAssignment({(1, 0): 1})
        with pytest.raises(ValueError):
            weighted_laplacian(k3, 1, w)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            WeightAssignment({(0, 0): 0})

    @pytest.mark.parametrize("key", [(0, 1.5), (1, True), (True, 0), (1.0, 0), ("1", 0)])
    def test_inexact_key_rejected(self, key):
        # int() would read (0, 1.5) as (0, 1) and (1, True) as (1, 1)
        with pytest.raises(ValueError) as exc:
            WeightAssignment({key: 3})
        assert str(exc.value) == f"weight key {key!r} is not a pair of ints"

    @pytest.mark.parametrize("value", [0.1, 2.0, True, "1e3", "3", "1/2"])
    def test_inexact_value_rejected(self, value):
        # Fraction() would read 0.1 as 3602879701896397/36028797018963968
        # and "1e3" as 1000, which io.parse_weights refuses
        with pytest.raises(ValueError) as exc:
            WeightAssignment({(0, 1): value})
        assert str(exc.value) == f"weight at (0, 1) is not an int or a Fraction: {value!r}"

    def test_exact_weights_kept(self):
        w = WeightAssignment({(0, 1): 3, (1, 0): Fraction(1, 2), (1, 1): Fraction(4, 2)})
        assert dict(w.items()) == {(0, 1): 3, (1, 0): Fraction(1, 2), (1, 1): 2}

    @pytest.mark.parametrize(
        "v, message",
        [
            # Fraction() would read 0.1 as 3602879701896397/36028797018963968,
            # "1e3" as 1000 and True as 1, and int() the key 1.5 as vertex 1
            ([0.1, 1, 1], "weight of vertex 1 is not an int or a Fraction: 0.1"),
            ([1, "1e3", 1], "weight of vertex 2 is not an int or a Fraction: '1e3'"),
            ([1, 1, True], "weight of vertex 3 is not an int or a Fraction: True"),
            ([1, 1, Fraction(-1, 2)], "weight of vertex 3 must be positive, got -1/2"),
            ({1: 1, 1.5: 2, 3: 1}, "vertex 1.5 is not an int"),
            ({True: 2, 2: 1, 3: 1}, "vertex True is not an int"),
            ({1: 1, "2": 1, 3: 1}, "vertex '2' is not an int"),
            ({1: 2, 2: 3}, "missing weight for vertex 3"),
            ([2, 3], "missing weight for vertex 3"),
            ({2: 3, 3: 1}, "missing weight for vertex 1"),
        ],
    )
    def test_inexact_vertex_weights_rejected(self, v, message):
        S = simplex_skeleton(3, 1)
        for read in (WeightAssignment.from_vertex_weights, shifted_tree_count_weighted):
            with pytest.raises(ValueError) as exc:
                read(S, v)
            assert str(exc.value) == message

    def test_exact_vertex_weights_kept(self):
        S = simplex_skeleton(3, 1)
        for v in ([2, Fraction(1, 2), 3], {1: 2, 2: Fraction(1, 2), 3: 3}):
            w = WeightAssignment.from_vertex_weights(S, v)
            assert [w[0, i] for i in range(3)] == [2, Fraction(1, 2), 3]
            assert [w[1, i] for i in range(3)] == [1, 6, Fraction(3, 2)]


class TestRelativeBoundary:
    def test_all_rows_removed(self, k3):
        sub = relative_boundary(k3, range(3), k=1)
        assert sub.shape == (0, 3)

    def test_bipyramid_star_root(self, bipyramid):
        # root = the four edges containing vertex 1
        labels = bipyramid.labels(1)
        root = [i for i, lab in enumerate(labels) if "1," in lab or lab.startswith("1,")]
        sub = relative_boundary(bipyramid, root)
        assert sub.shape == (5, 7)


class TestSkeletonAndDual:
    def test_skeleton_of_simplex(self):
        S = simplex_skeleton(6, 5)
        assert skeleton(S.to_chain_complex(), 2) == simplex_skeleton(6, 2).to_chain_complex()

    def test_chain_skeleton(self, bipyramid):
        sk = skeleton(bipyramid, 1)
        assert sk.dim == 1
        assert sk.cells[1] == bipyramid.cells[1]

    def test_dual_of_dual(self):
        X = skeleton(hypercube_complex(3), 2)
        Y = dual_complex(dual_complex(X))
        assert Y.cells == X.cells
        assert Y.boundaries[1:] == X.boundaries[1:]

    def test_dual_transposes(self):
        X = skeleton(hypercube_complex(3), 2)
        Y = dual_complex(X)
        assert boundary_matrix(Y, 1) == boundary_matrix(X, 2).transpose()
        assert boundary_matrix(Y, 2) == boundary_matrix(X, 1).transpose()


class TestDeleteAndLink:
    def test_link_of_cone_apex(self):
        # cone over the square with apex 5
        S = from_facets(5, [{1, 2, 5}, {2, 3, 5}, {3, 4, 5}, {1, 4, 5}])
        _, link = delete_and_link(S, 5)
        assert link.facets == from_facets(4, [{1, 2}, {2, 3}, {3, 4}, {1, 4}]).facets

    def test_deletion_avoids_vertex(self):
        S = named_simplicial("bipyramid")
        deletion, _ = delete_and_link(S, 1)
        assert all(1 not in f for f in deletion.facets)

    def test_reads_the_facets_alone(self, monkeypatch):
        # two 13-vertex facets have 12,287 faces between them; none is listed
        def refuse(self):
            raise AssertionError("delete_and_link expanded the faces")

        S = from_facets(14, [set(range(1, 14)), set(range(2, 15))])
        monkeypatch.setattr(SimplicialComplex, "faces_by_dim", refuse)
        deletion, link = delete_and_link(S, 1)
        assert deletion.facets == {frozenset(range(2, 15))}
        assert link.facets == {frozenset(range(2, 14))}


class TestShifted:
    def test_bipyramid_is_shifted(self):
        assert is_shifted(named_simplicial("bipyramid"))

    def test_rp2_not_shifted(self):
        assert not is_shifted(named_simplicial("rp2_six_vertex"))

    def test_deletion_and_link_stay_shifted(self):
        for gens in ([(2, 3, 5)], [(3, 5)], [(2, 4), (1, 5)]):
            n = max(v for g in gens for v in g)
            S = shifted_complex(n, gens)
            deletion, link = delete_and_link(S, 1)
            assert is_shifted(deletion, relabel=True)
            assert is_shifted(link, relabel=True)


# ---------------------------------------------------------------------------
# deletion, link and shifted closures against their frozen face expansions
# ---------------------------------------------------------------------------

REBUILD_SEED = 3203


def _outcome(fn, *args):
    """What ``fn(*args)`` gives, with every complex as ``(n, facets)``, or the
    type and text of what it raises."""
    try:
        got = fn(*args)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)
    if isinstance(got, SimplicialComplex):
        return got.n, got.facets
    return tuple((S.n, S.facets) if isinstance(S, SimplicialComplex) else S for S in got)


def _facet_list(rng, n):
    """Facets on 1..n of mixed sizes, with nested, repeated and single-vertex ones."""
    facets = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 5))]
    for _ in range(rng.randint(0, 2)):
        f = rng.choice(facets)
        facets.append(rng.choice((f, f[: rng.randint(1, len(f))], [rng.randint(1, n)])))
    return facets


def _order_ideal(n, gens):
    """The componentwise order ideal of ``gens`` on 1..n: every face that lies
    entrywise below some equally long subset of a generator, pure or not."""
    faces = [
        f
        for r in range(1, n + 1)
        for f in combinations(range(1, n + 1), r)
        if any(all(a <= b for a, b in zip(f, h)) for g in gens for h in combinations(sorted(g), r))
    ]
    return from_facets(n, faces)


class TestRebuildsFromFacets:
    def test_delete_and_link_match_their_face_expansion(self):
        rng = random.Random(REBUILD_SEED)
        cases = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            facets = _facet_list(rng, n)
            present = set().union(*map(set, facets))
            missing = sorted(set(range(1, n + 1)) - present)
            vertices = [0, n + 1, *rng.sample(sorted(present), min(2, len(present)))]
            vertices += missing[:1]
            # the raw generators keep their nested facets; from_facets drops them
            for S in (from_facets(n, facets), SimplicialComplex(n, frozenset(map(frozenset, facets)))):
                for v in vertices:
                    assert _outcome(delete_and_link, S, v) == _outcome(delete_and_link_by_faces, S, v)
                    cases += 1
        assert cases >= 2000

    def test_shifted_complex_and_signatures_match_their_frozen_copies(self):
        for gens in ([], [[]], [[0, 1]], [[2, 4]], [[True, 2]]):
            assert _outcome(shifted_complex, 3, gens) == _outcome(shifted_complex_by_own_filter, 3, gens)
        rng = random.Random(REBUILD_SEED + 1)
        impure = shifted = 0
        for i in range(300):
            n = rng.randint(3, 6)
            gens = [rng.sample(range(1, n + 1), rng.randint(1, n)) for _ in range(rng.randint(1, 3))]
            if i % 2:
                # a low face and the top vertex alone close to a complex that is not pure
                gens = [rng.sample(range(1, n), rng.randint(2, n - 1)), [n]]
            got = _outcome(shifted_complex, n, gens)
            assert got == _outcome(shifted_complex_by_own_filter, n, gens)
            impure += got == (ValueError, "generators produce a non-pure complex")
            # the order ideal of the same generators, pure or not, and a raw facet list
            for S in (_order_ideal(n, gens), from_facets(n, _facet_list(rng, n))):
                assert _outcome(shifted_signatures, S) == _outcome(shifted_signatures_by_faces, S)
                shifted += is_shifted(S)
        # non-pure closures must be refused, and many signatures read
        assert impure >= 150 and shifted >= 300
