"""Differential corpus: the integer-only lattice routes and the sparse Gram
Laplacians against the frozen solve-based routines and dense products."""

import random
from fractions import Fraction

import pytest

from cellforest import linalg, oracle
from cellforest.complexes import (
    WeightAssignment,
    boundary_matrix,
    dual_complex,
    face_label,
    laplacian,
    skeleton,
    weighted_laplacian,
    weighted_laplacian_similar,
)
from cellforest.critical import fundamental_vectors
from cellforest.families import (
    complete_colorful,
    hypercube_complex,
    named_complex,
    named_simplicial,
    simplex_skeleton,
)
from cellforest.homology import forest_torsion
from cellforest.linalg import Matrix, greedy_row_basis
from cellforest.matrix_forest import _level_gram, tau_covolume
from cellforest.oracle import (
    CapExceeded,
    _defect_context,
    _kernel_defect,
    cobase_defect_enumerator,
    enumerate_cobases,
    enumerate_forests,
)

from corpus import (
    SEED,
    TORSION_BELOW,
    conjugated_smith_complexes,
    middle_homology_complexes,
    random_pure_2_complexes,
)
from frozen import (
    bonds_by_kernel,
    circuits_by_solve,
    defect_context_by_quotient,
    dense_laplacian,
    dense_product,
    kernel_defect_by_quotient,
    tau_covolume_by_solve,
)

NAMED = ("moebius", "annulus", "bipyramid", "rp2_six_vertex", "rp2_cell")


# formal duals: d_0 d_1 != 0, so their level-0 defects are undefined
DUALS = [dual_complex(named_complex("moebius")), dual_complex(named_complex("rp2_six_vertex"))]
CORPUS = (
    [named_complex(name) for name in NAMED]
    + [
        simplex_skeleton(5, 2).to_chain_complex(),
        complete_colorful(2, 2, 2).to_chain_complex(),
        hypercube_complex(3),
    ]
    + DUALS
    + random_pure_2_complexes(random.Random(SEED), 8)
)


def random_weights(rng, X):
    return WeightAssignment(
        {
            (k, i): Fraction(rng.randint(1, 9), rng.randint(1, 6))
            for k in range(X.dim + 1)
            for i in range(X.n_cells(k))
        }
    )


def some_cobases(rng, X, k, sample=30):
    """Every cobase at level k when there are at most 150, else a seeded sample."""
    try:
        cobases = enumerate_cobases(X, k, cap=2000)
    except CapExceeded:
        # greedy row bases of randomly permuted rows
        b = boundary_matrix(X, k + 1)
        found = set()
        for _ in range(sample):
            order = rng.sample(range(b.nrows), b.nrows)
            rows = greedy_row_basis(b.submatrix(order, range(b.ncols)))
            found.add(tuple(sorted(order[i] for i in rows)))
        return sorted(found)
    return cobases if len(cobases) <= 150 else rng.sample(cobases, sample)


def entry_types(M):
    return [type(x) for row in M.data for x in row]


def dense_level_grams(X, k, W, S):
    """(S d W d^T, W d^T S d) for d = d_k and diagonal factors W, S, each a
    dense product."""
    d = boundary_matrix(X, k)
    dt = d.transpose()
    return dense_product(dense_product(S, d), dense_product(W, dt)), dense_product(
        dense_product(W, dt), dense_product(S, d)
    )


def test_laplacians_match_dense_products():
    def check(got, want, types=None):
        assert got == want
        assert entry_types(got) == entry_types(want) and got.is_integral == want.is_integral
        assert types is None or set(entry_types(got)) <= types

    rng = random.Random(SEED)
    checked, sides = 0, set()
    for X in CORPUS:
        for kind, ks in (
            ("ud", range(-1, X.dim)),
            ("du", range(0, X.dim + 1)),
            ("tot", range(0, X.dim)),
        ):
            for k in ks:
                check(laplacian(X, k, kind), dense_laplacian(X, k, kind), {int})
                checked += 1
        w = random_weights(rng, X)
        for k in range(X.dim + 1):
            W = Matrix.diagonal(w.cell_weights(X, k))
            S = Matrix.diagonal([1 / x for x in w.cell_weights(X, k - 1)])
            one_k, one_below = Matrix.identity(X.n_cells(k)), Matrix.identity(X.n_cells(k - 1))
            plain, weighted, similar = (
                dense_level_grams(X, k, *factors) for factors in ((one_k, one_below), (W, one_below), (W, S))
            )
            check(weighted_laplacian(X, k, w), weighted[0])
            check(weighted_laplacian_similar(X, k, w), similar[0])
            # the k-cells' side when they are fewer, else the (k-1)-cells'
            side = X.n_cells(k) < X.n_cells(k - 1)
            sides.add(side)
            for args, want, types in (((), plain, {int}), ((w,), weighted, None), ((w, True), similar, None)):
                check(_level_gram(X, k, *args), want[side], types)
            checked += 5
    assert checked > 300 and sides == {False, True}


def test_covolume_matches_solve_unweighted_and_weighted():
    rng = random.Random(SEED)
    for X in CORPUS:
        for w in (None, random_weights(rng, X)):
            got, want = tau_covolume(X, w), tau_covolume_by_solve(X, w)
            assert got == want
            assert type(got.value) is type(want.value)


def test_kernel_defects_match_quotient_orders():
    rng = random.Random(SEED)
    defects = []
    for X in CORPUS:
        for k in range(X.dim):
            try:
                ker, sat = _defect_context(X, k)
            except ValueError:
                assert any(X is Y for Y in DUALS) and k == 0
                continue
            old = defect_context_by_quotient(X, k)
            assert ker is None or ker == old[1]
            for cobase in some_cobases(rng, X, k):
                got = _kernel_defect(ker, sat, cobase)
                assert got == kernel_defect_by_quotient(*old, cobase)
                assert type(got) is int
                defects.append(got)
    assert len(defects) > 500
    # defects above 1 are rare; without one the product formula goes untested
    assert any(d > 1 for d in defects)


def test_defect_rank_deficit_raises_both_ways():
    X = named_complex("moebius")
    everything = tuple(range(X.n_cells(1)))
    with pytest.raises(ValueError, match="infinite defect"):
        _kernel_defect(*_defect_context(X, 1), everything)
    with pytest.raises(ValueError, match="infinite defect"):
        kernel_defect_by_quotient(*defect_context_by_quotient(X, 1), everything)


def defect_or_refusal(defect, *args):
    """The defect, or ``None`` when the selection does not span."""
    try:
        return defect(*args)
    except ValueError as exc:
        assert "infinite defect" in str(exc)
        return None


def test_kernel_defects_match_quotient_orders_on_any_selection():
    # the projection rule holds for every selection, not only for cobases:
    # the empty one, all cells, and seeded subsets of every size
    rng = random.Random(SEED)
    outcomes = []
    for X in (
        CORPUS
        + [TORSION_BELOW]
        + conjugated_smith_complexes(random.Random(SEED + 2), 20)
        + middle_homology_complexes(random.Random(SEED + 3), 20)
    ):
        for k in range(X.dim + 1):
            try:
                context = _defect_context(X, k)
            except ValueError:
                assert any(X is Y for Y in DUALS) and k == 0
                continue
            old = defect_context_by_quotient(X, k)
            n = X.n_cells(k)
            selections = [(), tuple(range(n))] + [
                tuple(sorted(rng.sample(range(n), rng.randint(0, n)))) for _ in range(12)
            ]
            for cells in selections:
                got = defect_or_refusal(_kernel_defect, *context, cells)
                assert got == defect_or_refusal(kernel_defect_by_quotient, *old, cells)
                outcomes.append(got)
    assert None in outcomes and 1 in outcomes
    assert any(d is not None and d > 1 for d in outcomes)


def test_kernel_defects_match_quotient_orders_on_conjugated_smith_forms():
    # top boundaries U D V with entries of every size: defects above 1 are
    # common here, where the named and random complexes give a handful
    defects = []
    for X in conjugated_smith_complexes(random.Random(SEED + 1), 200):
        ker, sat = _defect_context(X, 1)
        old = defect_context_by_quotient(X, 1)
        for cobase in enumerate_cobases(X, 1):
            got = _kernel_defect(ker, sat, cobase)
            assert got == kernel_defect_by_quotient(*old, cobase)
            defects.append(got)
    assert sum(d > 1 for d in defects) >= 300


def test_kernel_defects_match_quotient_orders_where_the_projected_kernel_has_torsion():
    # the divisor of the projection rule: ker d_2 projected onto a cobase is
    # often not saturated here, and on no cobase of CORPUS
    divided = 0
    for X in middle_homology_complexes(random.Random(SEED), 60):
        ker, sat = _defect_context(X, 2)
        old = defect_context_by_quotient(X, 2)
        for cobase in enumerate_cobases(X, 2):
            assert _kernel_defect(ker, sat, cobase) == kernel_defect_by_quotient(*old, cobase)
            divided += linalg.torsion_order(ker.submatrix(cobase, range(ker.ncols))) > 1
    assert divided >= 100


def test_defect_enumerator_takes_one_kernel_basis_per_level(monkeypatch):
    # kernel_lattice_basis runs once for ker d_1 and twice inside the
    # saturation, however many cobases the level has
    calls = []
    basis = linalg.kernel_lattice_basis

    def counted(M):
        calls.append(M.shape)
        return basis(M)

    monkeypatch.setattr(linalg, "kernel_lattice_basis", counted)
    monkeypatch.setattr(oracle, "kernel_lattice_basis", counted)
    for name in ("moebius", "annulus"):
        X = named_complex(name)
        calls.clear()
        cobase_defect_enumerator(X, 1)
        assert len(enumerate_cobases(X, 1)) > 100
        assert len(calls) == 3


def test_defect_enumerator_matches_quotient_orders():
    for X in (named_complex("moebius"), named_complex("bipyramid")):
        k = X.dim - 1
        old = defect_context_by_quotient(X, k)
        want = 0
        for cobase in enumerate_cobases(X, k):
            root = sorted(set(range(X.n_cells(k))) - set(cobase))
            t = forest_torsion(X, root, k)
            defect = kernel_defect_by_quotient(*old, cobase)
            want += t * t * defect * defect
        assert cobase_defect_enumerator(X, k) == want


def test_circuits_match_solve():
    pairs = []
    for X in (
        named_complex("bipyramid"),
        simplex_skeleton(5, 2).to_chain_complex(),
        complete_colorful(2, 2, 2).to_chain_complex(),
        skeleton(hypercube_complex(3), 1),
        simplex_skeleton(4, 1).to_chain_complex(),
    ):
        forests = enumerate_forests(X).forests
        pairs += [(X, forests[0][0]), (X, forests[-1][0])]
    # the six-vertex RP^2 is a spanning tree of K_6^2 with torsion 2, so the
    # solve gives non-integral coordinates there
    K62 = simplex_skeleton(6, 2).to_chain_complex()
    labels = K62.labels(2)
    rp2 = [labels.index(face_label(sorted(f))) for f in named_simplicial("rp2_six_vertex").facets]
    assert forest_torsion(K62, rp2) == 2
    pairs.append((K62, tuple(sorted(rp2))))
    circuits = []
    bonds = []
    for X, tree in pairs:
        got_bonds, got = fundamental_vectors(X, tree)
        assert got == circuits_by_solve(X, tree)
        assert got_bonds == bonds_by_kernel(X, tree)
        assert all(type(x) is int for vec in got.values() for x in vec)
        assert all(type(x) is int for vec in got_bonds.values() for x in vec)
        circuits += got.values()
        bonds += got_bonds.values()
    assert len(circuits) >= 40
    assert any(abs(x) > 1 for vec in circuits for x in vec)
    assert len(bonds) >= 40
    assert any(abs(x) > 1 for vec in bonds for x in vec)
