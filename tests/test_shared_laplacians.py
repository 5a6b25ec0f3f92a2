"""Routes on one complex share its unit Laplacians and their spectra.

``complexes.laplacian`` (kinds ``ud`` and ``du``) and the unweighted
``matrix_forest._level_gram`` return the one ``Matrix`` that
``complexes._unit_gram`` keeps on each side of a stored boundary, and that
matrix memoizes its invariant factors and its characteristic polynomial.  So
a second route reads the Smith form or the spectrum that the first one took.
A weighted Laplacian is built anew on each call.  The memos hang off the
boundaries alone, so dropping a complex frees them by reference counting.
"""

import gc
import random
import tracemalloc

from cellforest import linalg
from cellforest import matrix_forest as mf
from cellforest.complexes import laplacian, weighted_laplacian, weighted_laplacian_similar
from cellforest.critical import critical_group, sequence_order_check
from cellforest.families import complete_colorful, named_complex, simplex_skeleton

from corpus import random_weights


def _complexes():
    # fresh objects, so no earlier test has filled their memos
    return [
        named_complex("bipyramid"),
        named_complex("moebius"),
        simplex_skeleton(7, 3).to_chain_complex(),
        complete_colorful(2, 2, 2).to_chain_complex(),
    ]


def test_one_laplacian_per_boundary_and_side():
    for X in _complexes():
        for k in range(-1, X.dim):
            L = laplacian(X, k, "ud")
            assert laplacian(X, k, "ud") is L
            assert L == X.boundaries[k + 1] * X.boundaries[k + 1].transpose()
        for k in range(X.dim + 1):
            L = laplacian(X, k, "du")
            assert laplacian(X, k, "du") is L
            assert L == X.boundaries[k].transpose() * X.boundaries[k]
        # each level factor is one of the two sides of its boundary
        for k in range(X.dim + 1):
            G = mf._level_gram(X, k)
            if X.n_cells(k) < X.n_cells(k - 1):
                assert G is laplacian(X, k, "du")
            else:
                assert G is laplacian(X, k - 1, "ud")


def test_critical_group_and_sequence_check_share_one_smith_form(monkeypatch):
    cores = []
    smith = linalg._smith

    def counted(A, left, right):
        cores.append(tuple(map(tuple, A)))
        return smith(A, left, right)

    monkeypatch.setattr(linalg, "_smith", counted)
    X = named_complex("bipyramid")
    critical_group(X, X.dim - 1)
    (laplacian_core,) = cores
    sequence_order_check(X)
    assert cores.count(laplacian_core) == 1


def test_alternating_after_pseudodet_takes_no_new_polynomial(monkeypatch):
    calls = []
    hessenberg = linalg._hessenberg_char_poly_mod

    def counted(N, p):
        calls.append(len(N))
        return hessenberg(N, p)

    monkeypatch.setattr(linalg, "_hessenberg_char_poly_mod", counted)
    X = simplex_skeleton(7, 3).to_chain_complex()
    first = mf.tau_pseudodet(X).value
    assert calls
    calls.clear()
    assert mf.tau_alternating(X).value == first
    assert calls == []


def test_a_weighted_laplacian_is_built_anew_on_each_call():
    for X in _complexes():
        w = random_weights(random.Random(X.n_cells(X.dim)), X)
        for k in range(X.dim + 1):
            for build in (weighted_laplacian, weighted_laplacian_similar, mf._level_gram):
                L = build(X, k, w)
                again = build(X, k, w)
                assert again is not L and again == L


def test_dropping_a_complex_frees_its_memos():
    def run():
        X = simplex_skeleton(7, 3).to_chain_complex()
        mf.tau_pseudodet(X)
        mf.tau_alternating(X)
        for i in range(X.dim):
            critical_group(X, i)
        return X

    # with the collector off, only reference counting frees anything, so a
    # memo in a reference cycle, or in a module-level cache, would stay
    gc.disable()
    tracemalloc.start()
    try:
        run()  # the interpreter's free lists fill on the first run
        start = tracemalloc.get_traced_memory()[0]
        X = run()
        assert all(b._grams is not None for b in X.boundaries[1:])
        held = tracemalloc.get_traced_memory()[0] - start
        del X
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
        gc.enable()
    # the complex with its Laplacians, factors and polynomials is about
    # 70 KB; what stays is the free lists' growth, a few KB
    assert held > 50_000
    assert left < held / 4
