"""Differential corpus: the depth-first enumerators of the oracle against the
frozen loops that tested every subset of the right size from scratch."""

import random
import sys
import tracemalloc
from fractions import Fraction
from math import comb, prod

import pytest

from cellforest import io as cfio
from cellforest import linalg, oracle
from cellforest.cli import main
from cellforest.complexes import WeightAssignment, dual_complex, from_facets
from cellforest.families import named_complex, named_simplicial, simplex_skeleton
from cellforest.homology import betti, homology, torsion
from cellforest.linalg import _greedy_path, _sparse_columns
from cellforest.matrix_forest import format_exact
from cellforest.oracle import (
    CapExceeded,
    _defect_context,
    _independent_subsets,
    cobase_defect_enumerator,
    enumerate_cobases,
    enumerate_forests,
    enumerate_rooted_forests,
    rooted_forest_torsion_sums,
    tau_bruteforce,
    tau_weighted_bruteforce,
)
from cellforest.verify import run_suite

import frozen
from corpus import (
    CORPUS,
    SEED,
    conjugated_smith_complexes,
    middle_homology_complexes,
    random_flag_complexes,
    random_formal_duals,
    random_sparse_columns,
    random_weights,
)
from frozen import (
    cobase_defect_enumerator_by_cobases,
    cobases_by_combinations,
    forests_by_combinations,
    independent_subsets_recursive,
    independent_subsets_unpruned,
    rooted_forests_by_combinations,
    rooted_sums_by_row_sets,
)


# the frozen loops run only where the subset count their cap checks stays
# below these; beyond them they take seconds per instance
FROZEN_CAP = {"forests": 60_000, "cobases": 3_003, "rooted": 12_000}
# the frozen rooted sums run a column search per row set: their cost follows
# the number of (facets, faces) pairs, not their own count of row sets
SUMS_PAIRS = 130_000


def frozen_or_none(frozen, *args, what):
    try:
        return frozen(*args, cap=FROZEN_CAP[what])
    except CapExceeded:
        return None


def test_forest_census_matches_frozen_loop():
    leaves = []
    compared = 0
    for X in CORPUS:
        for k in range(X.dim + 1):
            want = frozen_or_none(forests_by_combinations, X, k, what="forests")
            if want is None:
                continue
            got = enumerate_forests(X, k)
            assert got == want
            assert all(type(t) is int for _, t in got.forests)
            cols = _sparse_columns(X.boundaries[k])
            minors = [minor for _, minor in _independent_subsets(cols, got.rank)]
            leaves += [(minor, t) for minor, (_, t) in zip(minors, got.forests)]
            compared += 1
    assert compared >= 35
    # a minor of 1 proves torsion 1; the other leaves need their Smith form,
    # and either kind must occur or a shortcut that is always (or never)
    # taken would pass unseen
    assert any(minor > 1 and t == 1 for minor, t in leaves)
    assert any(t == 2 for _, t in leaves)


def test_cobases_match_frozen_loop():
    compared = 0
    for X in CORPUS:
        for k in range(X.dim):
            want = frozen_or_none(cobases_by_combinations, X, k, what="cobases")
            if want is None:
                continue
            assert enumerate_cobases(X, k) == want
            compared += 1
    assert compared >= 20


def outcome(enumerator, X, k, cap=None):
    """The enumerator's value, or the type and text of its refusal."""
    try:
        return enumerator(X, k, cap=cap)
    except (ValueError, CapExceeded) as exc:
        return type(exc), str(exc)


def test_cobase_enumerator_matches_frozen_cobase_route():
    # where beta_k = 0 the enumerator walks the forests of d_k, elsewhere the
    # cobases; the frozen route walks the cobases everywhere
    levels = {"forests": 0, "cobases": 0, ValueError: 0, CapExceeded: 0}
    cap = FROZEN_CAP["cobases"]
    for X in (
        CORPUS
        + random_flag_complexes(random.Random(SEED), 16)
        + random_formal_duals(random.Random(SEED), 12)
        + conjugated_smith_complexes(random.Random(SEED), 20)
        + middle_homology_complexes(random.Random(SEED), 20)
    ):
        for k in range(X.dim):
            got = outcome(cobase_defect_enumerator, X, k, cap)
            assert got == outcome(cobase_defect_enumerator_by_cobases, X, k, cap)
            if type(got) is tuple:
                levels[got[0]] += 1
            else:
                levels["forests" if _defect_context(X, k)[1] is None else "cobases"] += 1
    assert levels == {"forests": 123, "cobases": 61, ValueError: 14, CapExceeded: 15}


def test_cobase_enumerator_counts_the_twisted_roots_of_K_6_3():
    # Kalai: the squared torsions of the 2-forests of K_6 sum to 6^C(4,2); the
    # roots at k = 2 of K_6^3 are those forests, RP^2 triangulations among
    # them, where a row-side search would walk C(20,10) = 184,756 cobases
    assert cobase_defect_enumerator(simplex_skeleton(6, 3).to_chain_complex(), 2) == 6**6


def test_cobase_enumerator_keeps_every_refusal():
    # above the top level there is no (k+1)-st boundary, on either branch
    branches = set()
    for X in CORPUS:
        got = outcome(cobase_defect_enumerator, X, X.dim)
        assert got == outcome(cobase_defect_enumerator_by_cobases, X, X.dim)
        assert got == (ValueError, f"boundary index {X.dim + 1} out of range for a {X.dim}-complex")
        branches.add(_defect_context(X, X.dim)[1] is None)
    assert branches == {True, False}
    # the formal duals' augmentation composes to nonzero at k = 0
    for name in ("moebius", "rp2_six_vertex"):
        with pytest.raises(ValueError, match=r"d_0 d_1 != 0 at level 0"):
            cobase_defect_enumerator(dual_complex(named_complex(name)), 0)
    # beta_1 = 0 on rp2_six_vertex, so its roots are forests, but the cap
    # still counts its C(15,10) cobases
    rp2 = named_complex("rp2_six_vertex")
    with pytest.raises(CapExceeded) as exc:
        cobase_defect_enumerator(rp2, 1, cap=3_002)
    assert str(exc.value) == "cobase enumeration at k=1 needs 3003 subsets, cap is 3002"
    assert outcome(cobase_defect_enumerator_by_cobases, rp2, 1, 3_002) == (CapExceeded, str(exc.value))


def test_rooted_forests_match_frozen_loop():
    compared = 0
    for X in CORPUS:
        want = frozen_or_none(rooted_forests_by_combinations, X, what="rooted")
        if want is None:
            continue
        assert enumerate_rooted_forests(X) == want
        compared += 1
    assert compared >= 5


def test_rooted_sums_match_frozen_loop():
    compared = 0
    for X in CORPUS:
        b = X.boundaries[X.dim]
        if comb(b.nrows + b.ncols, b.ncols) > SUMS_PAIRS:
            continue
        got = rooted_forest_torsion_sums(X)
        assert got == rooted_sums_by_row_sets(X)
        assert all(type(c) is int for c in got)
        compared += 1
    assert compared >= 15


def test_betti_and_torsion_match_homology():
    for X in CORPUS:
        for k in range(X.dim + 1):
            h = homology(X, k)
            assert (betti(X, k), torsion(X, k)) == (h.betti, h.torsion_order)
        with pytest.raises(ValueError, match="out of range"):
            betti(X, X.dim + 1)
    assert any(torsion(X, 1) == 2 for X in CORPUS)


def test_search_yields_lexicographic_independent_sets():
    cols = [{0: 1}, {0: 2}, {1: 3}, {}, {0: 1, 1: 1}]
    assert list(_independent_subsets(cols, 0)) == [((), 1)]
    assert list(_independent_subsets(cols, 2)) == [
        ((0, 2), 3), ((0, 4), 1), ((1, 2), 6), ((1, 4), 2), ((2, 4), 3),
    ]
    assert list(_independent_subsets(cols, 3)) == []


# a node two short of a leaf reads each leaf's pivot off pv*w - c*v, c = w[pr],
# walked as ``linalg._eliminate`` stores it (w's rows, then v's other rows):
# one column list per branch, with its leaves of size 2 worked by hand
LEAF_STEPS = {
    # c = 0: w's own pivot, its first +-1 (row 2) or else its last entry (3)
    "c is 0": ([{0: 1}, {1: 2, 2: 3}, {1: 2, 2: -1}], [((0, 1), 3), ((0, 2), 1), ((1, 2), 8)]),
    # pv*w - c*v = {1: -1, 2: -6}
    "+-1 among w's rows": ([{0: 1, 2: 3}, {0: 2, 1: -1}], [((0, 1), 1)]),
    # {2: 2, 1: 1}: the 1 comes from v's row 1, which w lacks
    "+-1 among v's rows only": ([{0: 1, 1: -1}, {0: 1, 2: 2}], [((0, 1), 1)]),
    # {2: 4, 3: 2, 1: -2}, content 2 at its second entry; on (1, 2) the
    # content 4 is the first entry, and on (2, 3) the pivot is pv = 4
    "content h > 1": ([{0: 1, 1: 2}, {0: 1, 2: 4, 3: 2}, {0: 2, 1: 4}, {0: 1, 1: 1}],
                      [((0, 1), 2), ((0, 3), 1), ((1, 2), 4), ((1, 3), 1), ((2, 3), 2)]),
    # {2: 4, 3: 10, 1: -6}: no entry +-2, so the last stored one, from v
    "no entry +-h": ([{0: 1, 1: 6}, {0: 1, 2: 4, 3: 10}], [((0, 1), 6)]),
    # -2v and 3v reduce to zero and give no leaf, so v = {0: -2, 1: -4} at
    # position 2, with only 3v after it, is a dead child of the root
    "parallel to v": ([{0: 1, 1: 2}, {1: 1}, {0: -2, 1: -4}, {0: 3, 1: 6}],
                      [((0, 1), 1), ((1, 2), 2), ((1, 3), 3)]),
}


@pytest.mark.parametrize("case", LEAF_STEPS)
def test_each_leaf_step_matches_the_frozen_search(case):
    cols, leaves = LEAF_STEPS[case]
    assert list(_independent_subsets(cols, 2)) == leaves
    for size in range(len(cols) + 2):
        assert list(_independent_subsets(cols, size)) == list(independent_subsets_unpruned(cols, size))


def counting_eliminate(monkeypatch, module, interior=False):
    """Count the calls that ``module`` makes to ``_eliminate`` in a list of one;
    with ``interior``, only those made where the caller's ``need`` exceeds 2:
    the nodes at which the oracle's search still eliminates, as it reads the
    leaves below a node two short of a leaf off its pivot column."""
    calls = [0]
    eliminate = module._eliminate

    def counted(*args):
        calls[0] += not interior or sys._getframe(1).f_locals["need"] > 2
        return eliminate(*args)

    monkeypatch.setattr(module, "_eliminate", counted)
    return calls


def test_search_matches_frozen_unpruned_search(monkeypatch):
    # the oracle eliminates only where need > 2, so the frozen search's calls
    # two short of a leaf would make every search look pruned
    pruned = counting_eliminate(monkeypatch, oracle)
    unpruned = counting_eliminate(monkeypatch, frozen, interior=True)
    rng = random.Random(SEED)
    fewer = 0
    for _ in range(800):
        cols = random_sparse_columns(rng)
        r = len(_greedy_path(cols)[0])
        for size in range(r + 2):
            before = pruned[0], unpruned[0]
            want = list(independent_subsets_unpruned(cols, size))
            assert list(_independent_subsets(cols, size)) == want
            fewer += pruned[0] - before[0] < unpruned[0] - before[1]
    # the corpus must reach dead siblings, or the sibling rule goes untested
    assert fewer >= 200


def test_search_does_the_work_of_the_frozen_recursive_search(monkeypatch):
    stack = counting_eliminate(monkeypatch, oracle)
    recursive = counting_eliminate(monkeypatch, frozen, interior=True)
    rng = random.Random(SEED)
    deep = 0
    for _ in range(400):
        cols = random_sparse_columns(rng)
        r = len(_greedy_path(cols)[0])
        for size in range(r + 2):
            stack[0] = recursive[0] = 0
            # each leaf with the eliminations made before it, then the total:
            # the same order, minors, work and laziness
            want = [(leaf, recursive[0]) for leaf in independent_subsets_recursive(cols, size)]
            assert [(leaf, stack[0]) for leaf in _independent_subsets(cols, size)] == want
            assert stack[0] == recursive[0]
            deep += size >= 3 and stack[0] > size - 2
    # searches that push frames below the root and leave their leftmost path
    # must occur, or the stack's pops go untested
    assert deep >= 100


def test_census_search_stops_at_the_first_dead_sibling(monkeypatch):
    calls = counting_eliminate(monkeypatch, oracle)
    # past the census cache, which an earlier test may have filled
    census = enumerate_forests.__wrapped__(simplex_skeleton(6, 2).to_chain_complex())
    assert len(census.forests) == 46_620
    # the search without the sibling rule makes 54,469 calls; with it, and
    # eliminating at every node short of a leaf, it made 66,834
    assert calls[0] == 31_401


def test_census_search_reaches_its_first_leaf_after_one_elimination_per_pivot_but_the_last_two(monkeypatch):
    calls = counting_eliminate(monkeypatch, oracle)
    cols = _sparse_columns(simplex_skeleton(6, 2).to_chain_complex().boundaries[2])
    search = _independent_subsets(cols, 10)
    assert calls[0] == 0
    # each pivot but the last two reduces the columns after it, and the ninth
    # reads the tenth column's pivot off that column, so the first of ten
    # columns is reached after eight eliminations
    assert next(search) == ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9), 1)
    assert calls[0] == 8


def test_cobase_enumerator_on_a_path_is_one_search_over_its_vertices(monkeypatch):
    # beta_0 = 0, so the 400 roots are the single vertices, the forests of the
    # augmentation row: a search of size one makes no elimination, and each
    # of the two ranks of d_1 makes one per pivot.  The row-side cobase
    # search made 80,998.
    n = 400
    X = from_facets(n, [{i, i + 1} for i in range(1, n)]).to_chain_complex()
    search, ranks = counting_eliminate(monkeypatch, oracle), counting_eliminate(monkeypatch, linalg)
    assert cobase_defect_enumerator(X, 0) == n
    assert search[0] == 0
    assert ranks[0] < 2 * n


def test_bruteforce_census_depth_is_not_bound_by_the_recursion_limit(tmp_path, capsys):
    # the spanning tree of a 1,200-vertex path is one leaf 1,199 pivots deep
    path = tmp_path / "path.txt"
    path.write_text(cfio.serialize_complex(from_facets(1200, [{i, i + 1} for i in range(1, 1200)])))
    assert main(["tau", str(path), "--method", "bruteforce"]) == 0
    assert "value: 1\n" in capsys.readouterr().out


def test_caps_fire_before_enumeration_with_unchanged_counts():
    k62, rp2 = simplex_skeleton(6, 2).to_chain_complex(), named_complex("rp2_six_vertex")
    # C(20,10) forest candidates of K_6^2; on rp2_six_vertex (15 edges, 10
    # triangles, rank 10) C(15,10) row sets, and for both rooted searches
    # sum_{s<=10} C(10,s) C(15,s) (facets, faces) pairs
    for call, count, what in (
        (lambda cap: enumerate_forests(k62, 2, cap=cap), 184_756, "forest census at k=2"),
        (lambda cap: enumerate_cobases(rp2, 1, cap=cap), 3_003, "cobase enumeration at k=1"),
        (lambda cap: enumerate_rooted_forests(rp2, cap=cap), 3_268_760, "rooted forest enumeration"),
        (lambda cap: rooted_forest_torsion_sums(rp2, cap=cap), 3_268_760, "rooted forest torsion sums"),
    ):
        with pytest.raises(CapExceeded) as exc:
            call(count - 1)
        assert str(exc.value) == f"{what} needs {count} subsets, cap is {count - 1}"


def test_rooted_sums_cap_counts_the_pairs_they_visit():
    # the search visits (facets, faces) pairs, so the cap counts those:
    # sum_{s<=6} C(10,s)^2 on K_5^2, where only 848 row sets have size <= 6,
    # and sum_{s<=10} C(20,s) C(15,s) on K_6^2, refused before any search
    k52, k62 = (simplex_skeleton(n, 2).to_chain_complex() for n in (5, 6))
    with pytest.raises(CapExceeded) as exc:
        rooted_forest_torsion_sums(k52, cap=848)
    assert str(exc.value) == "rooted forest torsion sums needs 168230 subsets, cap is 848"
    with pytest.raises(CapExceeded) as exc:
        rooted_forest_torsion_sums(k62)
    assert str(exc.value) == "rooted forest torsion sums needs 2952624906 subsets, cap is 5000000"


@pytest.mark.parametrize("S", [simplex_skeleton(5, 2), named_simplicial("rp2_six_vertex")])
def test_census_export_matches_frozen_census(S, tmp_path):
    path, census = tmp_path / "S.txt", tmp_path / "census.txt"
    path.write_text(cfio.serialize_complex(S))
    assert main(["tau", str(path), "--method", "bruteforce", "--census", str(census)]) == 0
    X = S.to_chain_complex()
    lines = (cfio.census_line(X.labels(2), f, t) for f, t in forests_by_combinations(X).forests)
    assert census.read_text() == "".join(lines)


def test_bruteforce_cap_of_one_exits_3(tmp_path, capsys):
    path = tmp_path / "k52.txt"
    assert main(["gen", "simplex-skeleton", "5", "2", "--out", str(path)]) == 0
    assert main(["tau", str(path), "--method", "bruteforce", "--cap", "1"]) == 3
    assert capsys.readouterr().err == "cap exceeded: forest census at k=2 needs 210 subsets, cap is 1\n"


def test_census_sums_keep_no_forests():
    # K_7^1 has 7^5 = 16,807 spanning trees.  Kept as a census they peak at
    # about 2.4 MiB; the sums walk the search and keep a few KiB.  With vertex
    # weights v, the trees sum to prod(v) * sum(v)^(n-2) (Cayley).
    S = simplex_skeleton(7, 1)
    X, v = S.to_chain_complex(), [Fraction(i, i + 1) for i in range(1, 8)]
    w = WeightAssignment.from_vertex_weights(S, v)
    tau_bruteforce(X)  # anything built once per complex is built outside the trace
    for call, want in (
        (lambda: tau_bruteforce(X), 7**5),
        (lambda: tau_weighted_bruteforce(X, 1, w), prod(v) * sum(v) ** 5),
    ):
        enumerate_forests.cache_clear()  # a census kept there would show in the peak
        tracemalloc.start()
        try:
            got, (_, peak) = call(), tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 2**19


def test_census_routes_leave_the_census_cache_empty():
    # every route sums over ``forest_search``; only callers of
    # ``enumerate_forests`` fill its cache
    enumerate_forests.cache_clear()
    assert all(row.status != "FAIL" for row in run_suite("all", seed=1))
    assert enumerate_forests.cache_info().currsize == 0


def test_weighted_census_sums_match_the_fraction_sum(tmp_path, capsys):
    # the library and the CLI scale the weights to integers by the lcm q of
    # their denominators and divide by q^r once; both give the sum of one
    # Fraction product per forest, here on seeded weights over CORPUS
    path, wpath = tmp_path / "X.txt", tmp_path / "w.txt"
    for n, X in enumerate(CORPUS):
        w = random_weights(random.Random(SEED + n), X)
        path.write_text(cfio.serialize_complex(X))
        wpath.write_text(cfio.serialize_weights(w))
        for k in range(1, X.dim + 1):
            ws = w.cell_weights(X, k)
            want = sum((t * t * prod(ws[i] for i in f) for f, t in oracle.forest_search(X, k)), Fraction(0))
            assert tau_weighted_bruteforce(X, k, w) == want, (n, k)
            argv = ["tau", str(path), "--k", str(k), "--method", "bruteforce", "--weights", str(wpath)]
            assert main(argv) == 0
            assert f"\nvalue: {format_exact(want)}\n" in capsys.readouterr().out, (n, k)
