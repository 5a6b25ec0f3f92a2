import pytest

from cellforest.complexes import ChainComplex, skeleton
from cellforest.critical import (
    AbelianGroupStructure,
    critical_group,
    critical_group_reduced,
    cut_lattice,
    discriminant_group,
    flow_lattice,
    fundamental_vectors,
    sequence_order_check,
)
from cellforest.families import hypercube_complex, hypercube_tree_count, named_complex, simplex_skeleton
from cellforest.linalg import Matrix
from cellforest.matrix_forest import tau_reduced
from cellforest import oracle
from cellforest.oracle import (
    CapExceeded,
    enumerate_forests,
    first_torsion_free_forest,
    tau_bruteforce,
)

from corpus import CORPUS
from frozen import lattice_quotient_order_by_gauss_jordan


class TestCriticalGroup:
    def test_k3_cyclic(self, k3):
        K = critical_group(k3, 0)
        assert K == AbelianGroupStructure((3,))
        assert str(K) == "Z/3"

    def test_order_equals_forest_count(self, k3, k4, bipyramid, rp2_six):
        for X in (k3, k4, bipyramid, rp2_six):
            for i in range(X.dim):
                assert critical_group(X, i).order == tau_bruteforce(X, i + 1)

    def test_both_constructions_agree(self, k3, k4, bipyramid, rp2_six):
        for X in (k3, k4, bipyramid, rp2_six):
            for i in range(X.dim):
                reduced = critical_group_reduced(X, i)
                if reduced is not None:
                    assert reduced == critical_group(X, i)

    def test_reduced_needs_no_census(self):
        # the census of K_10^3 at k=1 would need 886,163,135 subsets
        X = simplex_skeleton(10, 3).to_chain_complex()
        for i in (1, 2):
            assert critical_group_reduced(X, i) == critical_group(X, i)

    def test_hypercube_five_two_skeleton(self):
        # the Smith forms of its L_1 and of its lattices' Grams once ran past a
        # minute, their entries growing to 500,000 bits
        X = skeleton(hypercube_complex(5), 2)
        K1 = critical_group(X, 1)
        assert K1.order == tau_reduced(X).value == hypercube_tree_count(2, 5)
        assert critical_group(X, 0).order == hypercube_tree_count(1, 5)
        rep = sequence_order_check(X)
        assert rep.ok and rep.critical_order == K1.order

    def test_lazy_forest_is_the_census_first_torsion_free_one(self, monkeypatch):
        for X in CORPUS:
            for k in range(1, X.dim + 1):
                first = next((f for f, t in enumerate_forests(X, k).forests if t == 1), None)
                assert first_torsion_free_forest(X, k) == first
        # one vertex, two loops and three 2-cells: the first forest {f0, f1}
        # has torsion 2, the second candidate is dependent, {f1, f2} is the one
        top = Matrix([[2, 0, 1], [0, 1, 0]])
        X = ChainComplex.create((("v",), ("e0", "e1"), ("f0", "f1", "f2")), (Matrix.zeros(1, 2), top))
        assert enumerate_forests(X, 2).forests == (((0, 1), 2), ((1, 2), 1))
        assert first_torsion_free_forest(X, 2) == (1, 2)
        # the one 2-cell of rp2_cell is attached with degree 2
        rp2 = named_complex("rp2_cell")
        assert first_torsion_free_forest(rp2, 2) is None
        monkeypatch.setattr(oracle, "DEFAULT_CAP", 1)
        with pytest.raises(CapExceeded, match="found none in 1 forests"):
            first_torsion_free_forest(rp2, 2)

    def test_bipyramid_order_fifteen(self, bipyramid):
        assert critical_group(bipyramid, 1).order == 15

    def test_rp2_order_four(self, rp2_six):
        assert critical_group(rp2_six, 1).order == 4

    def test_out_of_range(self, k3):
        with pytest.raises(ValueError):
            critical_group(k3, 1)


class TestLattices:
    def test_k3_ranks(self, k3):
        assert cut_lattice(k3, 1).ncols == 2
        assert flow_lattice(k3, 1).ncols == 1

    def test_moebius_flow_rank_zero(self, moebius):
        assert flow_lattice(moebius, 2).ncols == 0

    def test_rank_nullity(self, bipyramid, rp2_six, annulus):
        for X in (bipyramid, rp2_six, annulus):
            for k in range(1, X.dim + 1):
                assert cut_lattice(X, k).ncols + flow_lattice(X, k).ncols == X.n_cells(k)

    def test_discriminant_orders(self, k3, c4):
        assert discriminant_group(cut_lattice(k3, 1)).order == 3
        assert discriminant_group(flow_lattice(c4, 1)) == AbelianGroupStructure((4,))

    def test_unimodular_lattice_trivial(self):
        assert discriminant_group(Matrix.identity(3)).order == 1


class TestFundamentalVectors:
    def test_k3_circuit(self, k3):
        bonds, circuits = fundamental_vectors(k3, (0, 1))
        (circuit,) = circuits.values()
        assert sorted(abs(x) for x in circuit) == [1, 1, 1]
        for bond in bonds.values():
            b1 = k3.boundaries[1]
            # bond lies in the row space: orthogonal to the kernel vector
            assert sum(b * c for b, c in zip(bond, circuit)) == 0

    def test_acyclic_tree_vectors_form_bases(self):
        X = simplex_skeleton(6, 2).to_chain_complex()
        census = enumerate_forests(X)
        acyclic = next(f for f, t in census.forests if t == 1)
        torsioned = next(f for f, t in census.forests if t == 2)
        bonds, circuits = fundamental_vectors(X, acyclic)
        from cellforest.critical import cut_lattice as cl, flow_lattice as fl

        flow = fl(X, 2)
        circ = Matrix.from_columns(list(circuits.values()), nrows=X.n_cells(2))
        assert lattice_quotient_order_by_gauss_jordan(flow, circ) == 1
        cut = cl(X, 2)
        bond = Matrix.from_columns(list(bonds.values()), nrows=X.n_cells(2))
        assert lattice_quotient_order_by_gauss_jordan(cut, bond) == 1
        # vectors of a torsion tree fail to generate the lattices
        bonds2, circuits2 = fundamental_vectors(X, torsioned)
        circ2 = Matrix.from_columns(list(circuits2.values()), nrows=X.n_cells(2))
        bond2 = Matrix.from_columns(list(bonds2.values()), nrows=X.n_cells(2))
        assert lattice_quotient_order_by_gauss_jordan(flow, circ2) > 1
        assert lattice_quotient_order_by_gauss_jordan(cut, bond2) > 1


class TestSequenceOrders:
    def test_graphs_all_equal(self, k3, k4, c4):
        for X in (k3, k4, c4):
            rep = sequence_order_check(X)
            assert rep.ok and rep.all_orders_equal
            assert rep.critical_order == tau_bruteforce(X)

    def test_bipyramid_trivial_error(self, bipyramid):
        rep = sequence_order_check(bipyramid)
        assert rep.error_order == 1
        assert rep.all_orders_equal
        assert rep.critical_order == 15

    def test_rp2_error_two(self, rp2_six):
        rep = sequence_order_check(rp2_six)
        assert rep.error_order == 2
        assert rep.critical_order == 4
        assert rep.first_sequence_ok and rep.second_sequence_ok and rep.cut_matches_critical
        assert not rep.all_orders_equal

    def test_moebius_annulus(self, moebius, annulus):
        for X in (moebius, annulus):
            rep = sequence_order_check(X)
            assert rep.ok
