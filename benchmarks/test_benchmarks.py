"""Fast checks of the benchmark's own pieces: closed forms, span folding, metric names."""

import importlib
import json
from pathlib import Path

import pytest

import checks
import run
import tracer

ROOT = Path(__file__).resolve().parents[1]


def test_closed_forms_at_known_values():
    assert checks.kalai(4, 1) == 16
    assert checks.kalai(6, 2) == 6 ** 6
    assert checks.cayley_forests(7) == 7 ** 5
    assert checks.adin((2, 3)) == 12  # K_{2,3}: m^(n-1) n^(m-1)
    assert checks.hypercube_skeleton(3, 1) == 384  # spanning trees of the 3-cube graph
    assert checks.hypercube_skeleton_betti(3, 1, 1) == 12 - 8 + 1
    assert checks.simplex_rooted_poly(3, 1) == (0, 9, 6, 1)  # z (z + 3)^2
    assert checks.colorful_betti((2, 2, 2), 2) == 1  # the octahedral sphere
    assert checks.labelled_rp2_count() == 12


def test_closed_forms_match_the_library_families():
    families = importlib.import_module("cellforest.families")
    for n in range(3, 9):
        for d in range(1, n - 1):
            assert checks.kalai(n, d) == families.simplex_tree_count(n, d)
    for sizes in ((2, 2), (2, 3), (3, 3, 3), (2, 2, 2, 2), (3, 3, 3, 3)):
        assert checks.adin(sizes) == families.colorful_tree_count(len(sizes) - 1, sizes)
    for n in range(2, 6):
        for k in range(1, n):
            assert checks.hypercube_skeleton(n, k) == families.hypercube_tree_count(k, n)


def test_layer_metrics_self_time_and_outermost_spans():
    names = ["linalg.rank", "linalg.greedy_column_basis", "matrix_forest.tau_reduced",
             "homology.homology"]
    spans = [
        (2, 0.0, 10.0, -1),  # tau_reduced
        (0, 1.0, 4.0, 0),    # rank inside it
        (1, 1.5, 3.5, 1),    # greedy basis inside rank: same group, not a second call
        (3, 5.0, 6.0, 0),    # homology
        (3, 7.0, 8.0, 0),    # homology again, same key
    ]
    m = tracer.layer_metrics(names, spans, homology_distinct=1, cache_hits=2, pass_s=10.0)
    assert m["linalg.rank_s"] == pytest.approx(3.0)
    assert m["linalg.rank_calls"] == 1
    assert m["matrix_forest.reduced_s"] == pytest.approx(10.0)
    assert m["homology.homology_calls"] == 2
    assert m["homology.repeat_ratio"] == 2
    assert m["linalg.char_poly_s"] == 0
    assert m["oracle.cache_hits"] == 2
    assert set(m) == set(tracer.METRIC_NAMES)


def test_tracer_records_calls_and_restores_the_library():
    mf = importlib.import_module("cellforest.matrix_forest")
    families = importlib.import_module("cellforest.families")
    verify = importlib.import_module("cellforest.verify")
    original, suites = mf.tau_pseudodet, verify.SUITES
    X = families.simplex_skeleton(4, 2).to_chain_complex()
    with tracer.Tracer() as spans:
        assert mf.tau_pseudodet(X).value == checks.kalai(4, 2)
        assert verify.SUITES["families"] is not suites["families"]
    assert mf.tau_pseudodet is original and verify.SUITES is suites
    m = tracer.layer_metrics(spans.names, spans.spans, len(spans.homology_keys), 0, 0.0)
    assert m["linalg.char_poly_calls"] > 0
    assert m["matrix_forest.pseudodet_s"] > 0
    assert 1 <= m["homology.repeat_ratio"]


def test_metric_tables_name_existing_public_functions():
    for table in (tracer.SELF_TIME, tracer.INCLUSIVE):
        for members in table.values():
            for member in members:
                module, name = member.split(".")
                fn = getattr(importlib.import_module(f"cellforest.{module}"), name)
                assert tracer._traceable(importlib.import_module(f"cellforest.{module}"), fn)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: tracer.unit(name) for name in tracer.METRIC_NAMES
    }
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_known_fault_is_recognised_only_by_its_documented_output():
    workloads = importlib.import_module("workloads")
    right = checks.simplex_rooted_poly(5, 2)
    documented = right[:5] + (18714,) + right[6:]
    assert workloads.rooted_sums_k52_fault(documented)
    assert not workloads.rooted_sums_k52_fault(right)
    assert not workloads.rooted_sums_k52_fault(documented[:4] + (1,) + documented[5:])
    assert not workloads.rooted_sums_k52_fault(documented[:-1])


def test_reference_determinant():
    import reference

    assert reference.bareiss_det(((2, 1), (1, 3))) == 5
    assert reference.bareiss_det(((0, 1, 2), (1, 0, 3), (4, -3, 8))) == -2
