"""Verification suites: instance-by-method matrices of exact cross-checks.

Each suite returns CheckRecord rows; a record compares one computed value
against one reference (a closed form, an independent method, or the
brute-force census).  Suites are deterministic: instances are fixed, weight
samples come from a seeded generator, and rows are emitted in a fixed order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .complexes import WeightAssignment, dual_complex, skeleton
from .critical import critical_group, critical_group_reduced, sequence_order_check
from .families import (
    colorful_tree_count,
    complete_colorful,
    ferrers_graph,
    ferrers_tree_count_weighted,
    ferrers_vertex_weighting,
    graphic_matroid,
    hypercube_complex,
    hypercube_edge_tree_count,
    hypercube_tree_count,
    matroid_complex,
    matroid_tree_count,
    named_complex,
    simplex_skeleton,
    simplex_tree_count,
    tutte_eval,
    tutte_polynomial,
    uniform_matroid,
)
from .matrix_forest import (
    METHODS,
    WEIGHT_REQUIRED,
    HypothesisError,
    format_exact,
    graph_matrix_tree,
    tau_alternating,
)
from .oracle import CapExceeded, tau_bruteforce, tau_weighted_bruteforce

DEFAULT_SEED = 20240901


@dataclass(frozen=True)
class CheckRecord:
    suite: str
    instance: str
    check: str
    got: str
    want: str

    @property
    def status(self):
        if self.got == "skipped":
            return "skipped"
        return "ok" if self.got == self.want else "FAIL"


def _fmt(x):
    return x if isinstance(x, str) else format_exact(x)


def _record(rows, suite, instance, check, got, want):
    rows.append(CheckRecord(suite, instance, check, _fmt(got), _fmt(want)))


def _skip(rows, suite, instance, check, reason):
    rows.append(CheckRecord(suite, instance, check, "skipped", reason))


def sample_fractions(rng, count):
    return [Fraction(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(count)]


def _methods_vs_reference(rows, suite, name, X, reference, cap):
    for label, fn in METHODS.items():
        if label in WEIGHT_REQUIRED:
            continue
        try:
            _record(rows, suite, name, label, fn(X, None, cap).value, reference)
        except HypothesisError as exc:
            _skip(rows, suite, name, label, f"hypothesis: {exc}")
        except CapExceeded:
            _skip(rows, suite, name, label, "cap exceeded")


def suite_families(cap=None, seed=DEFAULT_SEED):
    rows = []
    for n in range(3, 6):
        X = simplex_skeleton(n, 1).to_chain_complex()
        want = n ** (n - 2)
        _record(rows, "families", f"complete-graph-{n}", "closed-form", simplex_tree_count(n, 1), want)
        _record(rows, "families", f"complete-graph-{n}", "matrix-tree", graph_matrix_tree(X).value, want)
        _record(rows, "families", f"complete-graph-{n}", "oracle", tau_bruteforce(X, cap=cap), want)
    for m, n in ((2, 2), (2, 3), (3, 3)):
        X = complete_colorful(m, n).to_chain_complex()
        want = n ** (m - 1) * m ** (n - 1)
        _record(rows, "families", f"bipartite-{m}-{n}", "closed-form", colorful_tree_count(1, (m, n)), want)
        _record(rows, "families", f"bipartite-{m}-{n}", "oracle", tau_bruteforce(X, cap=cap), want)
    for n, d in ((4, 2), (5, 2)):
        X = simplex_skeleton(n, d).to_chain_complex()
        want = simplex_tree_count(n, d)
        _record(rows, "families", f"simplex-skeleton-{n}-{d}", "alternating", tau_alternating(X).value, want)
        _record(rows, "families", f"simplex-skeleton-{n}-{d}", "oracle", tau_bruteforce(X, cap=cap), want)
    K222 = complete_colorful(2, 2, 2).to_chain_complex()
    for k in (1, 2):
        want = colorful_tree_count(k, (2, 2, 2))
        _record(rows, "families", "colorful-2-2-2", f"alternating-k{k}",
                tau_alternating(skeleton(K222, k)).value, want)
        _record(rows, "families", "colorful-2-2-2", f"oracle-k{k}", tau_bruteforce(K222, k, cap=cap), want)
    Q3 = hypercube_complex(3)
    _record(rows, "families", "hypercube-3", "edge-count",
            hypercube_edge_tree_count(3), hypercube_tree_count(1, 3))
    for k in (1, 2):
        want = hypercube_tree_count(k, 3)
        _record(rows, "families", "hypercube-3", f"alternating-k{k}",
                tau_alternating(skeleton(Q3, k)).value, want)
    _record(rows, "families", "hypercube-3", "oracle-k2", tau_bruteforce(Q3, 2, cap=cap),
            hypercube_tree_count(2, 3))
    rng = random.Random(seed)
    for parts in ((2, 1), (2, 2), (3, 2, 1)):
        G = ferrers_graph(parts)
        X = G.to_chain_complex()
        x = sample_fractions(rng, len(parts))
        y = sample_fractions(rng, parts[0])
        w = ferrers_vertex_weighting(G, parts, x, y)
        _record(rows, "families", f"ferrers-{'-'.join(map(str, parts))}", "weighted-vs-oracle",
                ferrers_tree_count_weighted(parts, x, y), tau_weighted_bruteforce(X, 1, w, cap=cap))
    for label, M in (
        ("matroid-u24", uniform_matroid(2, 4)),
        ("matroid-k4", graphic_matroid(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])),
    ):
        S = matroid_complex(M)
        _record(rows, "families", label, "flat-product-vs-oracle",
                matroid_tree_count(M), tau_bruteforce(S.to_chain_complex(), cap=cap))
        _record(rows, "families", label, "tutte-bases",
                tutte_eval(tutte_polynomial(M), 1, 1), len(S.facets))
    for name, want in (("bipyramid", 15), ("rp2_six_vertex", 4)):
        _record(rows, "families", name, "oracle", tau_bruteforce(named_complex(name), cap=cap), want)
    return rows


def suite_theorems(cap=None, seed=DEFAULT_SEED):
    rows = []
    instances = [
        ("complete-graph-3", simplex_skeleton(3, 1).to_chain_complex()),
        ("complete-graph-4", simplex_skeleton(4, 1).to_chain_complex()),
        ("bipyramid", named_complex("bipyramid")),
        ("rp2-one-cell", named_complex("rp2_cell")),
        ("rp2-six-vertex", named_complex("rp2_six_vertex")),
        ("moebius", named_complex("moebius")),
        ("annulus", named_complex("annulus")),
        ("simplex-skeleton-5-2", simplex_skeleton(5, 2).to_chain_complex()),
    ]
    for name, X in instances:
        try:
            reference = tau_bruteforce(X, cap=cap)
        except CapExceeded:
            _skip(rows, "theorems", name, "oracle", "cap exceeded")
            continue
        _methods_vs_reference(rows, "theorems", name, X, reference, cap)
    return rows


def suite_critical(cap=None, seed=DEFAULT_SEED):
    rows = []
    instances = [
        ("complete-graph-3", simplex_skeleton(3, 1).to_chain_complex()),
        ("bipyramid", named_complex("bipyramid")),
        ("rp2-six-vertex", named_complex("rp2_six_vertex")),
    ]
    _record(rows, "critical", "complete-graph-3", "K0-structure",
            str(critical_group(instances[0][1], 0)), "Z/3")
    for name, X in instances:
        d = X.dim
        K = critical_group(X, d - 1)
        _record(rows, "critical", name, "order-vs-tau", K.order, tau_bruteforce(X, cap=cap))
        reduced = critical_group_reduced(X, d - 1)
        if reduced is None:
            _skip(rows, "critical", name, "reduced-construction", "no torsion-free forest")
        else:
            _record(rows, "critical", name, "reduced-construction", str(reduced), str(K))
        rep = sequence_order_check(X)
        _record(rows, "critical", name, "sequence-orders", "ok" if rep.ok else "violated", "ok")
    return rows


def suite_duality(cap=None, seed=DEFAULT_SEED):
    rows = []
    rng = random.Random(seed)
    for n in (3, 4):
        X = skeleton(hypercube_complex(n), n - 1)
        sizes = (2,) * n
        for k in range(n):
            want = colorful_tree_count(n - 1 - k, sizes)
            if k == 0:
                got = X.n_cells(0)
            else:
                got = tau_alternating(skeleton(X, k)).value
            _record(rows, "duality", f"cube-skeleton-{n}", f"tau{k}-vs-colorful", got, want)
        Y = dual_complex(X)
        for k in range(1, n):
            got = tau_alternating(skeleton(Y, k)).value
            want = colorful_tree_count(k, sizes)
            _record(rows, "duality", f"cube-skeleton-{n}", f"dual-tau{k}", got, want)
    # weighted instance with reciprocal weights on the dual
    Q3 = skeleton(hypercube_complex(3), 2)
    keys = [(k, i) for k in range(3) for i in range(Q3.n_cells(k))]
    values = dict(zip(keys, sample_fractions(rng, len(keys))))
    w = WeightAssignment(values)
    wstar = w.reciprocal_for_dual(Q3)
    Y = dual_complex(Q3)
    for k in (1, 2):
        mono = Fraction(1)
        for i in range(Q3.n_cells(k)):
            mono *= values[(k, i)]
        lhs = tau_weighted_bruteforce(Q3, k, w, cap=cap)
        rhs = mono * tau_weighted_bruteforce(Y, 2 - k, wstar, cap=cap)
        _record(rows, "duality", "cube-skeleton-3", f"weighted-tau{k}-reciprocal", lhs, rhs)
    return rows


SUITES = {
    "families": suite_families,
    "theorems": suite_theorems,
    "critical": suite_critical,
    "duality": suite_duality,
}


def run_suite(name, cap=None, seed=DEFAULT_SEED):
    if name == "all":
        return [row for suite in SUITES.values() for row in suite(cap=cap, seed=seed)]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES) + ['all']}")
    return SUITES[name](cap=cap, seed=seed)


def render_records(rows, seed, cap):
    width_i = max((len(r.instance) for r in rows), default=8) + 2
    width_c = max((len(r.check) for r in rows), default=8) + 2
    width_g = max((len(r.got) for r in rows), default=6) + 2
    lines = [f"# seed: {seed}  cap: {cap if cap is not None else 'default'}"]
    for r in rows:
        lines.append(
            f"{r.suite:<10}{r.instance:<{width_i}}{r.check:<{width_c}}"
            f"{r.got:<{width_g}}{r.want:<{width_g}}{r.status}"
        )
    n_fail = sum(1 for r in rows if r.status == "FAIL")
    n_skip = sum(1 for r in rows if r.status == "skipped")
    lines.append(f"RESULT: {'fail' if n_fail else 'pass'} "
                 f"(checks={len(rows)}, failed={n_fail}, skipped={n_skip})")
    return "\n".join(lines) + "\n"
