"""The benchmark's four workloads: how each builds its inputs and which calls it times.

A workload is a ``setup(seed)`` that builds inputs the way a user does
(generate with ``families``, write and read back through the ``io``
interchange format, compile with ``complexes``, draw weights) and an
``operations(inputs)`` list of calls into the library or the CLI.  Each
operation carries a check that runs after the timed pass.

Calls go through module attributes (``mf.tau_reduced``, not a name imported
into this module), so a tracer that rebinds the library's public functions
sees every call the workload makes.
"""

import contextlib
import importlib
import io
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from cellforest import cli, complexes, critical, families, oracle
from cellforest import io as cfio
from cellforest import matrix_forest as mf

import checks

# the package binds the function homology over its module's name
homology = importlib.import_module("cellforest.homology")


@dataclass(frozen=True)
class Op:
    """One timed call: ``run()`` is timed, ``check(result, results)`` is not.

    ``known_fault(result)``, set on the one operation that fails on every pass
    because of a fault in the program, recognises exactly that fault's wrong
    output; such a failure is counted but does not make the run incorrect.
    Any other failure of the operation, an exception included, does.
    """

    label: str
    run: object
    check: object
    known_fault: object = None


def equals(want):
    return lambda got, _results: got == want


def agrees_with(label):
    """Check that an operation's value equals that of another, independent route."""
    return lambda got, results: label in results and got == results[label]


def load(generated):
    """Write a generated complex in the interchange format and read it back compiled."""
    return cfio.parse_complex(cfio.serialize_complex(generated))


def named(name):
    return load(families.named_simplicial(name))


_SMALL = (1, 2, 3, 5, 7, 11, 13, 17, 19)
WEIGHT_VALUES = tuple(Fraction(p, q) for p in _SMALL for q in _SMALL if gcd(p, q) == 1)


def draw_weights(X, rng):
    """Seeded positive rational weights on every cell, written out and read back.

    The multiset of values depends only on the number of cells and the seed
    decides which cell gets which value.  Drawing numerators and denominators
    freely made the exact arithmetic, and with it the pass time, vary by up
    to half from seed to seed.
    """
    keys = [(k, i) for k in range(X.dim + 1) for i in range(X.n_cells(k))]
    values = [WEIGHT_VALUES[i % len(WEIGHT_VALUES)] for i in range(len(keys))]
    rng.shuffle(values)
    text = cfio.serialize_weights(complexes.WeightAssignment(dict(zip(keys, values))))
    return cfio.parse_weights(text)


# ---------------------------------------------------------------------------
# spectral: the eigenvalue routes, where linalg.char_poly does the work
# ---------------------------------------------------------------------------

SPECTRAL_LADDER = ((9, 2), (7, 3))


def setup_spectral(seed):
    rng = random.Random(seed)
    X = {f"K{n}^{d}": load(families.simplex_skeleton(n, d)) for n, d in SPECTRAL_LADDER}
    q4 = families.hypercube_complex(4)
    X["Q4 2-skeleton"] = load(complexes.skeleton(q4, 2))
    X["Q4 3-skeleton"] = load(complexes.skeleton(q4, 3))
    X["colorful 3,3,3"] = load(families.complete_colorful(3, 3, 3))
    X["rp2_six_vertex"] = named("rp2_six_vertex")
    X["colorful 2,2,2,2"] = load(families.complete_colorful(2, 2, 2, 2))
    return X, draw_weights(X["colorful 2,2,2,2"], rng)


def spectral_operations(inputs):
    X, w = inputs
    ops = []
    for n, d in SPECTRAL_LADDER:
        name = f"K{n}^{d}"
        for route in ("tau_pseudodet", "tau_alternating"):
            ops.append(Op(f"{route} {name}", lambda f=route, Y=X[name]: getattr(mf, f)(Y).value,
                          equals(checks.kalai(n, d))))
    ops.append(Op("rooted_forest_polynomial K7^3",
                  lambda: mf.rooted_forest_polynomial(X["K7^3"]).coeffs,
                  equals(checks.simplex_rooted_poly(7, 3))))
    for k in (2, 3):
        name = f"Q4 {k}-skeleton"
        ops.append(Op(f"tau_alternating {name}", lambda Y=X[name]: mf.tau_alternating(Y).value,
                      equals(checks.hypercube_skeleton(4, k))))
    ops.append(Op("tau_alternating colorful 3,3,3",
                  lambda: mf.tau_alternating(X["colorful 3,3,3"]).value,
                  equals(checks.adin((3, 3, 3)))))
    # the only maximal 2-forest of RP^2 is RP^2 itself, and H_1 = Z/2
    ops.append(Op("tau_pseudodet rp2_six_vertex",
                  lambda: mf.tau_pseudodet(X["rp2_six_vertex"]).value, equals(2 ** 2)))
    C = X["colorful 2,2,2,2"]
    algebraic = "tau_algebraic_weighted colorful 2,2,2,2"
    alternating = "tau_weighted_alternating colorful 2,2,2,2"
    ops.append(Op(algebraic, lambda: mf.tau_algebraic_weighted(C, w).value, agrees_with(alternating)))
    ops.append(Op(alternating, lambda: mf.tau_weighted_alternating(C, w).value, agrees_with(algebraic)))
    ops.append(Op("weighted tau_pseudodet colorful 2,2,2,2", lambda: mf.tau_pseudodet(C, weights=w).value,
                  lambda got, _r: got == mf.tau_reduced(C, weights=w).value))
    return ops


# ---------------------------------------------------------------------------
# elimination: determinant and lattice routes, no characteristic polynomial
# ---------------------------------------------------------------------------


def setup_elimination(seed):
    rng = random.Random(seed)
    X = {
        "K8^3": load(families.simplex_skeleton(8, 3)),
        "colorful 3,3,3,3": load(families.complete_colorful(3, 3, 3, 3)),
        "Q5 3-skeleton": load(complexes.skeleton(families.hypercube_complex(5), 3)),
        "K7^2": load(families.simplex_skeleton(7, 2)),
        "moebius": named("moebius"),
        "annulus": named("annulus"),
    }
    return X, draw_weights(X["K7^2"], rng)


def elimination_operations(inputs):
    X, w = inputs
    sizes = (3, 3, 3, 3)
    closed = {
        "K8^3": (checks.kalai(8, 3), [checks.simplex_betti(8, 3, k) for k in range(4)]),
        "colorful 3,3,3,3": (checks.adin(sizes), [checks.colorful_betti(sizes, k) for k in range(4)]),
        "Q5 3-skeleton": (checks.hypercube_skeleton(5, 3),
                          [checks.hypercube_skeleton_betti(5, 3, k) for k in range(4)]),
    }
    ops = []
    for name, (tau, betti) in closed.items():
        Y = X[name]
        for route in ("tau_reduced", "tau_covolume", "tau_cobase"):
            ops.append(Op(f"{route} {name}", lambda f=route, Y=Y: getattr(mf, f)(Y).value,
                          equals(tau)))
        # every complex here is torsion-free in every dimension
        ops.append(Op(f"homology {name}",
                      lambda Y=Y: [(h.betti, h.torsion_order)
                                   for h in (homology.homology(Y, k) for k in range(Y.dim + 1))],
                      equals([(b, 1) for b in betti])))
    K72 = X["K7^2"]
    ops.append(Op("weighted tau_reduced K7^2", lambda: mf.tau_reduced(K72, weights=w).value,
                  agrees_with("weighted tau_covolume K7^2")))
    ops.append(Op("weighted tau_covolume K7^2", lambda: mf.tau_covolume(K72, weights=w).value,
                  agrees_with("weighted tau_reduced K7^2")))
    C = X["colorful 3,3,3,3"]
    ops.append(Op("critical_group colorful 3,3,3,3",
                  lambda: critical.critical_group(C, C.dim - 1).order, equals(checks.adin(sizes))))
    ops.append(Op("sequence_order_check colorful 3,3,3,3",
                  lambda: critical.sequence_order_check(C),
                  lambda rep, _r: rep.ok and rep.critical_order == checks.adin(sizes)))
    for name in ("moebius", "annulus"):
        Y = X[name]
        ops.append(Op(f"tau_cobase {name}", lambda Y=Y: mf.tau_cobase(Y).value,
                      lambda got, _r, Y=Y: got == mf.tau_covolume(Y).value))
    return ops


# ---------------------------------------------------------------------------
# census: the brute-force oracle
# ---------------------------------------------------------------------------


def setup_census(seed):
    X = {f"K{n}^{d}": load(families.simplex_skeleton(n, d)) for n, d in ((6, 2), (7, 1), (5, 2))}
    for name in ("annulus", "bipyramid", "moebius", "rp2_six_vertex"):
        X[name] = named(name)
    return X


def _rooted_forests_match_polynomial(forests, _results, X):
    """Rooted forests of each size against det(L + zI), whose coefficient of
    z^(n-s) sums det^2 over the pairs of size s; every pair of this complex
    has determinant +-1, so the sums are counts."""
    coeffs = mf.rooted_forest_polynomial(X).coeffs
    sizes = Counter(len(f.facets) for f in forests)
    n = len(coeffs) - 1
    return all(sizes.get(n - j, 0) == c for j, c in enumerate(coeffs))


def rooted_sums_k52_fault(got):
    """The documented wrong output on K5^2: every coefficient of z^4 (z+5)^6
    except that of z^5, which is 18714 instead of 6 * 5^5 = 18750, because
    twelve pairs have |det| = 2 over a torsion-free row set."""
    want = checks.simplex_rooted_poly(5, 2)
    return (isinstance(got, tuple) and len(got) == len(want) and got[5] == 18714
            and all(g == w for j, (g, w) in enumerate(zip(got, want)) if j != 5))


def census_operations(X):
    ops = []
    k62 = X["K6^2"]

    def k62_ok(census, _r):
        twisted = sum(1 for _, t in census.forests if t == 2)
        return (len(census.forests) == 46620 and twisted == checks.labelled_rp2_count()
                and census.tau() == checks.kalai(6, 2))

    ops.append(Op("enumerate_forests K6^2", lambda: oracle.enumerate_forests(k62), k62_ok))
    ops.append(Op("enumerate_forests K7^1", lambda: oracle.enumerate_forests(X["K7^1"]),
                  lambda c, _r: len(c.forests) == c.tau() == checks.cayley_forests(7)))
    # weights each rooted forest by the torsion of its row set alone, where the
    # relative torsion |det| is due; fails on K5^2 until that is mended
    ops.append(Op("rooted_forest_torsion_sums K5^2",
                  lambda: oracle.rooted_forest_torsion_sums(X["K5^2"]),
                  equals(checks.simplex_rooted_poly(5, 2)), known_fault=rooted_sums_k52_fault))
    ann = X["annulus"]
    ops.append(Op("rooted_forest_torsion_sums annulus", lambda: oracle.rooted_forest_torsion_sums(ann),
                  lambda got, _r: got == mf.rooted_forest_polynomial(ann).coeffs))
    bip = X["bipyramid"]
    ops.append(Op("enumerate_rooted_forests bipyramid", lambda: oracle.enumerate_rooted_forests(bip),
                  lambda got, r: _rooted_forests_match_polynomial(got, r, bip)))
    moe = X["moebius"]
    ops.append(Op("tau_cobase_spectral moebius", lambda: mf.tau_cobase_spectral(moe).value,
                  lambda got, _r: got == mf.tau_covolume(moe).value))
    ops.append(Op("tau_cobase_spectral rp2_six_vertex",
                  lambda: mf.tau_cobase_spectral(X["rp2_six_vertex"]).value, equals(2 ** 2)))
    return ops


# ---------------------------------------------------------------------------
# verify: the CLI's whole cross-check matrix, in-process
# ---------------------------------------------------------------------------


def setup_verify(seed):
    return ["verify", "all", "--seed", str(seed)]


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def verify_operations(argv):
    def passed(got, _r):
        code, text = got
        lines = text.splitlines()
        return code == 0 and bool(lines) and "failed=0" in lines[-1]

    return [Op("cellforest " + " ".join(argv), lambda: run_cli(argv), passed)]


WORKLOADS = {
    "spectral": (setup_spectral, spectral_operations),
    "elimination": (setup_elimination, elimination_operations),
    "census": (setup_census, census_operations),
    "verify": (setup_verify, verify_operations),
}
