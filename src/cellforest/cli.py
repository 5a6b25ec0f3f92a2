"""Command-line front end.

Subcommands: gen, tau, homology, critical, rooted-poly, verify.  All values
print exactly (integers or p/q, never scientific notation); every report
records the seed and cap so identical invocations produce byte-identical
output.  Exit codes: 0 success, 1 verification mismatch, 2 usage or
hypothesis failure, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from . import io as cfio
from .complexes import require_boundary_composition, skeleton
from .critical import critical_group, critical_group_reduced, sequence_order_check
from .families import (
    complete_colorful,
    ferrers_graph,
    hypercube_complex,
    named_complex,
    named_simplicial,
    shifted_complex,
    simplex_skeleton,
)
from .homology import homology
from .matrix_forest import (
    METHODS,
    HypothesisError,
    TauReport,
    format_exact,
    rooted_forest_polynomial,
    tau,
)
from .oracle import DEFAULT_CAP, CapExceeded, _forest_sum, forest_search
from .verify import DEFAULT_SEED, SUITES, render_records, run_suite

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path, parse=cfio.parse_complex):
    with open(path) as fh:
        return parse(fh.read())


def integer(text):
    """A command-line integer by the file rule (``io._integers``): no ``2_0``, no non-ASCII digit."""
    (value,) = cfio._integers([text], text)
    return value


# the parameters of each family that takes a fixed number of them
PARAMETERS = {"simplex-skeleton": "n d", "hypercube": "n", "hypercube-skeleton": "n k", "named": "name"}


def _generate(args):
    family = args.family
    params = args.params
    if family in PARAMETERS:
        names = PARAMETERS[family].split()
        if len(params) != len(names):
            plural = "s" if len(names) > 1 else ""
            raise ValueError(
                f"{family} takes {len(names)} parameter{plural} ({PARAMETERS[family]}), got {len(params)}"
            )
    if family == "simplex-skeleton":
        n, d = map(integer, params)
        return cfio.serialize_complex(simplex_skeleton(n, d))
    if family == "colorful":
        return cfio.serialize_complex(complete_colorful(*map(integer, params)))
    if family == "hypercube":
        (n,) = map(integer, params)
        return cfio.serialize_complex(hypercube_complex(n))
    if family == "hypercube-skeleton":
        n, k = map(integer, params)
        return cfio.serialize_complex(skeleton(hypercube_complex(n), k))
    if family == "ferrers":
        return cfio.serialize_complex(ferrers_graph(map(integer, params)))
    if family == "shifted":
        gens = [tuple(map(integer, p.split(","))) for p in params]
        n = max(v for g in gens for v in g)
        return cfio.serialize_complex(shifted_complex(n, gens))
    if family == "named":
        (name,) = params
        if name == "rp2_cell":
            return cfio.serialize_complex(named_complex(name))
        return cfio.serialize_complex(named_simplicial(name))
    raise ValueError(f"unknown family {family!r}")


def cmd_gen(args):
    _emit(_generate(args), args.out)
    return EXIT_OK


def _written(forests, fh, labels):
    """The ``forest_search`` stream ``forests``, each forest's census line
    written to ``fh`` as it passes."""
    for facets, t in forests:
        fh.write(cfio.census_line(labels, facets, t))
        yield facets, t


def cmd_tau(args):
    if args.census and args.method != "bruteforce":
        raise ValueError("--census needs --method bruteforce")
    X = _load(args.file)
    k = X.dim if args.k is None else args.k
    weights = _load(args.weights, cfio.parse_weights) if args.weights else None
    if args.method == "bruteforce":
        # the cap and every weight are checked before the census file opens
        forests, labels = forest_search(X, k, cap=args.cap), X.labels(k)
        ws = weights.cell_weights(X, k) if weights else None
        with open(args.census, "w") if args.census else nullcontext() as fh:
            value, count = _forest_sum(_written(forests, fh, labels) if fh else forests, ws)
        body = TauReport("bruteforce", k, value).render() + f"\nforests: {count}\n"
    else:
        report = tau(X, k, args.method, weights=weights, cap=args.cap)
        body = report.render() + "\n"
    body += f"seed: {args.seed if args.seed is not None else '-'}\ncap: {args.cap if args.cap is not None else DEFAULT_CAP}\n"
    _emit(body, args.out)
    return EXIT_OK


def cmd_homology(args):
    X = _load(args.file)
    ks = [args.k] if args.k is not None else list(range(X.dim + 1))
    lines = [f"dim {X.dim}"]
    for k in ks:
        require_boundary_composition(X, k)
        h = homology(X, k)
        factors = ",".join(str(f) for f in h.torsion_factors) or "-"
        lines.append(f"k={k} betti={h.betti} torsion={h.torsion_order} factors={factors}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_critical(args):
    X = _load(args.file)
    if X.dim < 1:
        raise ValueError(f"critical groups need dimension at least 1, got dimension {X.dim}")
    ks = [args.k] if args.k is not None else list(range(X.dim))
    lines = [f"dim {X.dim}"]
    for k in ks:
        K = critical_group(X, k)
        reduced = critical_group_reduced(X, k)
        agree = "-" if reduced is None else ("yes" if reduced == K else "NO")
        lines.append(f"k={k} group={K} order={K.order} reduced_agrees={agree}")
    rep = sequence_order_check(X)
    lines.append(
        "sequence: "
        f"|K|={rep.critical_order} |cut_disc|={rep.cut_discriminant_order} "
        f"|flow_disc|={rep.flow_discriminant_order} |index|={rep.direct_sum_index} "
        f"|E|={rep.error_order} relations={'ok' if rep.ok else 'violated'}"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_rooted_poly(args):
    X = _load(args.file)
    poly = rooted_forest_polynomial(X)
    lines = [f"dim {X.dim}", "polynomial: det(L + z*I) on the codim-1 cells"]
    for j, c in enumerate(poly.coeffs):
        lines.append(f"z^{j}: {format_exact(c)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args):
    seed = DEFAULT_SEED if args.seed is None else args.seed
    rows = run_suite(args.suite, cap=args.cap, seed=seed)
    text = render_records(rows, seed, args.cap)
    _emit(text, args.out)
    return EXIT_MISMATCH if any(r.status == "FAIL" for r in rows) else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cellforest",
        description="Exact torsion-weighted spanning tree and forest counts for cell complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a family instance in the interchange format")
    p_gen.add_argument(
        "family",
        choices=[
            "simplex-skeleton",
            "colorful",
            "hypercube",
            "hypercube-skeleton",
            "ferrers",
            "shifted",
            "named",
        ],
    )
    p_gen.add_argument("params", nargs="+", help="family parameters (e.g. 6 2, or a named id)")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(fn=cmd_gen)

    p_tau = sub.add_parser("tau", help="count forests by a chosen method")
    p_tau.add_argument("file")
    p_tau.add_argument("--k", type=integer, default=None)
    p_tau.add_argument("--method", default="reduced", choices=sorted(METHODS) + ["bruteforce"])
    p_tau.add_argument("--weights", default=None)
    p_tau.add_argument("--seed", type=integer, default=None)
    p_tau.add_argument("--cap", type=integer, default=None)
    p_tau.add_argument("--census", default=None, help="with --method bruteforce: write the census export here")
    p_tau.add_argument("--out", default=None)
    p_tau.set_defaults(fn=cmd_tau)

    p_hom = sub.add_parser("homology", help="Betti numbers and torsion")
    p_hom.add_argument("file")
    p_hom.add_argument("--k", type=integer, default=None)
    p_hom.add_argument("--out", default=None)
    p_hom.set_defaults(fn=cmd_homology)

    p_crit = sub.add_parser("critical", help="critical groups and sequence orders")
    p_crit.add_argument("file")
    p_crit.add_argument("--k", type=integer, default=None)
    p_crit.add_argument("--out", default=None)
    p_crit.set_defaults(fn=cmd_critical)

    p_poly = sub.add_parser("rooted-poly", help="rooted forest generating polynomial")
    p_poly.add_argument("file")
    p_poly.add_argument("--out", default=None)
    p_poly.set_defaults(fn=cmd_rooted_poly)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=[*SUITES, "all"])
    p_ver.add_argument("--seed", type=integer, default=None)
    p_ver.add_argument("--cap", type=integer, default=None)
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except HypothesisError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, cfio.FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
