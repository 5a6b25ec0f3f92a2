"""Spans around every call into cellforest's public functions, taken from outside.

``Tracer`` rebinds each public function of the traced modules, in every
cellforest module that binds it (including dict tables of functions such as
``verify.SUITES``), to a wrapper that records a span: name, start, end and
the span that was open when it started.  Spans stay in memory until the
traced pass ends; ``layer_metrics`` folds them into the benchmark's per-layer
metrics and ``dump`` writes them out.  Nothing in ``src/`` changes.
"""

import functools
import importlib
import inspect
import json
import time

PACKAGE = "cellforest"
TRACED_MODULES = (
    "families", "io", "complexes", "linalg", "homology",
    "matrix_forest", "oracle", "critical", "verify", "cli",
)

# Metrics summed from self time: the span's duration minus its child spans.
SELF_TIME = {
    "complexes.compile_s": ("complexes.compile_complex", "complexes.from_facets",
                            "complexes.skeleton", "complexes.dual_complex"),
    "complexes.laplacian_s": ("complexes.laplacian", "complexes.weighted_laplacian",
                              "complexes.weighted_laplacian_similar"),
    "linalg.char_poly_s": ("linalg.char_poly",),
    "linalg.det_s": ("linalg.det",),
    "linalg.rank_s": ("linalg.rank", "linalg.greedy_column_basis", "linalg.greedy_row_basis"),
    "linalg.lattice_s": ("linalg.column_lattice_basis", "linalg.kernel_lattice_basis",
                         "linalg.saturation_basis", "linalg.covolume_squared",
                         "linalg.lattice_quotient_order"),
    "linalg.solve_s": ("linalg.solve_matrix",),
    "linalg.snf_s": ("linalg.smith_normal_form", "linalg.invariant_factors",
                     "linalg.torsion_order"),
}

# Metrics summed from inclusive time of the outermost span of the group.
INCLUSIVE = {
    "io.parse_s": ("io.parse_any", "io.parse_complex", "io.parse_weights"),
    "homology.homology_s": ("homology.homology",),
    "matrix_forest.reduced_s": ("matrix_forest.tau_reduced",),
    "matrix_forest.pseudodet_s": ("matrix_forest.tau_pseudodet",),
    "matrix_forest.alternating_s": ("matrix_forest.tau_alternating",),
    "matrix_forest.covolume_s": ("matrix_forest.tau_covolume",),
    "matrix_forest.cobase_s": ("matrix_forest.tau_cobase",),
    "matrix_forest.cobase_spectral_s": ("matrix_forest.tau_cobase_spectral",),
    "matrix_forest.weighted_s": ("matrix_forest.tau_algebraic_weighted",
                                 "matrix_forest.tau_weighted_alternating"),
    "matrix_forest.rooted_poly_s": ("matrix_forest.rooted_forest_polynomial",),
    "oracle.census_s": ("oracle.enumerate_forests", "oracle.tau_bruteforce",
                        "oracle.tau_weighted_bruteforce"),
    "oracle.rooted_sums_s": ("oracle.rooted_forest_torsion_sums",),
    "oracle.rooted_enum_s": ("oracle.enumerate_rooted_forests", "oracle.count_orientations"),
    "oracle.cobase_enum_s": ("oracle.cobase_defect_enumerator", "oracle.enumerate_cobases"),
    "critical.group_s": ("critical.critical_group", "critical.critical_group_reduced"),
    "critical.sequence_s": ("critical.sequence_order_check",),
    "verify.families_s": ("verify.suite_families",),
    "verify.theorems_s": ("verify.suite_theorems",),
    "verify.critical_s": ("verify.suite_critical",),
    "verify.duality_s": ("verify.suite_duality",),
}
# every public function of families generates or counts a family
GENERATE = "families.generate_s"

# Metrics counting the outermost calls of a group (rank inside greedy bases counts once).
CALLS = {
    "complexes.laplacian_calls": SELF_TIME["complexes.laplacian_s"],
    "linalg.char_poly_calls": SELF_TIME["linalg.char_poly_s"],
    "linalg.det_calls": SELF_TIME["linalg.det_s"],
    "linalg.rank_calls": SELF_TIME["linalg.rank_s"],
    "linalg.snf_calls": SELF_TIME["linalg.snf_s"],
    "homology.homology_calls": INCLUSIVE["homology.homology_s"],
}

REPEAT_RATIO = "homology.repeat_ratio"
CACHE_HITS = "oracle.cache_hits"
# wall time of the traced pass; its excess over the untraced pass_s is the tracing overhead
TRACED_PASS = "trace.pass_s"
METRIC_NAMES = (
    (GENERATE,) + tuple(SELF_TIME) + tuple(INCLUSIVE) + tuple(CALLS)
    + (REPEAT_RATIO, CACHE_HITS, TRACED_PASS)
)


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric == REPEAT_RATIO else "count"


def _traceable(module, value):
    """Public functions defined in ``module`` (plain or lru_cache-wrapped)."""
    return (
        (inspect.isfunction(value) or isinstance(value, functools._lru_cache_wrapper))
        and getattr(value, "__module__", None) == module.__name__
    )


class Tracer:
    """Context manager that records spans while the library's functions are rebound."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.homology_keys = set()
        self._stack = []
        self._restore = []

    def __enter__(self):
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in TRACED_MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if not attr.startswith("_") and _traceable(module, value):
                    wrappers[id(value)] = self._wrap(value, f"{short}.{attr}")
        for module in [importlib.import_module(PACKAGE)] + modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    replacement = wrappers[id(value)]
                elif isinstance(value, dict) and any(id(v) in wrappers for v in value.values()):
                    replacement = {k: wrappers.get(id(v), v) for k, v in value.items()}
                else:
                    continue
                self._restore.append((module, attr, value))
                setattr(module, attr, replacement)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()
        return False

    def _wrap(self, fn, name):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keys = self.homology_keys if name == "homology.homology" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keys is not None:
                keys.add(args + tuple(sorted(kwargs.items())))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)

        return traced

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(names, spans, homology_distinct, cache_hits, pass_s):
    """Fold spans into the per-layer metrics (every metric present, 0 when unexercised)."""
    group_of = {}
    for table in (SELF_TIME, INCLUSIVE):
        for metric, members in table.items():
            for member in members:
                group_of[member] = metric
    for name in names:
        if name.startswith("families."):
            group_of[name] = GENERATE
    group = [group_of.get(name) for name in names]
    counted = [next((c for c, members in CALLS.items() if name in members), None) for name in names]

    metrics = dict.fromkeys(METRIC_NAMES, 0)
    child_time = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    # groups open among each span's ancestors, shared as interned frozensets
    enclosing = [None] * len(spans)
    interned = {}
    empty = frozenset()
    for i, (name_id, start, end, parent) in enumerate(spans):
        if parent < 0:
            outer = empty
        else:
            above, g = enclosing[parent], group[spans[parent][0]]
            outer = above if g is None or g in above else interned.setdefault((above, g), above | {g})
        enclosing[i] = outer
        g = group[name_id]
        if g is None:
            continue
        if g in SELF_TIME:
            metrics[g] += (end - start) - child_time[i]
        elif g not in outer:
            metrics[g] += end - start
        if counted[name_id] and g not in outer:
            metrics[counted[name_id]] += 1
    if homology_distinct:
        metrics[REPEAT_RATIO] = metrics["homology.homology_calls"] / homology_distinct
    metrics[CACHE_HITS] = cache_hits
    metrics[TRACED_PASS] = pass_s
    return metrics
