"""Text interchange format for complexes, weights, and censuses.

Complex files: a header line ``dim d``, then either a single simplicial block

    facets <count>
    <sorted vertex list, space separated>     (one facet per line)

or, for d >= 1, one ``matrix k rows cols`` block per dimension k = 1..d,
each followed by ``rows`` lines of ``cols`` space-separated integers.  Lines
starting with ``#`` and blank lines are ignored.  Serialization is canonical
(facets sorted, fixed spacing), so parse/serialize round-trips are bit-exact.

Weight files: lines ``dim index value`` with ``value`` an integer or ``p/q``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .linalg import Matrix
from .complexes import ChainComplex, SimplicialComplex, WeightAssignment, from_facets


class FormatError(ValueError):
    pass


# an integer token, and a weight value (an integer or p/q), in ASCII digits
_INTEGER = re.compile(r"[+-]?[0-9]+")
_WEIGHT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _integers(tokens, line):
    """The integer tokens of a file line, or a FormatError quoting the line.

    Each token must match ``_INTEGER`` before ``int()`` sees it, since
    ``int()`` also takes underscores and non-ASCII digits.
    """
    if not all(map(_INTEGER.fullmatch, tokens)):
        raise FormatError(f"expected integers: {line!r}")
    try:
        return [int(t) for t in tokens]
    except ValueError:
        # int() refuses a token past the interpreter's limit on digits
        raise FormatError(f"integer has too many digits: {line!r}") from None


def _content_lines(text):
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def parse_any(text):
    """Parse a complex file into a SimplicialComplex (facets form) or ChainComplex."""
    lines = _content_lines(text)
    if not lines:
        raise FormatError("empty complex file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "dim":
        raise FormatError("first line must be 'dim <d>'")
    (d,) = _integers(head[1:], lines[0])
    if d < 0:
        raise FormatError("dimension must be nonnegative")
    body = lines[1:]
    if body and body[0].split()[0] == "facets":
        parts = body[0].split()
        if len(parts) != 2:
            raise FormatError("facets header must be 'facets <count>'")
        (count,) = _integers(parts[1:], body[0])
        if count < 1:
            raise FormatError(f"facet count must be at least 1: {body[0]!r}")
        facet_lines = body[1:]
        if len(facet_lines) != count:
            raise FormatError(f"expected {count} facet lines, found {len(facet_lines)}")
        facets = []
        for line in facet_lines:
            vs = _integers(line.split(), line)
            if vs != sorted(vs) or len(set(vs)) != len(vs):
                raise FormatError(f"facet line must be a sorted vertex set: {line!r}")
            facets.append(set(vs))
        n = max(v for f in facets for v in f)
        S = from_facets(n, facets)
        if S.dim != d:
            raise FormatError(f"header says dim {d} but facets have dimension {S.dim}")
        return S
    if d == 0:
        raise FormatError("dim 0 needs a facets block: matrix blocks give no vertex count")
    matrices = {}
    i = 0
    while i < len(body):
        parts = body[i].split()
        if len(parts) != 4 or parts[0] != "matrix":
            raise FormatError(f"expected 'matrix k rows cols', got {body[i]!r}")
        k, nrows, ncols = _integers(parts[1:], body[i])
        if k in matrices:
            raise FormatError(f"matrix {k} given twice: {body[i]!r}")
        rows = []
        for j in range(nrows):
            i += 1
            if i >= len(body):
                raise FormatError(f"matrix {k}: missing row {j}")
            row = _integers(body[i].split(), body[i])
            if len(row) != ncols:
                raise FormatError(f"matrix {k}: row {j} has {len(row)} entries, expected {ncols}")
            rows.append({j: x for j, x in enumerate(row) if x})
        matrices[k] = Matrix._from_rows(rows, ncols, True)
        i += 1
    if sorted(matrices) != list(range(1, d + 1)):
        raise FormatError(f"need matrix blocks for k = 1..{d}")
    sizes = [matrices[1].nrows] + [matrices[k].ncols for k in range(1, d + 1)]
    for k in range(2, d + 1):
        if matrices[k].nrows != sizes[k - 1]:
            raise FormatError(f"matrix {k} has {matrices[k].nrows} rows, expected {sizes[k - 1]}")
    cells = tuple(tuple(f"{k}:{i}" for i in range(sizes[k])) for k in range(d + 1))
    # the file stores only the interior maps; the augmentation identity is a
    # convention that formal duals legitimately violate, so it is not enforced
    return ChainComplex.create(
        cells, tuple(matrices[k] for k in range(1, d + 1)), check_augmentation=False
    )


def parse_complex(text):
    """Parse a complex file straight to a chain complex."""
    obj = parse_any(text)
    return obj.to_chain_complex() if isinstance(obj, SimplicialComplex) else obj


def serialize_complex(obj):
    """Canonical text form: facets blocks for simplicial input, matrix blocks otherwise."""
    if isinstance(obj, SimplicialComplex):
        facets = sorted(tuple(sorted(f)) for f in obj.facets)
        lines = [f"dim {obj.dim}", f"facets {len(facets)}"]
        lines.extend(" ".join(str(v) for v in f) for f in facets)
        return "\n".join(lines) + "\n"
    if isinstance(obj, ChainComplex):
        if obj.dim == 0:  # matrix blocks would carry no vertex count
            n = obj.n_cells(0)
            return "\n".join(["dim 0", f"facets {n}", *map(str, range(1, n + 1))]) + "\n"
        lines = [f"dim {obj.dim}"]
        for k in range(1, obj.dim + 1):
            b = obj.boundaries[k]
            lines.append(f"matrix {k} {b.nrows} {b.ncols}")
            lines.extend(" ".join(str(x) for x in row) for row in b.data)
        return "\n".join(lines) + "\n"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def parse_weights(text):
    """Parse 'dim index value' weight lines into a WeightAssignment."""
    values = {}
    for line in _content_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise FormatError(f"weight line must be 'dim index value': {line!r}")
        key = tuple(_integers(parts[:2], line))
        if key in values:
            raise FormatError(f"duplicate weight for cell {key}")
        if not _WEIGHT.fullmatch(parts[2]):
            raise FormatError(f"weight must be an integer or p/q: {line!r}")
        try:
            values[key] = Fraction(*_integers(parts[2].split("/"), line))
        except ZeroDivisionError:
            raise FormatError(f"weight has a zero denominator: {line!r}") from None
    return WeightAssignment(values)


def serialize_weights(w):
    lines = []
    for (dim, idx), value in sorted(w.items()):
        text = str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"
        lines.append(f"{dim} {idx} {text}")
    return "\n".join(lines) + "\n"


def census_line(labels, facets, torsion):
    """One census line, 'labels ; torsion'.  A census comes in search order,
    lexicographic in cell indices, which for matrix-form labels 'k:i' is not
    string order once a level has 11 cells: '2:2' comes before '2:10'."""
    return " ".join(labels[i] for i in facets) + f" ; {torsion}\n"
