"""A fixed exact-arithmetic computation that gauges how fast the host runs right now.

On the shared 2-core host the README figures come from, the speed of plain
Python drifted by up to 1.6 times over a few minutes, in CPU time as much as
in wall time, so whole 30 s runs of one commit differed by up to a third.
Each pass therefore times this computation before its set-up and again after
its calls.  It shares no code with cellforest, so no change to the library
moves it: a fraction-free determinant of a fixed 80x80 integer matrix and a
few thousand small sparse unit-pivot eliminations, the two kinds of loop the
library spends its time in.  ``run.py`` scales a run's median times by
``REFERENCE_S`` over the run's median reference time, so they read as seconds
on a host where the reference takes ``REFERENCE_S``.
"""

import random
import time

# seconds the reference took on the host the README figures come from
REFERENCE_S = 0.3

_rng = random.Random(20240901)
MATRIX = tuple(tuple(_rng.randint(-9, 9) for _ in range(80)) for _ in range(80))


def bareiss_det(matrix):
    a = [list(row) for row in matrix]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, row_k = a[k][k], a[k]
        for i in range(k + 1, n):
            row_i, factor = a[i], a[i][k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def sparse_eliminations(rounds):
    rng = random.Random(7)
    pivots = 0
    for _ in range(rounds):
        cols = [{rng.randrange(30): rng.choice((-1, 1)) for _ in range(3)} for _ in range(12)]
        while cols:
            col = cols.pop()
            if not col:
                continue
            row, value = next(iter(col.items()))
            for other in cols:
                c = other.get(row)
                if c:
                    for r, v in col.items():
                        nv = other.get(r, 0) - c * value * v
                        if nv:
                            other[r] = nv
                        else:
                            other.pop(r, None)
            pivots += 1
    return pivots


def reference_seconds():
    start = time.perf_counter()
    bareiss_det(MATRIX)
    sparse_eliminations(3000)
    return time.perf_counter() - start
