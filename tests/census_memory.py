"""``tau --method bruteforce`` on ``gen colorful 3 3 3`` (528,201 forests)
through CLI processes: its stdout must match the pinned report, and the
children's peak resident set must stay under 30 MiB.  A census kept as a
tuple of forests peaks at about 150 MiB; the streamed sum near 17 MiB.

    PYTHONPATH=src python tests/census_memory.py

exits 1 naming what failed.  It takes about 10 s, so Tier-1 leaves it out.
"""

import os
import resource
import sys
import tempfile

from goldens import through_processes

PINNED = "method: bruteforce\nk: 2\nvalue: 531441\nforests: 528201\nseed: -\ncap: 5000000\n"
LIMIT_MIB = 30

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "colorful_3_3_3.txt")
        code, _, err = through_processes(["gen", "colorful", "3", "3", "3", "--out", path])
        if code:
            sys.exit(f"gen colorful 3 3 3: exit {code}\n{err}")
        code, out, err = through_processes(["tau", path, "--method", "bruteforce"])
    # ru_maxrss is in KiB on Linux: the largest of the children waited for
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"tau --method bruteforce: exit {code}, peak {peak:.1f} MiB")
    failed = []
    if code or out != PINNED:
        failed.append(f"report differs from the pinned one:\n{out}{err}")
    if peak >= LIMIT_MIB:
        failed.append(f"peak resident set {peak:.1f} MiB, limit {LIMIT_MIB} MiB")
    for message in failed:
        print(message)
    sys.exit(1 if failed else 0)
