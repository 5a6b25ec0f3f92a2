"""Every golden file under ``golden/``, and the CLI runs that reproduce it.

A ``Golden`` names a file, its runs (each a gen call or None, and a command
that reads the generated complex as ``{complex}``) and the seconds each of
their processes may take.  ``render`` replays it through ``in_process``
(Tier-1, in ``test_io_cli.py``) or ``through_processes``.  ``PYTHONPATH=src
python tests/goldens.py`` renders every entry through processes and exits 1
naming each file that does not match.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import cellforest
from cellforest.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = str(Path(cellforest.__file__).parents[1])


class Golden(namedtuple("Golden", "name runs timeout", defaults=(None,))):
    def pinned(self):
        return (GOLDEN / self.name).read_bytes()


REPORTED = ((2, "named rp2_six_vertex"), (2, "named rp2_cell"), (2, "named moebius"), (2, "named annulus"),
            (2, "named bipyramid"), (2, "colorful 2 2 2"), (3, "hypercube 3"))
METHODS = ("reduced", "pseudodet", "alternating", "covolume", "cobase", "cobase-spectral")

GOLDENS = (
    Golden("verify_all_seed1.txt", [(None, "verify all --seed 1")]),
    # L_2 of K_12^3 is 220 x 220, with a char_poly bound of about 790 bits
    Golden("tau_K12_3_pseudodet.txt", [("simplex-skeleton 12 3", "tau {complex} --method pseudodet")]),
    Golden("critical_K8_2.txt", [("simplex-skeleton 8 2", "critical {complex}")]),
    # Smith forms with torsion up to Z/960, timed so that entries that explode fail
    Golden("critical_Q5_2.txt", [("hypercube-skeleton 5 2", "critical {complex}")], timeout=30),
    # 46,620 forests in 2,983,680 bytes
    Golden("census_K6_2.sha256", [("simplex-skeleton 6 2", "tau {complex} --method bruteforce --census {output}")]),
    # six methods at every level 1..dim of seven complexes: 90 reports, refusals included
    Golden("tau_reports.txt", [(gen, f"tau {{complex}} --k {k} --method {method}")
                               for dim, gen in REPORTED for k in range(1, dim + 1) for method in METHODS]),
    # levels whose k-cells are fewer than their (k-1)-cells
    Golden("tau_spectral_sides.txt",
           [(gen, f"tau {{complex}} --method {method}")
            for gen in ("hypercube-skeleton 4 3", "hypercube-skeleton 5 3", "colorful 2 2 2 2")
            for method in ("pseudodet", "alternating")]
           + [(gen, "rooted-poly {complex}") for gen in ("hypercube 3", "hypercube 4", "simplex-skeleton 5 3")]),
    # det_restricted and covol^2 on Hermite bases up to 108 x 65; tau_reports.txt pins only small complexes
    Golden("tau_covolume_sizes.txt",
           [(gen, "tau {complex} --method covolume")
            for gen in ("colorful 3 3 3 3", "colorful 5 5 5", "hypercube-skeleton 5 3", "simplex-skeleton 10 3",
                        "named moebius")]),
    # critical groups and cut/flow discriminant groups at the elimination workload's sizes
    Golden("critical_sizes.txt",
           [(gen, "critical {complex}") for gen in ("colorful 3 3 3 3", "hypercube-skeleton 5 3")]),
    # the order ideal of one generator: 3,432 facets on 14 vertices, 9,907 faces below them
    Golden("shifted_8_14.sha256", [(None, "gen shifted 8,9,10,11,12,13,14 --out {output}")], timeout=10),
)


def in_process(argv):
    """Exit code, stdout and stderr of the CLI called in this interpreter."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        return main(argv), out.getvalue(), err.getvalue()


def through_processes(argv, timeout=None):
    """Exit code, stdout and stderr of the CLI run from ``SRC`` in a new interpreter; 124 on a timeout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run([sys.executable, "-m", "cellforest.cli", *argv],
                              capture_output=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        return 124, "", f"timed out after {timeout} s\n"
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def render(golden, run):
    """The bytes that ``golden`` must hold, from its runs through ``run``: the
    stdout of one run, or for a ``.sha256`` golden the sha256sum line of the
    file it writes to ``{output}``, named as the golden with ``.txt``; or for
    several runs, or a failed one, each run's exit code, stdout and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        files = {name: os.path.join(tmp, name) for name in ("complex", "output")}
        sections, generated = [], None
        for gen, command in golden.runs:
            if gen and gen != generated:
                code, _, err = run(["gen", *gen.split(), "--out", files["complex"]])
                if code:
                    return f"gen {gen}: exit {code}\n{err}".encode()
                generated = gen
            code, out, err = run([arg.format(**files) for arg in command.split()])
            header = f"gen {gen}; {command.replace(' {complex}', '')}; exit {code}"
            sections.append(f"=== {header}\n--- stdout\n{out}--- stderr\n{err}")
        if len(sections) > 1 or code:
            return "".join(sections).encode()
        if golden.name.endswith(".sha256"):
            digest = hashlib.sha256(Path(files["output"]).read_bytes()).hexdigest()
            return f"{digest}  {Path(golden.name).stem}.txt\n".encode()
        return out.encode()


if __name__ == "__main__":
    failed = [g.name for g in GOLDENS if render(g, lambda argv: through_processes(argv, g.timeout)) != g.pinned()]
    for name in failed:
        print(f"golden mismatch: {GOLDEN / name}")
    print(f"{len(GOLDENS) - len(failed)} of {len(GOLDENS)} golden files match")
    sys.exit(1 if failed else 0)
