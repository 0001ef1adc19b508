"""Write a fixed set of birkdag outputs into OUTDIR, for byte comparison.

Usage: python3 tools/same_outputs.py OUTDIR

Runs the ``birkdag`` CLI of the checkout this file belongs to, in-process
and with OUTDIR as the working directory, on fixed inputs and seeds:

* ``generate`` files of one instance (p 30, s 30, n 100, seed 31);
* ``fit`` JSON on that data with automatic mu and with ``--mu 0.3``, and
  on a small standardized instance whose ordering step moves (p 6);
* ``tune`` outputs on that data;
* ``project`` of a fixed 100 x 100 Gaussian matrix, and ``sample-perms``
  of 150 permutations from the projected matrix;
* benchmark CSVs for three specs (criterion 12's, criterion 9's and
  (100, 100) at n 150, reps 4, seed 401, lambda 0.3-0.7), each at
  ``--threads`` 1 and 2;
* ``log.txt``: each command, its exit code, stdout and stderr.

Every path is relative to OUTDIR, so the files do not depend on where
OUTDIR is.  A change meant to keep behaviour leaves
``diff -r OUTDIR_BEFORE OUTDIR_AFTER`` empty, with this script run from
each of the two checkouts.  It takes about ten seconds on two cores.
BLAS runs on one thread, as in ``bench/run.py``: the benchmark CSVs
differ in their last bits between one BLAS thread and the default pool.
"""

from __future__ import annotations

import os

# before numpy loads, so that both checkouts' runs share the setting
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

LAMBDAS = [0.3, 0.4, 0.5, 0.6, 0.7]
SPECS = {
    "criterion12": {"settings": [[10, 10]], "n": 150, "reps": 2, "seed": 12,
                    "grid": {"lambdas": [0.2, 0.4], "gammas": [2.0]}, "outer_k_max": 3},
    "criterion9": {"settings": [[100, 100], [100, 200]], "n": 150, "reps": 10, "seed": 9,
                   "grid": {"lambdas": LAMBDAS, "gammas": [2.0]}, "outer_k_max": 12},
    "p100": {"settings": [[100, 100]], "n": 150, "reps": 4, "seed": 401,
             "grid": {"lambdas": LAMBDAS, "gammas": [2.0]}},
}
GRID = {"lambdas": [0.2, 0.3, 0.4, 0.5], "gammas": [2.0, 3.0]}


def commands() -> list[list[str]]:
    """The CLI argument lists, in the order they run."""
    fit = ["fit", "--data", "gen/data.csv", "--lambda", "0.3", "--gamma", "2.0"]
    cmds = [
        ["generate", "--p", "30", "--s", "30", "--n", "100", "--seed", "31", "--out-dir", "gen"],
        fit + ["--out", "fit_auto.json"],
        fit + ["--mu", "0.3", "--out", "fit_mu0.3.json"],
        ["fit", "--data", "moving.csv", "--lambda", "0.5", "--gamma", "3.0", "--seed", "19",
         "--out", "fit_moving.json"],
        ["tune", "--data", "gen/data.csv", "--grid", "grid.json", "--out", "tune"],
        ["project", "--matrix", "square.csv", "--out", "projected.csv"],
        ["sample-perms", "--matrix", "projected.csv", "--n-samples", "150", "--seed", "5",
         "--out", "perms.csv"],
    ]
    for name in SPECS:
        for threads in ("1", "2"):
            cmds.append(["--threads", threads, "benchmark", "--spec", f"{name}.json",
                         "--out", f"bench_{name}_t{threads}.csv"])
    return cmds


def write_inputs() -> None:
    """The grid and spec JSONs, the standardized p = 6 data CSV and the
    matrix to project."""
    import numpy as np

    from birkdag.io import matrix_to_csv
    from birkdag.sem import generate_dag, sample_data

    Path("grid.json").write_text(json.dumps(GRID) + "\n")
    for name, spec in SPECS.items():
        Path(f"{name}.json").write_text(json.dumps(spec) + "\n")
    # the fit at lambda 0.5, gamma 3, seed 19 takes an ordering step
    # that changes the ordering, then one that keeps it
    rng = np.random.default_rng(19)
    p = int(rng.integers(4, 8))
    x = sample_data(generate_dag(p, p, rng), 60, rng).x
    Path("moving.csv").write_text(matrix_to_csv(x / x.std(axis=0)))
    square = np.random.default_rng(33).standard_normal((100, 100))
    Path("square.csv").write_text(matrix_to_csv(square))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from birkdag.cli import main as cli_main

    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    write_inputs()
    log = []
    for args in commands():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli_main(args)
        log.append(f"$ birkdag {' '.join(args)}\nexit {rc}\n{stdout.getvalue()}{stderr.getvalue()}")
        print(f"exit {rc}: birkdag {' '.join(args)}", file=sys.stderr)
    Path("log.txt").write_text("\n".join(log))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
