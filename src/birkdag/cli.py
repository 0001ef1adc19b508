"""Command-line interface.

Subcommands: generate, fit, tune, benchmark, project, sample-perms.
Exit codes: 0 success, 2 usage or validation error, 3 I/O error,
4 partial results or non-convergence, 5 mathematical guard violation.
All behaviour is controlled by flags and seeds only, never environment
variables, so runs are reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PARTIAL = 4
EXIT_GUARD = 5


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise _IoError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str):
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text)
    except OSError as exc:
        raise _IoError(f"cannot write {path}: {exc}") from exc


class _IoError(Exception):
    pass


def _load_matrix(path: str) -> np.ndarray:
    from birkdag import io as bio

    text = _read_text(path)
    try:
        return bio.matrix_from_csv(text)
    except ValueError as exc:
        raise _IoError(f"malformed CSV in {path}: {exc}") from exc


def cmd_generate(args) -> int:
    from birkdag import io as bio
    from birkdag.sem import generate_dag, sample_data

    rng = np.random.default_rng(args.seed)
    inst = generate_dag(args.p, args.s, rng)
    data = sample_data(inst, args.n, rng)
    out = Path(args.out_dir)
    _write_text(str(out / "instance.json"), bio.instance_to_json(inst, args.seed))
    _write_text(str(out / "data.csv"), bio.matrix_to_csv(data.x))
    _write_text(str(out / "truth_b.csv"), bio.matrix_to_csv(inst.adjacency.b))
    _write_text(str(out / "truth_perm.csv"), bio.permutation_to_csv(inst.ordering))
    print(f"wrote instance.json, data.csv, truth_b.csv, truth_perm.csv to {out}")
    return EXIT_OK


def _fit_config(args):
    from birkdag.pipeline import RrcfConfig
    from birkdag.scoring import McpParams

    return RrcfConfig(
        mcp=McpParams(lam=args.lam, gamma=args.gamma),
        mu=args.mu,
        outer_k_max=args.outer_k_max,
        seed=args.seed,
        gamma_bic=args.gamma_bic,
        init=args.init,
    )


def cmd_fit(args) -> int:
    from birkdag import io as bio
    from birkdag.pipeline import fit
    from birkdag.sem import DataMatrix

    cfg = _fit_config(args)
    x = _load_matrix(args.data)
    res = fit(DataMatrix(x), cfg)
    _write_text(args.out, bio.fit_result_to_json(res, x.shape[0], cfg))
    print(f"fit written to {args.out}; ebic={res.ebic_value:.6g}; "
          f"support={res.l_hat.support_size()}; converged={res.converged}")
    if not res.converged:
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_tune(args) -> int:
    from birkdag import io as bio
    from birkdag.pipeline import tune
    from birkdag.scoring import ConvexityGuardError
    from birkdag.sem import DataMatrix

    try:
        grid = bio.grid_from_json(_read_text(args.grid))
    except ConvexityGuardError:
        raise
    except (ValueError, TypeError) as exc:
        raise ValueError(f"invalid grid JSON: {exc}") from exc
    x = _load_matrix(args.data)
    best, table = tune(DataMatrix(x), grid, init=args.init)
    out = Path(args.out)
    header = "lambda,gamma,support,ebic"
    lines = [header]
    for row in table:
        lines.append(",".join(
            repr(float(row[k])) if isinstance(row[k], float) else str(row[k])
            for k in ("lam", "gamma", "support", "ebic")
        ))
    _write_text(str(out / "tuning_table.csv"), "\n".join(lines) + "\n")
    _write_text(str(out / "best_params.json"), json.dumps(
        {"lambda": best["lam"], "gamma": best["gamma"],
         "ebic": best["ebic"], "gamma_bic": grid.gamma_bic},
        indent=2) + "\n")
    print(f"best: lambda={best['lam']} gamma={best['gamma']} ebic={best['ebic']:.6g}")
    return EXIT_OK


def cmd_project(args) -> int:
    from birkdag import io as bio
    from birkdag.birkhoff import project_to_birkhoff

    m = _load_matrix(args.matrix)
    res = project_to_birkhoff(m, eps=args.eps, k_max=args.k_max)
    _write_text(args.out, bio.matrix_to_csv(res.ds.m))
    print(f"duality gap: {res.gap:.6e}")
    if not res.converged:
        print("warning: projection did not reach the requested gap", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_sample_perms(args) -> int:
    from birkdag import io as bio
    from birkdag.birkhoff import DoublyStochastic, sample_permutations

    m = _load_matrix(args.matrix)
    try:
        ds = DoublyStochastic(m)
    except ValueError as exc:
        raise ValueError(f"input is not doubly stochastic: {exc}") from exc
    rng = np.random.default_rng(args.seed)
    perms = sample_permutations(ds, args.n_samples, rng)
    _write_text(args.out, "".join(bio.permutation_to_csv(p) for p in perms))
    print(f"wrote {len(perms)} permutations to {args.out}")
    return EXIT_OK


def cmd_benchmark(args) -> int:
    from birkdag import io as bio
    from birkdag.metrics import benchmark_csv, run_benchmark
    from birkdag.scoring import ConvexityGuardError

    try:
        spec = bio.spec_from_json(_read_text(args.spec))
    except ConvexityGuardError:
        raise
    except (KeyError, ValueError, TypeError) as exc:
        raise ValueError(f"invalid benchmark spec: {exc}") from exc
    rows = run_benchmark(spec, args.threads)
    _write_text(args.out, benchmark_csv(rows))
    n_err = 0
    for r in rows:
        if r["rep"] == "mean":
            print(f"({r['setting_p']},{r['setting_s']}) mean: tpr={r['tpr']} fpr={r['fpr']} "
                  f"shd={r['shd']} frob={r['scaled_frob']}")
        elif r["status"] == "error":
            n_err += 1
            print(f"replicate failed: setting ({r['setting_p']},{r['setting_s']}) rep {r['rep']} "
                  f"seed {r['seed']}: {r['error']}", file=sys.stderr)
    if n_err:
        print(f"{n_err} replicate(s) failed", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="birkdag",
        description="Gaussian DAG learning via a Birkhoff-polytope ordering relaxation "
                    "and MCP-penalized sparse Cholesky estimation.",
    )
    ap.add_argument("--threads", type=int, default=1,
                    help="processes for benchmark replicates, at least 1 (default 1); "
                         "capped at the replicate count and the usable CPUs; the output "
                         "does not depend on it")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic instance and data")
    g.add_argument("--p", type=int, required=True, help="number of variables (>= 2)")
    g.add_argument("--s", type=int, required=True, help="expected number of edges")
    g.add_argument("--n", type=int, required=True, help="number of samples")
    g.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    g.add_argument("--out-dir", required=True, help="output directory")
    g.set_defaults(func=cmd_generate)

    f = sub.add_parser("fit", help="fit a DAG to a data CSV")
    f.add_argument("--data", required=True, help="n x p data CSV (no header)")
    f.add_argument("--lambda", dest="lam", type=float, required=True, help="MCP lambda (>= 0)")
    f.add_argument("--gamma", type=float, required=True, help="MCP gamma (> 1)")
    f.add_argument("--mu", type=float, default=None,
                   help="relaxation pull toward vertices (default: convexity threshold)")
    f.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    f.add_argument("--outer-k-max", type=int, default=20, help="L-step cap (default 20)")
    f.add_argument("--gamma-bic", type=float, default=0.5, help="eBIC gamma (default 0.5)")
    f.add_argument("--init", choices=("variance", "identity"), default="variance",
                   help="initial ordering (default: ascending sample variance)")
    f.add_argument("--out", required=True, help="output JSON path")
    f.set_defaults(func=cmd_fit)

    t = sub.add_parser("tune", help="select (lambda, gamma) by eBIC, one L-step per cell at "
                                    "the initial ordering; deterministic, so it takes no seed")
    t.add_argument("--data", required=True, help="n x p data CSV (no header)")
    t.add_argument("--grid", required=True,
                   help='grid JSON with keys lambdas, gammas and optional gamma_bic (eBIC '
                        'gamma in [0,1], default 0.5), e.g. {"lambdas":[0.2,0.4],"gammas":[2.0]}')
    t.add_argument("--init", choices=("variance", "identity"), default="variance",
                   help="initial ordering (default: ascending sample variance)")
    t.add_argument("--out", required=True, help="output directory for table and best params")
    t.set_defaults(func=cmd_tune)

    pr = sub.add_parser("project", help="project a square matrix onto doubly stochastic matrices")
    pr.add_argument("--matrix", required=True, help="square matrix CSV")
    pr.add_argument("--eps", type=float, default=1e-12, help="duality gap tolerance (default 1e-12)")
    pr.add_argument("--k-max", type=int, default=50000, help="iteration cap (default 50000)")
    pr.add_argument("--out", required=True, help="output CSV path")
    pr.set_defaults(func=cmd_project)

    sp = sub.add_parser("sample-perms", help="sample permutations from a doubly stochastic matrix")
    sp.add_argument("--matrix", required=True, help="doubly stochastic matrix CSV")
    sp.add_argument("--n-samples", type=int, required=True, help="number of samples")
    sp.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    sp.add_argument("--out", required=True, help="output CSV path (one 1-based row per sample)")
    sp.set_defaults(func=cmd_sample_perms)

    b = sub.add_parser("benchmark", help="run the simulation benchmark from a spec JSON")
    b.add_argument("--spec", required=True,
                   help='spec JSON: {"settings":[[p,s],...]} plus optional "n", "reps", '
                        '"seed", "outer_k_max", "grid" {...} and "measure_runtime" (true '
                        'stamps wall-clock runtimes into rows and breaks byte determinism; '
                        'see BenchmarkSpec for defaults); any other key is an error')
    b.add_argument("--out", required=True, help="output CSV path")
    b.set_defaults(func=cmd_benchmark)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    from birkdag.scoring import ConvexityGuardError

    try:
        if args.threads < 1:
            raise ValueError(f"--threads must be at least 1, got {args.threads}")
        return args.func(args)
    except _IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConvexityGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
