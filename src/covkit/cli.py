"""Command-line interface.

Subcommands: run, gen-data, eval-coverage, tournament, bon.  Exit codes
follow the phase that failed: 2 for a usage error, a ConfigError, or any
error raised while the arguments and input files (config, task, policy,
data) are read; 3 for any other error, raised once the computation has
started.  Failures emit a one-line error JSON on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .core import check_number, load_jsonl
from .decoding import AdversarialReward, bon_regret
from .harness import (ConfigError, build_task, check_n_grid, config_errors,
                      gen_data, json_object, run)
from .metrics import coverage_exact, coverage_mc
from .models import TabularModel
from .seeding import SeedTree
from .selection import (CandidateClass, offset_tournament, select_ce,
                        simple_tournament)


def load_policy(path: str) -> TabularModel:
    """Tabular policy JSON: {"type","V","H","tables":[{"x","prefix","p"}]}."""
    where = f"policy file {path}"
    with open(path) as f:
        spec = json_object(json.load(f), where)
    if spec.get("type") != "tabular":
        raise ConfigError(f"unsupported policy type {spec.get('type')!r}")
    json_object(spec, where, ("V", "H"))
    rows = spec.get("tables", [])
    if not isinstance(rows, list):
        raise ConfigError(f"{where}: tables must be a list")
    tables = {}
    for i, row in enumerate(rows):
        json_object(row, f"{where}: tables[{i}]", ("x", "prefix", "p"))
        if not isinstance(row["prefix"], list):
            raise ConfigError(f"{where}: tables[{i}].prefix must be a list "
                              f"of tokens, got {row['prefix']!r}")
        x = tuple(row["x"]) if isinstance(row["x"], list) else row["x"]
        try:
            hash(x)
        except TypeError:
            raise ConfigError(f"{where}: tables[{i}].x must be a number, a "
                              f"string or a list of them, got {row['x']!r}")
        tables[(x, tuple(row["prefix"]))] = row["p"]
    return TabularModel(tables, V=spec["V"], H=spec["H"],
                        default=spec.get("default"))


def _load_task_file(path: str):
    where = f"task file {path}"
    with open(path) as f:
        spec = json_object(json.load(f), where)
    if set(spec) - {"name", "params"}:
        raise ConfigError("task file must have only 'name' and 'params'")
    json_object(spec, where, ("name",))
    return build_task(spec["name"],
                      json_object(spec.get("params", {}), f"{where}: params"))


def _check_shape(piD, piHat):
    """Refuse a --pi-hat whose (V, H) is not the data policy's (exit 2)."""
    if (piHat.V, piHat.H) != (piD.V, piD.H):
        raise ConfigError(f"--pi-hat has (V, H) = ({piHat.V}, {piHat.H}), "
                          f"the data policy ({piD.V}, {piD.H})")


def cmd_run(args) -> int:
    with config_errors():
        with open(args.config) as f:
            cfg = json.load(f)
    out = run(cfg)      # validates cfg: a ConfigError for any refusal
    print(json.dumps({"out_dir": out}))
    return 0


def cmd_gen_data(args) -> int:
    with config_errors():
        check_number("--n", args.n, 1, integer=True)
        params = json_object(json.loads(args.params), "--params")
    gen_data(args.task, params, args.n, args.seed, args.out,
             header_path=args.header)
    print(json.dumps({"out": args.out, "n": args.n}))
    return 0


def cmd_eval_coverage(args) -> int:
    with config_errors():
        if args.mode == "mc":
            check_number("--n-samples", args.n_samples, 2, integer=True)
        task = _load_task_file(args.task)
        if args.mode == "exact" and not hasattr(task.mu, "items"):
            raise ConfigError("exact metrics need an enumerable prompt "
                              "distribution; use --mode mc")
        piD = load_policy(args.pi_d) if args.pi_d else task.piD
        piHat = load_policy(args.pi_hat)
        _check_shape(piD, piHat)
        grid = check_n_grid(args.N_grid)
    if args.mode == "exact":
        curve = coverage_exact(piD, piHat, task.mu.items(), grid)
    else:
        rng = SeedTree(args.seed).child("eval-coverage").rng()
        curve = coverage_mc(piD, piHat, task.mu, grid, args.n_samples, rng,
                            interval=args.interval)
    sys.stdout.write(curve.to_csv())
    return 0


def cmd_tournament(args) -> int:
    with config_errors():
        check_number("--N", args.N, 1)
        check_number("--gamma", args.gamma, 0)
        cands = CandidateClass([load_policy(p) for p in args.candidates])
        first = cands.candidates[0]
        dataset = load_jsonl(args.data, H=first.H, V=first.V)
    if args.rule == "ce":
        report = select_ce(cands, dataset)
    elif args.rule == "simple":
        report = simple_tournament(cands, dataset, args.N)
    else:
        rng = SeedTree(args.seed).child("tournament").rng()
        report = offset_tournament(cands, dataset, args.N, gamma=args.gamma,
                                   rng=rng)
    print(report.to_json())
    return 0


def cmd_bon(args) -> int:
    with config_errors():
        check_number("--reward-scale", args.reward_scale, 0, lo_open=True)
        check_number("--trials", args.trials, 100, integer=True)
        task = _load_task_file(args.task)
        piHat = load_policy(args.pi_hat)
        _check_shape(task.piD, piHat)
        grid = check_n_grid(args.N_grid, integers=True)
    scale = args.reward_scale
    reward = AdversarialReward(task.piD, piHat, scale)
    rng = SeedTree(args.seed).child("bon").rng()
    pcov_ref = ""
    if hasattr(task.mu, "items"):
        curve = coverage_exact(task.piD, piHat, task.mu.items(),
                               [2.0 * scale])
        pcov_ref = f"{curve.values[0]:.12g}"
    print("N,regret,half_width,pcov_ref")
    for N in grid:
        est, hw = bon_regret(piHat, task.piD, reward, task.mu, int(N),
                             args.trials, rng)
        print(f"{N:g},{est:.12g},{hw:.12g},{pcov_ref}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by `main`."""
    p = argparse.ArgumentParser(prog="covkit",
                                description="coverage-profile experiments")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("run", help="execute an experiment config")
    q.add_argument("config")
    q.set_defaults(fn=cmd_run)

    q = sub.add_parser("gen-data", help="sample a dataset to JSONL")
    q.add_argument("--task", required=True)
    q.add_argument("--params", default="{}")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.add_argument("--header")
    q.set_defaults(fn=cmd_gen_data)

    q = sub.add_parser("eval-coverage", help="coverage curve between policies")
    q.add_argument("--pi-d")
    q.add_argument("--pi-hat", required=True)
    q.add_argument("--task", required=True)
    q.add_argument("--N-grid", required=True)
    q.add_argument("--mode", choices=["exact", "mc"], default="exact")
    q.add_argument("--n-samples", type=int, default=2000)
    q.add_argument("--interval", choices=["hoeffding", "wilson"],
                   default="hoeffding",
                   help="mc band: hoeffding, the DKW-Massart (1990) width, "
                        "holds at every N at once; wilson at one N at a time")
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=cmd_eval_coverage)

    q = sub.add_parser("tournament", help="model selection over candidates")
    q.add_argument("--candidates", nargs="+", required=True)
    q.add_argument("--data", required=True)
    q.add_argument("--N", type=float, default=16.0)
    q.add_argument("--rule", choices=["ce", "simple", "offset"],
                   default="simple")
    q.add_argument("--gamma", type=float, default=1.0)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=cmd_tournament)

    q = sub.add_parser("bon", help="Best-of-N regret sweep")
    q.add_argument("--task", required=True)
    q.add_argument("--pi-hat", required=True)
    q.add_argument("--N-grid", required=True)
    q.add_argument("--reward-scale", type=float, default=8.0)
    q.add_argument("--trials", type=int, default=1000)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=cmd_bon)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        with config_errors():       # each command's --seed, before its work
            check_number("--seed", getattr(args, "seed", 0), 0, integer=True)
        return args.fn(args)
    except ConfigError as e:
        sys.stderr.write(json.dumps(
            {"error": str(e), "kind": "validation"}) + "\n")
        return 2
    except Exception as e:
        sys.stderr.write(json.dumps(
            {"error": str(e), "kind": "runtime"}) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
