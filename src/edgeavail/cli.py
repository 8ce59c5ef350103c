"""Command-line front end.

Subcommands::

    solve PATH --reward NAME [--method gth|iter] ...      exact steady state
    simulate PATH --reward NAME [--horizon H] ...         Monte-Carlo estimate
    ft PATH | ft --paper --u-ru ... [--nc N ...]          fault-tree evaluation
    paper {table3,fig6,fig7,fig8,fig9} [--out CSV] ...    bundled studies

Everything on stdout is machine parseable (``key=value`` lines, or CSV with
``--out -``); diagnostics go to stderr.  ``--json`` switches any subcommand to
a single JSON object.  ``--set name=value`` overrides model parameters (solve,
simulate) or intensity-table entries (paper) and rejects unknown names before
any computation.  ``EDGEAVAIL_SEED`` provides the default simulation seed.

Exit codes: 0 success, 1 input error, 2 computation error, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import experiments as xp
from . import models as md
from .document import parse_model
from .errors import (DenseBlockTooLarge, EdgeavailError, NotConverged,
                     NotIrreducible, ParseError, SemanticError,
                     StateSpaceExceeded, VanishingLivelock, VanishingLoop)
from .faulttree import RedundancyConfig, eval_ft, parse_ft, u_ran, u_sys
from .san import validate
from .simulator import simulate
from .solver import steady_state_gth, steady_state_iterative, unavailability
from .statespace import DEFAULT_MAX_STATES, eliminate_vanishing, explore, to_ctmc

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COMPUTE = 2
EXIT_USAGE = 64

_COMPUTE_ERRORS = (NotIrreducible, NotConverged, VanishingLoop,
                   VanishingLivelock, StateSpaceExceeded, DenseBlockTooLarge)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we want 64
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="edgeavail", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="exact steady-state solution of a .san model")
    solve.add_argument("path")
    solve.add_argument("--reward", required=True)
    solve.add_argument("--method", choices=("gth", "iter"), default="gth")
    solve.add_argument("--tol", type=float, default=1e-12)
    solve.add_argument("--max-iter", type=int, default=1_000_000)
    solve.add_argument("--max-states", type=int, default=DEFAULT_MAX_STATES)
    solve.add_argument("--set", action="append", default=[], metavar="NAME=VALUE")
    solve.add_argument("--json", action="store_true")

    sim = sub.add_parser("simulate", help="Monte-Carlo steady-state estimate")
    sim.add_argument("path")
    sim.add_argument("--reward", required=True)
    sim.add_argument("--horizon", type=float, default=1e6)
    sim.add_argument("--warmup", type=float, default=None)
    sim.add_argument("--batches", type=int, default=20)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--set", action="append", default=[], metavar="NAME=VALUE")
    sim.add_argument("--json", action="store_true")

    ft = sub.add_parser("ft", help="evaluate a fault tree")
    ft.add_argument("path", nargs="?")
    ft.add_argument("--paper", action="store_true",
                    help="use the built-in system tree instead of a file")
    for name in ("ru", "du", "cu", "meh", "5gc", "mano"):
        ft.add_argument(f"--u-{name}", type=float, dest=f"u_{name}")
    ft.add_argument("--nc", type=int, default=1)
    ft.add_argument("--nd", type=int, default=1)
    ft.add_argument("--nr", type=int, default=1)
    ft.add_argument("--nh", type=int, default=1)
    ft.add_argument("--json", action="store_true")

    paper = sub.add_parser("paper", help="run a bundled study and write its CSV")
    paper.add_argument("study", choices=("table3", "fig6", "fig7", "fig8", "fig9"))
    paper.add_argument("--out", default=None, help="CSV path ('-' for stdout)")
    paper.add_argument("--set", action="append", default=[], metavar="NAME=VALUE")
    paper.add_argument("--jobs", type=int, default=None)
    paper.add_argument("--json", action="store_true")
    return p


def _parse_overrides(pairs) -> dict:
    out = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise UsageError(f"--set expects NAME=VALUE, got {pair!r}")
        try:
            out[name] = float(value)
        except ValueError:
            raise UsageError(f"--set {name}: not a number: {value!r}") from None
    return out


def _load_model(path, overrides):
    with open(path, "r", encoding="utf-8") as fh:
        model = parse_model(fh.read())
    if overrides:
        unknown = sorted(set(overrides) - set(model.parameters))
        if unknown:
            raise UsageError(
                f"--set names not declared by the model: {', '.join(unknown)}")
        model = dataclasses.replace(model, parameters={**model.parameters, **overrides})
        diags = validate(model)
        if diags:
            raise UsageError("overrides make the model invalid: " + "; ".join(diags))
    return model


def _emit(report: dict, as_json: bool):
    if as_json:
        print(json.dumps(report))
    else:
        for key, value in report.items():
            print(f"{key}={value}")


def _cmd_solve(args) -> int:
    if not 0.0 < args.tol < math.inf:
        raise UsageError("--tol must be positive and finite")
    if args.max_iter < 1:
        raise UsageError("--max-iter must be >= 1")
    if args.max_states < 1:
        raise UsageError("--max-states must be >= 1")
    model = _load_model(args.path, _parse_overrides(args.set))
    graph = explore(model, args.max_states)
    chain = to_ctmc(eliminate_vanishing(graph), args.reward)
    if args.method == "gth":
        ss = steady_state_gth(chain)
    else:
        ss = steady_state_iterative(chain, args.tol, args.max_iter)
    u = unavailability(chain, ss)
    _emit({
        "states": graph.n_states,
        "tangible": chain.n_states,
        "vanishing": graph.n_vanishing,
        "method": ss.method,
        "reward": args.reward,
        "residual": ss.residual,
        "availability": 1.0 - u,
        "unavailability": u,
    }, args.json)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.batches < 2:
        raise UsageError("--batches must be >= 2")
    if args.seed is None:
        args.seed = int(os.environ.get("EDGEAVAIL_SEED", "12345"))
    model = _load_model(args.path, _parse_overrides(args.set))
    est = simulate(model, args.reward, args.horizon, args.warmup,
                   args.batches, args.seed)
    _emit({
        "point": est.point,
        "ci_halfwidth": est.ci_halfwidth,
        "batches": est.batches,
        "horizon": est.horizon,
        "warmup": args.warmup if args.warmup is not None else 0.01 * args.horizon,
        "seed": est.seed,
    }, args.json)
    return EXIT_OK


def _cmd_ft(args) -> int:
    if args.paper:
        us = {}
        for name in ("ru", "du", "cu", "meh", "5gc", "mano"):
            value = getattr(args, f"u_{name}")
            if value is None:
                raise UsageError(f"--paper requires --u-{name}")
            if not 0.0 <= value <= 1.0:
                raise UsageError(f"--u-{name} must be in [0, 1]")
            us[name] = value
        try:
            cfg = RedundancyConfig(args.nc, args.nd, args.nr, args.nh)
        except ValueError as err:
            raise UsageError(str(err)) from None
        ran = u_ran(us["ru"], us["du"], us["cu"], cfg)
        _emit({"u_ran": ran,
               "u_sys": u_sys(ran, us["5gc"], us["mano"], us["meh"], cfg.N_H)},
              args.json)
        return EXIT_OK
    if not args.path:
        raise UsageError("give a fault-tree file or --paper")
    with open(args.path, "r", encoding="utf-8") as fh:
        tree = parse_ft(fh.read())
    _emit({"u_sys": eval_ft(tree)}, args.json)
    return EXIT_OK


def _cmd_paper(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise UsageError("--jobs must be >= 1")
    try:
        table = md.default_table().with_overrides(**_parse_overrides(args.set))
    except (KeyError, ValueError) as err:
        raise UsageError(str(err)) from None
    runner = {
        "table3": lambda: xp.run_table3(table, jobs=args.jobs),
        "fig6": lambda: xp.run_cluster_sweep(table, jobs=args.jobs),
        "fig7": lambda: xp.run_redundancy_configs(table, jobs=args.jobs),
        "fig8": lambda: xp.run_alpha_sweep(table, "both", jobs=args.jobs),
        "fig9": lambda: xp.run_alpha_sweep(table, "mano", jobs=args.jobs),
    }[args.study]
    result = runner()
    out = args.out or f"{args.study}.csv"
    if out == "-":
        sys.stdout.write(result.to_csv())
        return EXIT_OK
    result.write_csv(out)
    us = [r.unavailability for r in result.rows]
    _emit({
        "study": args.study,
        "rows": len(result.rows),
        "out": out,
        "min_unavailability": min(us),
        "max_unavailability": max(us),
        "table_hash": result.table_hash,
    }, args.json)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {"solve": _cmd_solve, "simulate": _cmd_simulate,
                   "ft": _cmd_ft, "paper": _cmd_paper}[args.command]
        return handler(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except _COMPUTE_ERRORS as err:
        print(f"computation error: {err}", file=sys.stderr)
        return EXIT_COMPUTE
    except (ParseError, SemanticError, FileNotFoundError, IsADirectoryError,
            EdgeavailError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
