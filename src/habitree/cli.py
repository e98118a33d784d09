"""Command-line surface.

Subcommands: spd, solve, bounds, asymptotics, equilibrium, bond-curve,
lucas-curve, verify; each takes --input and --output plus the flags it
reads, as `COMMANDS` lists them.  One JSON input file per run (sections:
market fields at top level for market commands, "agent", "economy", "iid");
outputs are byte-deterministic for a fixed (input, seed).  Exit codes: 0 success,
2 schema violation, 3 solver non-convergence, 4 model-condition violation;
errors are emitted as a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from decimal import Decimal, InvalidOperation

from . import io as hio
from .asymptotics import check_eps0_grid, propensity_sweep
from .equilibrium import (
    WEIGHT_TOL,
    IIDEconomy,
    bond_curve,
    heterogeneous_equilibrium,
    homogeneous_spd,
    lucas_curve,
)
from .errors import (
    ConditionError,
    ConvergenceError,
    HabitreeError,
    InfeasibleProblemError,
    MarketError,
    SchemaError,
)
from .estimates import bound_coefficients, check_sandwich
from .instances import DEFAULT_SEED, example_iid_economy
from .optimizer import FOC_TOL, in_float_range, solve_consumption
from .verify import DEFAULT_MANIFEST, SUITES, run_suites

def _parse_grid(spec: str, field_name: str) -> list:
    """a:b:step grids (inclusive within half a step) or comma lists.  A grid
    is stepped in decimal, so 0:1:0.01 gives exactly the floats i/100."""
    try:
        if ":" in spec:
            a, b, step = (Decimal(x) for x in spec.split(":"))
            if not all(map(math.isfinite, (a, b, step))) or step <= 0 or b < a:
                raise ValueError
            n = int(round((b - a) / step))
            grid = [float(a + i * step) for i in range(n + 1)]
            if grid[-1] > float(b) + 1e-12:
                grid.pop()
            return grid
        grid = [float(x) for x in spec.split(",")]
        if not all(map(math.isfinite, grid)):
            raise ValueError
        return grid
    except (ValueError, InvalidOperation):
        raise SchemaError(field_name, f"cannot parse grid {spec!r}") from None


def _unique_keys(pairs: list) -> dict:
    """One dict per JSON object, rejecting a repeated key (plain json.load
    would keep its last value)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError("input", f"repeated key {key!r}")
            seen.add(key)
    return obj


def _read_input(args: argparse.Namespace) -> dict:
    if args.input is None:
        raise SchemaError("input", "this command needs --input")
    try:
        with open(args.input, "rb") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise SchemaError("input", f"cannot read {args.input!r}") from None
    except json.JSONDecodeError as e:
        raise SchemaError("input", f"malformed JSON: {e}") from None


def _emit(args: argparse.Namespace, payload: bytes) -> None:
    if args.output:
        with open(args.output, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)


def _market_and_agent(obj: dict):
    market = hio.load_market(obj["market"] if "market" in obj else obj)
    if "agent" not in obj:
        raise SchemaError("agent", "missing")
    agent = hio.load_agent(obj["agent"], market.tree)
    return market, agent


def _csv(rows, header: str) -> bytes:
    lines = [header]
    for row in rows:
        lines.append(",".join(hio.fmt17(x) for x in row))
    return ("\n".join(lines) + "\n").encode()


def cmd_spd(args: argparse.Namespace) -> None:
    obj = _read_input(args)
    market = hio.load_market(obj["market"] if "market" in obj else obj)
    tree = market.tree
    out = {"tree": hio.dump_tree(tree),
           "spd": dict(zip(tree.ids, market.spd.values.tolist()))}
    _emit(args, hio.to_json_bytes(out))


def cmd_solve(args: argparse.Namespace) -> None:
    obj = _read_input(args)
    market, agent = _market_and_agent(obj)
    result = solve_consumption(market, agent, tol=args.tol)
    if not in_float_range(result.R.values):
        raise ConditionError("supporting SPD outside the floating-point range; "
                             "rescale the endowment")
    _emit(args, hio.to_json_bytes(hio.dump_solve_result(result, market.tree)))


def cmd_bounds(args: argparse.Namespace) -> None:
    obj = _read_input(args)
    market, agent = _market_and_agent(obj)
    result = solve_consumption(market, agent, tol=args.tol)
    coeffs = bound_coefficients(market, agent)
    report = check_sandwich(market, agent, result, coeffs)
    rows = []
    for r in report.rows:
        i = r.tightest()
        rows.append({"period": r.period, "quantity": r.quantity,
                     "lower": float(r.lower[i]), "value": float(r.value[i]),
                     "upper": float(r.upper[i]), "slack": r.slack})
    # every m_k lies in (0, 1] (bound_coefficients), so no bound is vacuous
    out = {"vacuous": False, "min_slack": report.min_slack(), "periods": rows}
    _emit(args, hio.to_json_bytes(out))


def cmd_asymptotics(args: argparse.Namespace) -> None:
    obj = _read_input(args)
    market, agent = _market_and_agent(obj)
    try:
        grid = check_eps0_grid(_parse_grid(args.eps0_grid, "eps0-grid"))
    except ValueError as exc:
        raise SchemaError("eps0-grid", str(exc)) from None
    report = propensity_sweep(market, agent, grid, tol=args.tol)
    csv = _csv(report.sweep, "eps0,err_c,err_W")
    summary = {"fitted_rate": report.fitted_rate,
               "alpha_lower": [float(a) for a in report.alpha_lower],
               "errors_decreasing": report.errors_decreasing()}
    payload = csv + b"# summary: " + hio.to_json_bytes(summary)
    _emit(args, payload)


def cmd_equilibrium(args: argparse.Namespace) -> None:
    obj = _read_input(args)
    economy = hio.load_economy(obj["economy"] if "economy" in obj else obj)
    if economy.n_agents == 1:
        result = homogeneous_spd(economy)
    else:
        result = heterogeneous_equilibrium(economy, tol=args.tol)
    _emit(args, hio.to_json_bytes(hio.dump_equilibrium(result)))


def _load_iid(args: argparse.Namespace) -> IIDEconomy:
    if args.input is None:
        return example_iid_economy()
    obj = _read_input(args)
    return hio.load_iid(obj["iid"] if "iid" in obj else obj)


def cmd_bond_curve(args: argparse.Namespace) -> None:
    econ = _load_iid(args)
    maturity = econ.horizon if args.maturity is None else args.maturity
    grid = _parse_grid(args.beta_grid, "beta-grid")
    rows = bond_curve(econ, maturity, grid)
    _emit(args, _csv(rows, "beta,value"))


def cmd_lucas_curve(args: argparse.Namespace) -> None:
    econ = _load_iid(args)
    grid = _parse_grid(args.beta_grid, "beta-grid")
    rows = lucas_curve(econ, grid)
    _emit(args, _csv(rows, "beta,value"))


def cmd_verify(args: argparse.Namespace) -> None:
    manifest = dict(DEFAULT_MANIFEST)
    if args.input:
        obj = _read_input(args)
        manifest = obj.get("suites", obj) if isinstance(obj, dict) else obj
        # bool is an int subclass; a count must be a plain integer
        if not isinstance(manifest, dict) or not all(
                name in SUITES and type(n) is int and n >= 0 for name, n in manifest.items()):
            raise SchemaError("suites", "expected an object mapping suite names to "
                                        "non-negative integer instance counts")
    report = run_suites(manifest, args.seed)
    _emit(args, hio.to_json_bytes(report))
    if not report["all_passed"]:
        raise ConvergenceError("verification suites reported failures")


# Each flag a command may take beyond --input and --output: its type and help.
FLAGS = {
    "tol": (float, "tolerance of the solver's stopping test (default %(default)s)"),
    "eps0-grid": (str, "initial endowments eps0, increasing: a:b:step or comma-separated "
                       "values (default %(default)s)"),
    "beta-grid": (str, "habit strengths beta: a:b:step or comma-separated values "
                       "(default %(default)s)"),
    "maturity": (int, "bond maturity in periods, at least 1 (default the economy horizon)"),
    "seed": (int, "seed of the randomized suites (default %(default)s)"),
}

BETA_GRID = "0:1:0.01"

# Each command: its handler and the flags it reads, with their defaults.
COMMANDS = {
    "spd": (cmd_spd, {}),
    "solve": (cmd_solve, {"tol": FOC_TOL}),
    "bounds": (cmd_bounds, {"tol": FOC_TOL}),
    "asymptotics": (cmd_asymptotics, {"tol": FOC_TOL, "eps0-grid": "1e1,1e2,1e3,1e4,1e5"}),
    "equilibrium": (cmd_equilibrium, {"tol": WEIGHT_TOL}),
    "bond-curve": (cmd_bond_curve, {"beta-grid": BETA_GRID, "maturity": None}),
    "lucas-curve": (cmd_lucas_curve, {"beta-grid": BETA_GRID}),
    "verify": (cmd_verify, {"seed": DEFAULT_SEED}),
}

EXIT_CODES = (
    (SchemaError, 2),
    (ConvergenceError, 3),
    (InfeasibleProblemError, 4),
    (MarketError, 4),
    (ConditionError, 4),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it
    unchanged)."""
    parser = argparse.ArgumentParser(
        prog="habitree",
        description="Event-tree habit-utility optimization, bounds and equilibrium pricing")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, defaults) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--input", help="JSON input file")
        p.add_argument("--output", help="output file (default stdout)")
        for flag, default in defaults.items():
            kind, text = FLAGS[flag]
            p.add_argument("--" + flag, type=kind, default=default, help=text)
    return parser


def _check_flags(args: argparse.Namespace) -> None:
    # a NaN tolerance would let every residual test pass
    tol = getattr(args, "tol", None)
    if tol is not None and not 0.0 < tol < math.inf:
        raise SchemaError("tol", "tolerances must be positive and finite")
    if getattr(args, "maturity", None) is not None and args.maturity < 1:
        raise SchemaError("maturity", "a bond matures at least one period ahead")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        COMMANDS[args.command][0](args)
    except HabitreeError as exc:
        code = next((c for cls, c in EXIT_CODES if isinstance(exc, cls)), 1)
        err = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, SchemaError):
            err["field"] = exc.field
        sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
