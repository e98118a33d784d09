"""Command-line surface.

Subcommands: spd, solve, bounds, asymptotics, equilibrium, bond-curve,
lucas-curve, verify.  One JSON input file per run (sections: market fields at
top level for market commands, "agent", "economy", "iid"); outputs are
byte-deterministic for a fixed (input, seed).  Exit codes: 0 success,
2 schema violation, 3 solver non-convergence, 4 model-condition violation;
errors are emitted as a JSON object on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Optional

from . import io as hio
from .asymptotics import propensity_sweep
from .equilibrium import (
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
from .optimizer import solve_consumption
from .verify import DEFAULT_MANIFEST, SUITES, run_suites

COMMANDS = ("spd", "solve", "bounds", "asymptotics", "equilibrium",
            "bond-curve", "lucas-curve", "verify")


@dataclass
class RunConfig:
    """Parsed invocation: one command, input/output paths, tolerance
    overrides and the seed for randomized suites."""

    command: str
    input: Optional[str] = None
    output: Optional[str] = None
    tol: Optional[float] = None
    seed: int = DEFAULT_SEED
    beta_grid: Optional[str] = None
    eps0_grid: Optional[str] = None
    maturity: Optional[int] = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise SchemaError("command", f"unknown command {self.command!r}")
        if self.tol is not None and not 0.0 < self.tol < math.inf:
            raise SchemaError("tol", "tolerances must be positive and finite")


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


def _read_input(config: RunConfig) -> dict:
    if config.input is None:
        raise SchemaError("input", "this command needs --input")
    try:
        with open(config.input, "rb") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise SchemaError("input", f"cannot read {config.input!r}") from None
    except json.JSONDecodeError as e:
        raise SchemaError("input", f"malformed JSON: {e}") from None


def _emit(config: RunConfig, payload: bytes) -> None:
    if config.output:
        with open(config.output, "wb") as fh:
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


def cmd_spd(config: RunConfig) -> None:
    obj = _read_input(config)
    market = hio.load_market(obj["market"] if "market" in obj else obj)
    tree = market.tree
    out = {"tree": hio.dump_tree(tree),
           "spd": dict(zip(tree.ids, market.spd.values.tolist()))}
    _emit(config, hio.to_json_bytes(out))


def cmd_solve(config: RunConfig) -> None:
    obj = _read_input(config)
    market, agent = _market_and_agent(obj)
    result = solve_consumption(market, agent, tol=config.tol or 1e-9)
    _emit(config, hio.to_json_bytes(hio.dump_solve_result(result, market.tree)))


def cmd_bounds(config: RunConfig) -> None:
    obj = _read_input(config)
    market, agent = _market_and_agent(obj)
    result = solve_consumption(market, agent, tol=config.tol or 1e-9)
    coeffs = bound_coefficients(market, agent)
    report = check_sandwich(market, agent, result, coeffs)
    rows = []
    for r in report.rows:
        i = r.tightest()
        rows.append({"period": r.period, "quantity": r.quantity,
                     "lower": float(r.lower[i]), "value": float(r.value[i]),
                     "upper": float(r.upper[i]), "slack": r.slack})
    out = {"vacuous": report.vacuous, "min_slack": report.min_slack(), "periods": rows}
    _emit(config, hio.to_json_bytes(out))


def cmd_asymptotics(config: RunConfig) -> None:
    obj = _read_input(config)
    market, agent = _market_and_agent(obj)
    grid = _parse_grid(config.eps0_grid or "1e1,1e2,1e3,1e4,1e5", "eps0-grid")
    report = propensity_sweep(market, agent, grid, tol=config.tol or 1e-9)
    csv = _csv(report.sweep, "eps0,err_c,err_W")
    summary = {"fitted_rate": report.fitted_rate,
               "alpha_lower": [float(a) for a in report.alpha_lower],
               "errors_decreasing": report.errors_decreasing()}
    payload = csv + b"# summary: " + hio.to_json_bytes(summary)
    _emit(config, payload)


def cmd_equilibrium(config: RunConfig) -> None:
    obj = _read_input(config)
    economy = hio.load_economy(obj["economy"] if "economy" in obj else obj)
    if economy.n_agents == 1:
        result = homogeneous_spd(economy)
    else:
        result = heterogeneous_equilibrium(economy, tol=config.tol or 1e-10)
    _emit(config, hio.to_json_bytes(hio.dump_equilibrium(result)))


def _load_iid(config: RunConfig) -> IIDEconomy:
    if config.input is None:
        return example_iid_economy(horizon=config.maturity or 1)
    obj = _read_input(config)
    return hio.load_iid(obj["iid"] if "iid" in obj else obj)


def cmd_bond_curve(config: RunConfig) -> None:
    econ = _load_iid(config)
    grid = _parse_grid(config.beta_grid or "0:1:0.01", "beta-grid")
    rows = bond_curve(econ, config.maturity or econ.horizon, grid)
    _emit(config, _csv(rows, "beta,value"))


def cmd_lucas_curve(config: RunConfig) -> None:
    econ = _load_iid(config)
    grid = _parse_grid(config.beta_grid or "0:1:0.01", "beta-grid")
    rows = lucas_curve(econ, grid)
    _emit(config, _csv(rows, "beta,value"))


def cmd_verify(config: RunConfig) -> None:
    manifest = dict(DEFAULT_MANIFEST)
    if config.input:
        obj = _read_input(config)
        manifest = obj.get("suites", obj) if isinstance(obj, dict) else obj
        # bool is an int subclass; a count must be a plain integer
        if not isinstance(manifest, dict) or not all(
                name in SUITES and type(n) is int and n >= 0 for name, n in manifest.items()):
            raise SchemaError("suites", "expected an object mapping suite names to "
                                        "non-negative integer instance counts")
    report = run_suites(manifest, config.seed)
    _emit(config, hio.to_json_bytes(report))
    if not report["all_passed"]:
        raise ConvergenceError("verification suites reported failures")


HANDLERS = {
    "spd": cmd_spd,
    "solve": cmd_solve,
    "bounds": cmd_bounds,
    "asymptotics": cmd_asymptotics,
    "equilibrium": cmd_equilibrium,
    "bond-curve": cmd_bond_curve,
    "lucas-curve": cmd_lucas_curve,
    "verify": cmd_verify,
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
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", default=None)
        p.add_argument("--output", default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if name in ("bond-curve", "lucas-curve"):
            p.add_argument("--beta-grid", default=None, dest="beta_grid",
                           help="a:b:step or comma-separated values")
            p.add_argument("--maturity", type=int, default=None)
        if name == "asymptotics":
            p.add_argument("--eps0-grid", default=None, dest="eps0_grid",
                           help="comma-separated increasing values")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(command=args.command, input=args.input, output=args.output,
                           tol=args.tol, seed=args.seed,
                           beta_grid=getattr(args, "beta_grid", None),
                           eps0_grid=getattr(args, "eps0_grid", None),
                           maturity=getattr(args, "maturity", None))
        HANDLERS[config.command](config)
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
