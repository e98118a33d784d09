"""The benchmark's operations and workloads.

Every op is one `habitree` command line, on a generated JSON input file
when the command takes one.  In-process workloads run it through
`cli.main`, so the timed work is exactly the CLI's: read, load, compute,
dump.  cli-cold runs it in a fresh interpreter (through `cli.main` when
traced, so the tracer sees inside).  An op times itself and returns
(wall seconds, CPU seconds, output bytes, check state); `check` runs
afterwards, outside the timed region, on the output bytes and the input document, plus the values a
handler computed where its output does not carry what a check needs (see
`capture`).
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, thread_time
from typing import Callable, Optional

import numpy as np

from habitree import cli, estimates, optimizer

import gen

SOLVE_TOL = 1e-9        # the CLI's default for solve and bounds
EPS0_POINTS = 5         # the CLI's default asymptotics grid, 1e1..1e5
# A cold op's interpreter: `python -m habitree.cli` that also reports, as its
# last stderr line, the CPU time of its main thread (see Command.run).
CHILD = ("import atexit, sys, time; "
         "atexit.register(lambda: print('thread_cpu_s', time.thread_time(), file=sys.stderr)); "
         "from habitree.cli import main; sys.exit(main(sys.argv[1:]))")


@contextlib.contextmanager
def capture(name: Optional[str]):
    """Record (args, result) of each call the CLI handlers make to
    `cli.<name>` inside the block.  The handlers call the program through
    the names `cli` binds, so swapping that binding sees every call (the
    tracer's wrapper too, when installed)."""
    calls = []
    if name is None:
        yield calls
        return
    fn = getattr(cli, name)

    def recorder(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, result))
        return result

    setattr(cli, name, recorder)
    try:
        yield calls
    finally:
        setattr(cli, name, fn)


# -- output checks: (output bytes, captured calls, input text) -> bool --------

def check_solve(out: bytes, calls: list, text: str) -> bool:
    (market, agent, *_), result = calls[-1]
    p = market.tree.probabilities()
    pv = float(np.sum(p * market.spd.values * agent.endowment.values))
    consumption = json.loads(out)["consumption"]
    c = [consumption[nid] for nid in market.tree.ids]
    return (optimizer.foc_residual(market, agent, result) <= SOLVE_TOL
            and abs(optimizer.budget_gap(market, agent, result)) <= 1e-9 * pv
            and np.array_equal(c, result.c.values))


def check_bounds(out: bytes, calls: list, text: str) -> bool:
    report = json.loads(out)
    return (not report["vacuous"] and report["min_slack"] >= -1e-9
            and estimates.delta_identity_gap(calls[-1][1]) < 1e-9)


def check_asymptotics(out: bytes, calls: list, text: str) -> bool:
    """The error column, read from the CSV, falls strictly beyond the first
    grid point, and the summary says so."""
    csv, summary = out.decode().split("# summary: ")
    errs = [float(row.split(",")[1]) for row in csv.strip().splitlines()[1:]]
    return (len(errs) == EPS0_POINTS and all(b < a for a, b in zip(errs[1:], errs[2:]))
            and json.loads(summary)["errors_decreasing"] is True)


def check_equilibrium(out: bytes, calls: list, text: str) -> bool:
    """The residuals the program reports, plus clearing and every agent's
    budget recomputed here from the input endowments and the output SPD and
    consumptions (for one agent: consumption equals the aggregate)."""
    result = json.loads(out)
    economy = json.loads(text)["economy"]
    nodes = economy["tree"]["nodes"]
    path_p = {}
    for node in nodes:   # parents come before their children
        path_p[node["id"]] = node["prob"] * (path_p[node["parent"]] if node["parent"] else 1.0)
    ids = [node["id"] for node in nodes]
    p = np.array([path_p[nid] for nid in ids])
    M = np.array([result["spd"][nid] for nid in ids])
    eps = np.array([[a["endowment"][nid] for nid in ids] for a in economy["agents"]])
    c = np.array([[ci[nid] for nid in ids] for ci in result["consumptions"]])
    aggregate = eps.sum(axis=0)
    pv = float(np.sum(p * M * aggregate))
    res = result["residuals"]
    return (res["h_inf"] < 1e-10 and res["clearing"] <= 1e-9 and res["budget"] <= 1e-9
            and res["foc"] <= 1e-9 and bool(np.all(M > 0.0)) and c.shape == eps.shape
            and float(np.max(np.abs(c.sum(axis=0) - aggregate))) <= 1e-9 * float(np.max(aggregate))
            and float(np.max(np.abs((p * M * (c - eps)).sum(axis=1)))) <= 1e-9 * pv)


def _endpoints_ok(out: bytes, first: float, last: float, tol: float) -> bool:
    rows = out.decode().strip().splitlines()[1:]
    values = [float(row.split(",")[1]) for row in rows]
    return (len(values) == 101 and abs(values[0] - first) <= 1e-12
            and abs(values[-1] - last) <= tol)


def check_endpoints(first: float, last: float, tol: float) -> Callable:
    return lambda out, calls, text: _endpoints_ok(out, first, last, tol)


# -- ops --------------------------------------------------------------------------

@dataclass
class Command:
    """One `habitree` command line, `name` then `args`; with `inputs`
    ((path, text) pairs), run i reads input i, cycled.  It runs through
    `cli.main` in this process, or, when `cold` and not `warm`, in a fresh
    interpreter.  `check_fn` judges one run's output; `captures` names the
    `cli` binding whose calls it needs.

    CPU time is that of the thread running the command (the child's main
    thread when cold): time the machine takes the CPU away (steal, which
    reached a fifth of the CPU on the machine the benchmark was built on)
    is not in it, nor is the spin of idle BLAS helper threads."""

    name: str
    workdir: Path
    env: dict
    args: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    check_fn: Optional[Callable] = None
    captures: Optional[str] = None
    cold: bool = False

    def argv(self, index: int) -> list:
        if not self.inputs:
            return [self.name, *self.args]
        return [self.name, *self.args, "--input", str(self.inputs[index % len(self.inputs)][0])]

    def run(self, index: int, warm: bool):
        argv = self.argv(index)
        if self.cold and not warm:
            t = perf_counter()
            proc = subprocess.run([sys.executable, "-c", CHILD, *argv],
                                  cwd=self.workdir, env=self.env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, timeout=120)
            wall = perf_counter() - t
            cpu = float(proc.stderr.rsplit(b"thread_cpu_s ", 1)[1])
            out, code, calls = proc.stdout, proc.returncode, []
        else:
            out_path = self.workdir / "out.dat"
            t, c = perf_counter(), thread_time()
            with capture(self.captures) as calls:
                code = cli.main([*argv, "--output", str(out_path)])
            wall, cpu = perf_counter() - t, thread_time() - c
            out = out_path.read_bytes() if code == 0 else b""
        return wall, cpu, out, (index, out, code, calls)

    def check(self, art, seen: dict) -> bool:
        """Exit code 0, the same bytes as the first run of this command
        line, and the command's own check."""
        index, out, code, calls = art
        first = seen.setdefault(tuple(self.argv(index)), out)
        if code != 0 or out != first:
            return False
        text = self.inputs[index % len(self.inputs)][1] if self.inputs else None
        return self.check_fn is None or self.check_fn(out, calls, text)


def write_inputs(workdir: Path, kind: str, texts: list) -> list:
    paths = [workdir / f"{kind}-{i}.json" for i in range(len(texts))]
    for path, text in zip(paths, texts):
        path.write_text(text)
    return list(zip(paths, texts))


POOL = 24   # input documents per in-process op kind, cycled


def doc_round(*kinds):
    """Round of in-process ops, one per (document kind, command, check,
    captured binding)."""
    def make(metrics, seed, workdir, env):
        pools = [gen.documents(kind, seed, POOL) for kind, *_ in kinds]
        ops = [(metric, Command(command, workdir, env, inputs=write_inputs(workdir, kind, docs),
                                check_fn=check, captures=captures))
               for metric, (kind, command, check, captures), docs in zip(metrics, kinds, pools)]
        return ops, pools
    return make


# README promises: 25/288 -> 13/59 and 7/17 -> 0.93819 (five printed decimals)
ENDPOINTS = {
    "bond-curve": (25 / 288, 13 / 59, 1e-12),
    "lucas-curve": (7 / 17, 0.93819, 0.5e-5),
}


def cli_round(metrics, seed, workdir, env):
    """The cli-cold round: each closed-form command, then `verify` on one
    of four seeds derived from the workload seed, so a run's verify median
    spans four suite seeds instead of following one seed's instances."""
    market = write_inputs(workdir, "small-market", gen.documents("small-market", seed, 1))
    desk = write_inputs(workdir, "desk-economy", [json.dumps(gen.desk_economy())])
    closed = [Command("spd", workdir, env, inputs=market, cold=True)]
    closed += [Command(name, workdir, env, check_fn=check_endpoints(*ENDPOINTS[name]), cold=True)
               for name in ("bond-curve", "lucas-curve")]
    closed += [Command("equilibrium", workdir, env, inputs=desk, check_fn=check_equilibrium,
                       cold=True)]
    ops = []
    for j, command in enumerate(closed):
        verify = Command("verify", workdir, env, args=["--seed", str(4 * seed + j)], cold=True)
        ops += [(metrics[0], command), (metrics[1], verify)]
    return ops, [market[0][1], desk[0][1]]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- workloads ------------------------------------------------------------------

@dataclass
class Workload:
    """`metrics` names this workload's op_a and op_b.  `make_round(metrics,
    seed, workdir, env)` returns one round as (metric, op) pairs, plus the
    inputs, which repeated set-ups must reproduce exactly.  The traced run
    takes `trace_rounds` rounds."""

    metrics: tuple
    make_round: Callable
    trace_rounds: int = 2


WORKLOADS = {
    "solve-large": Workload(
        ("solve_complete_p50_s", "solve_incomplete_p50_s"),
        doc_round(("complete", "solve", check_solve, "solve_consumption"),
                  ("incomplete", "solve", check_solve, "solve_consumption"))),
    "bounds-factor": Workload(
        ("bounds_p50_s", "asymptotics_p50_s"),
        doc_round(("factor", "bounds", check_bounds, "bound_coefficients"),
                  ("factor-det", "asymptotics", check_asymptotics, None))),
    "equilibrium-hetero": Workload(
        ("equilibrium_p50_s", "equilibrium_closed_p50_s"),
        doc_round(("hetero", "equilibrium", check_equilibrium, None),
                  ("homogeneous", "equilibrium", check_equilibrium, None)),
        trace_rounds=3),
    "cli-cold": Workload(("closed_cold_p50_s", "verify_cold_p50_s"), cli_round,
                         trace_rounds=1),
}
