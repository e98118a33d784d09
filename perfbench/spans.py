"""Span recording from the benchmark's side, without touching `src/`.

`Tracer.install` wraps the program's public functions, at every
`habitree.*` module that binds them by name, plus the two dependency entry
points the optimizer calls (`scipy.optimize.linprog` for phase 1 and
`numpy.linalg.solve` for the Newton step).  Each call becomes a span
(name, start, end, parent, op id, attrs) kept in memory; `write` dumps them
as JSON lines and `layer_metrics` folds them into the per-layer numbers.
Self time is a span's duration minus that of its child spans.  A call that
raises keeps its span, with attrs `{"raised": <exception class>}`; the
size and iteration metrics count completed calls only.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy.linalg
import scipy.optimize

from habitree import asymptotics, equilibrium, estimates, io, market, optimizer, tree, verify


def _solve_attrs(args, kwargs, result):
    mkt = args[0]
    m = sum(b.rank for k in range(1, mkt.tree.horizon + 1) for b in mkt.atom_bases(k))
    return {"n": mkt.tree.n_nodes, "m": m, "iterations": result.iterations,
            "method": result.method}


def _hetero_attrs(args, kwargs, result):
    return {"iterations": result.iterations, "method": result.method}


def _suite_attrs(args, kwargs, result):
    return {"instances": result.instances}


# span name -> functions it covers; attrs callbacks run after the span ends
FUNCTIONS = {
    "tree.cond_expectation": [tree.cond_expectation_arrays, tree.cond_expectation,
                              tree.cond_expectation_on],
    "market.spd": [market.compute_aggregate_spd],
    "market.classify": [market.validate_market_class],
    "market.partitions": [market.intermediate_partitions],
    "market.project": [market.project],
    "market.perturbed_spd": [market.perturbed_spd],
    "optimizer.solve": [optimizer.solve_consumption],
    "estimates.bounds": [estimates.bound_coefficients],
    "estimates.hedging": [estimates.upper_hedging],
    "estimates.sandwich": [estimates.check_sandwich],
    "asymptotics.sweep": [asymptotics.propensity_sweep],
    "equilibrium.hetero": [equilibrium.heterogeneous_equilibrium],
    "equilibrium.excess_demand": [equilibrium.excess_demand],
    "equilibrium.conditions": [equilibrium.heterogeneous_conditions,
                               equilibrium.homogeneous_conditions],
    "equilibrium.closed_form": [equilibrium.homogeneous_spd, equilibrium.bond_curve,
                                equilibrium.lucas_curve],
    "io.load": [io.load_tree, io.load_market, io.load_agent, io.load_economy, io.load_iid],
    "io.dump": [io.dump_tree, io.dump_market, io.dump_solve_result, io.dump_equilibrium,
                io.to_json_bytes],
}
ATTRS = {"optimizer.solve": _solve_attrs, "equilibrium.hetero": _hetero_attrs}
# (owner, attribute, span name): class methods and dependency entry points
ATTRIBUTES = [
    (tree.EventTree, "__post_init__", "tree.build"),
    (market.MarketSpec, "__post_init__", "market.build"),
    (scipy.optimize, "linprog", "optimizer.phase1"),
    (numpy.linalg, "solve", "optimizer.linsolve"),
]

SUITES = sorted(verify.SUITES)


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id, attrs]
        self._stack = []
        self._undo = []
        self.op = None

    def _wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = {"raised": type(exc).__name__}
                raise
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if attrs is not None:
                rec[5] = attrs(args, kwargs, result)
            return result
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "habitree" or name.startswith("habitree.")]
        for name, fns in FUNCTIONS.items():
            for fn in fns:
                wrapper = self._wrap(name, fn, ATTRS.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, attr, wrapper)
        for owner, attr, name in ATTRIBUTES:
            self._set(owner, attr, self._wrap(name, getattr(owner, attr)))
        for suite in SUITES:
            wrapper = self._wrap(f"verify.suite.{suite}", verify.SUITES[suite], _suite_attrs)
            self._undo.append((verify.SUITES, suite, verify.SUITES[suite]))
            verify.SUITES[suite] = wrapper

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    @contextlib.contextmanager
    def span(self, name, op):
        """A benchmark-level span around one op; calls inside carry its id."""
        rec = [name, 0.0, 0.0, -1, op, None]
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
            self.op = None

    def write(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "attrs": attrs}) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer counts and self times (s) from the recorded spans."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    for i, (name, start, end, _, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - child_s[i]
        total_s[name] += end - start

    # Newton steps = linear solves inside each solve span
    steps = defaultdict(int)
    sweep_solves = 0
    for name, _, _, parent, _, _ in spans:
        if name == "optimizer.linsolve" and parent >= 0:
            steps[parent] += 1
        if name == "optimizer.solve" and parent >= 0 and spans[parent][0] == "asymptotics.sweep":
            sweep_solves += 1
    def completed(name):
        return [(i, s[5]) for i, s in enumerate(spans)
                if s[0] == name and "raised" not in s[5]]

    solves = completed("optimizer.solve")
    flops = bytes_ = 0
    for i, a in solves:
        n, m = a["n"], a["m"]
        flops += steps[i] * (2 * n * m * m + 2 * m ** 3 // 3)
        bytes_ += steps[i] * 8 * (n * m + m * m)
    n_solves = len(solves)
    hetero = [a for _, a in completed("equilibrium.hetero")]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "tree.build_s": self_s["tree.build"],
        "tree.cond_expectation_calls": calls["tree.cond_expectation"],
        "tree.cond_expectation_s": self_s["tree.cond_expectation"],
        "market.build_s": self_s["market.build"],
        "market.spd_s": self_s["market.spd"],
        "market.classify_calls": calls["market.classify"],
        "market.classify_s": self_s["market.classify"],
        "market.partitions_s": self_s["market.partitions"],
        "market.project_calls": calls["market.project"],
        "market.project_s": self_s["market.project"],
        "market.perturbed_spd_s": self_s["market.perturbed_spd"],
        "optimizer.solve_calls": calls["optimizer.solve"],
        "optimizer.solve_s": self_s["optimizer.solve"],
        "optimizer.newton_iters": sum(a["iterations"] for _, a in solves),
        "optimizer.fallback_ratio": ratio(sum(a["method"] == "newton+fallback" for _, a in solves),
                                          n_solves),
        "optimizer.phase1_s": self_s["optimizer.phase1"],
        "optimizer.linsolve_calls": calls["optimizer.linsolve"],
        "optimizer.linsolve_s": self_s["optimizer.linsolve"],
        "optimizer.n_theta": ratio(sum(a["m"] for _, a in solves), n_solves),
        "optimizer.dense_flops_computed": flops,
        "optimizer.dense_bytes_computed": bytes_,
        "estimates.bounds_s": self_s["estimates.bounds"],
        "estimates.hedging_calls": calls["estimates.hedging"],
        "estimates.hedging_s": self_s["estimates.hedging"],
        "estimates.sandwich_s": self_s["estimates.sandwich"],
        "asymptotics.sweep_s": self_s["asymptotics.sweep"],
        "asymptotics.solves_per_sweep": ratio(sweep_solves, calls["asymptotics.sweep"]),
        "equilibrium.tatonnement_iters": sum(a["iterations"] for a in hetero),
        "equilibrium.excess_demand_calls": calls["equilibrium.excess_demand"],
        "equilibrium.excess_demand_s": self_s["equilibrium.excess_demand"],
        "equilibrium.conditions_s": self_s["equilibrium.conditions"],
        "equilibrium.root_fallback_ratio": ratio(
            sum(a["method"] == "tatonnement+root" for a in hetero), len(hetero)),
        "equilibrium.closed_form_s": self_s["equilibrium.closed_form"],
        "io.load_s": self_s["io.load"],
        "io.dump_s": self_s["io.dump"],
    }
    for suite in SUITES:
        out[f"verify.suite_s.{suite}"] = total_s[f"verify.suite.{suite}"]
    out["verify.instances"] = sum(a["instances"] for suite in SUITES
                                  for _, a in completed(f"verify.suite.{suite}"))
    out["trace.raised_calls"] = sum(1 for s in spans if s[5] and "raised" in s[5])
    return out
