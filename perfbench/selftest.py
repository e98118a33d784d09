"""Benchmark self-test, run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload, two traced runs with seed 1 must report identical counts
(every per-layer metric that is not a time), and one short untraced run with
seed 2 must pass every output check, so a claim made on one seed can be
confirmed on a held-out one.  A traced solve that raises must be counted
without breaking the per-layer metrics.  Exits 1 on any failure.
"""

import json
import subprocess
import sys

from run import WORKLOADS

SEED, SMOKE_SEED = 1, 2
SMOKE_SECONDS = 15   # at least one whole round on every workload
# counts that must be present; every other non-time metric is compared as well
NAMED_COUNTS = ("optimizer.n_theta", "optimizer.newton_iters", "market.classify_calls",
                "equilibrium.excess_demand_calls", "equilibrium.tatonnement_iters",
                "optimizer.dense_flops_computed")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(result: dict) -> dict:
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] != "s" and k != "trace.overhead_ratio"}


def traced_failing_solve() -> bool:
    """One solve that completes and one that raises, traced in this process:
    both are counted as calls, only the first feeds the size metrics."""
    sys.path.insert(0, "src")
    import numpy as np

    import gen
    import spans
    from habitree import io as hio, optimizer
    from habitree.errors import HabitreeError

    doc = json.loads(gen.documents("small-market", SEED, 1)[0])
    market = hio.load_market(doc)
    agent = gen.agent(np.random.default_rng(SEED), doc, gen.GAMMA_STEADY)
    broke = dict(agent, endowment=dict.fromkeys(agent["endowment"], 0.0))
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("op.selftest", 0):
            optimizer.solve_consumption(market, hio.load_agent(agent, market.tree))
            try:
                optimizer.solve_consumption(market, hio.load_agent(broke, market.tree))
            except HabitreeError:
                pass
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans)
    ok = (metrics["optimizer.solve_calls"] == 2 and metrics["trace.raised_calls"] == 1
          and metrics["optimizer.newton_iters"] > 0
          and metrics["optimizer.n_theta"] == len(market.tree.ids) - 1)
    print(f"traced failing solve: {'counted' if ok else 'WRONG'} "
          f"(solve_calls {metrics['optimizer.solve_calls']}, "
          f"raised_calls {metrics['trace.raised_calls']}, n_theta {metrics['optimizer.n_theta']})")
    return ok


def main() -> int:
    ok = traced_failing_solve()
    for wl in WORKLOADS:
        first, second = (counts(bench(wl, SEED, 1, 1)) for _ in range(2))
        missing = [k for k in NAMED_COUNTS if k not in first]
        differ = {k: (v, second.get(k)) for k, v in first.items() if second.get(k) != v}
        smoke = bench(wl, SMOKE_SEED, SMOKE_SECONDS, 0)
        smoke_ok = smoke["correct"] and smoke["failed"] == 0
        print(f"{wl}: {len(first)} counts, {'identical' if not differ else 'DIFFER'}; "
              f"seed {SMOKE_SEED} smoke run {'passes' if smoke_ok else 'FAILS'} "
              f"({smoke['attempted']} ops)")
        for k, (a, b) in differ.items():
            print(f"  {k}: {a} vs {b}")
        if missing:
            print(f"  missing counts: {missing}")
        ok = ok and not differ and not missing and smoke_ok
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
