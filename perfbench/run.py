"""habitree benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds `src/habitree`.  With
`--trace 0` it runs the workload's ops in round order, one at a time, for
S seconds and prints the end-to-end metrics; with `--trace 1` it runs a
fixed list of ops untraced and traced and prints the per-layer metrics.
The last line of stdout is the JSON result.  See README.md.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, thread_time

ROOT = Path.cwd()
OUT_DIR = ROOT / ".bench_build" / "perfbench"   # traces and scratch inputs
WORKLOADS = ("solve-large", "bounds-factor", "equilibrium-hetero", "cli-cold")
SETUP_REPEATS = 3
IMPORTS = "import numpy, ops"    # what main imports before set-up
PROBE_REPEATS = 3
NPROC = len(os.sched_getaffinity(0))   # what `nproc` prints


def machine() -> str:
    """One line naming the machine and the numeric stack."""
    import numpy as np
    import scipy

    cpu = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"{NPROC} cores ({cpu}), python {platform.python_version()}, "
            f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"BLAS {blas.get('name')} {blas.get('version')} with {blas_threads()} threads")


def blas_threads() -> str:
    """Thread count of numpy's bundled OpenBLAS, read through its own API."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "lib*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return str(fn())
    return "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def child_import_s(statement: str, env: dict) -> float:
    """CPU seconds a fresh interpreter's main thread spends on an import
    statement."""
    code = ("import sys, time; sys.path[:0] = ['src', 'perfbench']; "
            f"t = time.thread_time(); {statement}; print(time.thread_time() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                         stdout=subprocess.PIPE, timeout=120).stdout
    return float(out)


class Run:
    """One benchmark run: set-up, measured ops, checks, report."""

    def __init__(self, workload: str, seed: int, seconds: float, workdir: Path):
        import ops

        self.name, self.seed, self.seconds, self.workdir = workload, seed, seconds, workdir
        self.wl = ops.WORKLOADS[workload]
        self.env = ops.child_env(ROOT)
        self.attempted = self.failed = 0
        self.samples, self.wall = {}, {}   # per op kind: CPU and wall seconds

    def setup(self, import_s: float) -> float:
        """Set up several times: this process's imports plus two fresh
        interpreters doing the same imports, and three input generations,
        which must agree exactly.  Set-up time is the sum of the medians,
        in CPU seconds of the main thread, like the ops."""
        imports = [import_s] + [child_import_s(IMPORTS, self.env)
                                for _ in range(SETUP_REPEATS - 1)]
        times, seen = [], []
        for _ in range(SETUP_REPEATS):
            t = thread_time()
            self.round, inputs = self.wl.make_round(self.wl.metrics, self.seed, self.workdir,
                                                    self.env)
            times.append(thread_time() - t)
            seen.append(inputs)
        if any(inputs != seen[0] for inputs in seen):
            self.fail("input generation is not deterministic")
        self.cold = any(op.cold for _, op in self.round)   # ops in child processes
        return median(imports) + median(times)

    def fail(self, why: str):
        self.failed += 1
        print(f"# FAILED: {why}", file=sys.stderr)

    def run_op(self, metric, op, index, warm=False):
        """Run one op; returns (wall s, CPU s, output, check state), or None
        if it raised."""
        self.attempted += 1
        try:
            return op.run(index, warm)
        except Exception:  # a failing op is counted and the run goes on
            traceback.print_exc()
            self.fail(f"{metric} op raised")
            return None

    def check_all(self, done, seen=None):
        seen = {} if seen is None else seen
        for metric, op, art in done:
            if not op.check(art, seen):
                self.fail(f"{metric} output check")

    def measure(self) -> dict:
        """Ops in round order, one at a time, until the ops have taken
        `seconds`.  Each op is checked right after it, outside its timing,
        and its result dropped, so peak memory stays the program's own."""
        self.samples = {metric: [] for metric in self.wl.metrics}
        self.wall = {metric: [] for metric in self.wl.metrics}
        seen, busy = {}, 0.0
        for i in itertools.count():
            metric, op = self.round[i % len(self.round)]
            t = perf_counter()
            res = self.run_op(metric, op, i // len(self.round))
            busy += perf_counter() - t
            if res is not None:
                self.wall[metric].append(res[0])
                self.samples[metric].append(res[1])
                self.check_all([(metric, op, res[3])], seen)
            if busy >= self.seconds and i + 1 >= len(self.round):
                break   # enough measured work, and at least one whole round
        who = resource.RUSAGE_CHILDREN if self.cold else resource.RUSAGE_SELF
        a, b = (median(self.samples[m]) for m in self.wl.metrics)
        # ops per CPU second at the round's mix: which kind happened to run
        # last does not move it
        round_s = sum(statistics.fmean(self.samples[m]) for m, _ in self.round
                      if self.samples[m])
        return {
            "op_a_cpu_p50_s": (a, "s"),
            "op_b_cpu_p50_s": (b, "s"),
            "ops_per_cpu_s": (len(self.round) / round_s if round_s else 0.0, "1/s"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        }

    def trace(self) -> dict:
        """A fixed op list, in process (cli-cold through `cli.main`): one
        warm-up op, so first-call costs stay out of the overhead ratio, then
        each op untraced and traced in turn."""
        import spans

        op_list = [(metric, op, r) for r in range(self.wl.trace_rounds)
                   for metric, op in self.round]
        self.run_op(*op_list[0][:2], 0, warm=True)
        tracer = spans.Tracer()
        done, bytes_out, untraced, traced = [], 0, 0.0, 0.0
        for i, (metric, op, r) in enumerate(op_list):
            t = perf_counter()
            self.run_op(metric, op, r, warm=True)
            untraced += perf_counter() - t
            tracer.install()
            try:
                t = perf_counter()
                with tracer.span(f"op.{metric}", i):
                    res = self.run_op(metric, op, r, warm=True)
                traced += perf_counter() - t
            finally:
                tracer.uninstall()
            if res is not None:
                bytes_out += len(res[2])
                done.append((metric, op, res[3]))
        self.check_all(done)

        spans_path = OUT_DIR / f"trace-{self.name}-seed{self.seed}.jsonl"
        tracer.write(spans_path)
        print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        metrics = spans.layer_metrics(tracer.spans)
        metrics["io.bytes_out"] = bytes_out
        metrics.update(self.cli_probes())
        metrics["trace.overhead_ratio"] = traced / untraced
        return {k: (v, unit(k)) for k, v in metrics.items()}

    def cli_probes(self) -> dict:
        """Cold start split: bare interpreter, cold `import habitree.cli`, and
        the warm in-process handler time of the closed-form commands."""
        if not self.cold:
            return {"cli.interpreter_s": 0.0, "cli.import_s": 0.0, "cli.handler_s": 0.0}
        interp, imp = [], []
        for _ in range(PROBE_REPEATS):
            t = perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=self.env, check=True)
            interp.append(perf_counter() - t)
            imp.append(child_import_s("import habitree.cli", self.env))
        done, warm = [], []
        for metric, op in self.round:
            res = self.run_op(metric, op, 0, warm=True) if metric == self.wl.metrics[0] else None
            if res is not None:
                warm.append(res[0])
                done.append((metric, op, res[3]))
        self.check_all(done)
        return {"cli.interpreter_s": median(interp), "cli.import_s": median(imp),
                "cli.handler_s": median(warm)}


def unit(metric: str) -> str:
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    if metric.endswith("bytes_computed") or metric.endswith("bytes_out"):
        return "bytes"
    if metric.endswith("flops_computed"):
        return "flop"
    return "count"


def report(run: Run, metrics: dict, cores: str) -> dict:
    """Print every metric on its own line, then return the result object."""
    names = dict(zip(("op_a_cpu_p50_s", "op_b_cpu_p50_s"), run.wl.metrics))
    for key, (value, u) in metrics.items():
        label = names.get(key, key)
        extra = ""
        if key in names:
            extra = (f" CPU, {median(run.wall[label]):.6g} s wall"
                     f"  n={len(run.samples[label])}  [{key}]")
        print(f"{label:38s} {value:.6g} {u}{extra}  ({cores})")
    ratio = run.failed / max(run.attempted, 1)
    print(f"{'failed_ratio':38s} {ratio:.6g}  ({run.failed} of {run.attempted} ops)")
    for label, samples in run.samples.items():
        print(f"# {label} CPU samples (s, in run order): " + " ".join(f"{x:.4f}" for x in samples))
        print(f"# {label} wall samples (s, in run order): "
              + " ".join(f"{x:.4f}" for x in run.wall[label]))
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "habitree" / "__init__.py").is_file():
        print(f"error: no src/habitree under {ROOT}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t = thread_time()
    import numpy  # noqa: F401  (the same imports as IMPORTS)
    import ops  # noqa: F401  (imports habitree)
    import_s = thread_time() - t
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        run = Run(args.workload, args.seed, args.seconds, Path(tmp))
        setup_s = run.setup(import_s)
        cores = f"{NPROC} cores"
        print(f"# habitree benchmark: workload {args.workload}, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}")
        print(f"# machine: {machine()}")
        if args.trace:
            metrics = run.trace()
        else:
            metrics = run.measure()
            metrics["setup_s"] = (setup_s, "s")
        result = report(run, metrics, cores)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
