"""Lockstep timing of one `habitree` command on two source trees.

  python scripts/lockstep.py OLD/src NEW/src --kind factor-det --command asymptotics \
      --seed 3 --ops 96 [--cold]

Starts two interpreters side by side, one importing habitree from OLD/src
and one from NEW/src, and hands them the same op in turn: one `cli.main`
call of COMMAND on a `perfbench/gen.py` document of KIND (24 documents from
SEED, cycled).  Op i goes to OLD first when i is even and to NEW first
when it is odd, so both sides share every phase of the machine's speed;
run-level medians of untouched code can move by tens of percent between
runs, while lockstep resolves a few percent.  Each op is timed by the
thread CPU of its `cli.main` call.  One warm-up round (one op per
document) is run and dropped before the OPS timed ops per side.

With `--cold` each op runs in a fresh interpreter instead (`import
habitree.cli`, then one `cli.main` call), so import and start-up count.
Its time is the child process's CPU (user + system) and its memory the
child's peak resident set (`ru_maxrss`), both read from `os.wait4`; the
sides still alternate op by op.

Prints each side's median, the median of the per-op ratios NEW/OLD, the
number of ops NEW ran faster and the number whose outputs are
byte-identical, and with `--cold` each side's median peak resident set.
Exits 1 when any op exits nonzero on either side.  The
documents and outputs go to a temporary directory; nothing else is
written.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

DOCUMENTS = 24

# one interpreter: reads "input<TAB>output" lines, runs the command on each
# and answers with its thread CPU and exit code
WORKER = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from habitree import cli
command = sys.argv[2]
for line in sys.stdin:
    src, out = line.rstrip("\\n").split("\\t")
    t = time.thread_time()
    code = cli.main([command, "--input", src, "--output", out])
    cpu = time.thread_time() - t
    print(json.dumps({"cpu": cpu, "code": code}), flush=True)
"""

# one op in a fresh interpreter
COLD = """
import sys
sys.path.insert(0, sys.argv[1])
from habitree import cli
sys.exit(cli.main([sys.argv[2], "--input", sys.argv[3], "--output", sys.argv[4]]))
"""


def _env():
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


class Side:
    def __init__(self, src: str, command: str, workdir: Path, name: str):
        self.proc = subprocess.Popen([sys.executable, "-c", WORKER, str(Path(src).resolve()), command],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env=_env(), cwd=workdir)
        self.out = workdir / f"{name}.out"

    def run(self, path: Path):
        """(thread CPU, exit code, output bytes, None) of one op."""
        self.proc.stdin.write(f"{path}\t{self.out}\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        out = self.out.read_bytes() if reply["code"] == 0 else b""
        return reply["cpu"], reply["code"], out, None

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


class ColdSide:
    def __init__(self, src: str, command: str, workdir: Path, name: str):
        self.args = [sys.executable, "-c", COLD, str(Path(src).resolve()), command]
        self.workdir = workdir
        self.out = workdir / f"{name}.out"

    def run(self, path: Path):
        """(child CPU, exit code, output bytes, peak resident set in MB) of
        one op in a fresh interpreter."""
        proc = subprocess.Popen(self.args + [str(path), str(self.out)], stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, env=_env(), cwd=self.workdir)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        out = self.out.read_bytes() if code == 0 else b""
        return usage.ru_utime + usage.ru_stime, code, out, usage.ru_maxrss / 1024.0

    def close(self):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--kind", required=True, choices=sorted(gen.KINDS))
    parser.add_argument("--command", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--cold", action="store_true", help="run each op in a fresh interpreter")
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be positive")
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        paths = []
        for i, text in enumerate(gen.documents(args.kind, args.seed, DOCUMENTS)):
            paths.append(workdir / f"{args.kind}-{i}.json")
            paths[-1].write_text(text)
        kind = ColdSide if args.cold else Side
        old = kind(args.old, args.command, workdir, "old")
        new = kind(args.new, args.command, workdir, "new")
        cpu, rss, same, failed = {"old": [], "new": []}, {"old": [], "new": []}, 0, 0
        try:
            for i in range(DOCUMENTS + args.ops):
                order = (("old", old), ("new", new)) if i % 2 == 0 else (("new", new), ("old", old))
                runs = {}
                for name, side in order:
                    runs[name] = side.run(paths[i % DOCUMENTS])
                failed += sum(run[1] != 0 for run in runs.values())
                if i >= DOCUMENTS:
                    for name in cpu:
                        cpu[name].append(runs[name][0])
                        rss[name].append(runs[name][3])
                    same += runs["old"][2] == runs["new"][2]
        finally:
            old.close()
            new.close()
    t_old, t_new = np.array(cpu["old"]), np.array(cpu["new"])
    timer = "child CPU, one interpreter per op" if args.cold else "thread CPU"
    print(f"op: {args.command} on {args.kind} (seed {args.seed}), {args.ops} ops per side "
          f"after {DOCUMENTS} warm-up ops, {timer}, {os.cpu_count()} cores")
    print(f"old median_s {np.median(t_old):.4f}")
    print(f"new median_s {np.median(t_new):.4f}")
    print(f"median_per_op_ratio {np.median(t_new / t_old):.4f}")
    print(f"new_faster {int(np.sum(t_new < t_old))}/{args.ops}")
    print(f"byte_identical {same}/{args.ops}")
    if args.cold:
        print(f"old median_maxrss_mb {np.median(rss['old']):.2f}")
        print(f"new median_maxrss_mb {np.median(rss['new']):.2f}")
    if failed:
        print(f"nonzero_exits {failed}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
