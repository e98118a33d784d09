"""Digest of `habitree` CLI outputs, for checking that two source trees
print the same bytes, and for sizing the change when they do not.

Runs each command in a fresh interpreter against the package in SRC and
writes, per run, the exit code and a sha256 of stdout followed by stderr to
OUT.json, and the same with each stream's parsed output to OUT.values.json
(the JSON tree; CSV columns merged with the `# summary` JSON; other text as
is).  Inputs are two `perfbench/gen.py` documents (seed 7) of each kind:
`solve`, `bounds`, `asymptotics` and `spd` on the market kinds and on
`classC_market.json` (a frozen class-C market with a deterministic rate;
its `classC_blocks` section is not read, since the program derives H_k from
the payoff spans), `equilibrium` on the economies and on the two-agent desk
economy,
`bond-curve` and `lucas-curve` on the bundled growth economy (defaults, and
a bond at maturity 5 on a coarser grid), plus `verify` with the default seed
and with seeds 1-3.

  python scripts/cli_digest.py OLD/src old.json
  python scripts/cli_digest.py src new.json
  diff old.json new.json
  python scripts/cli_digest.py compare old.values.json new.values.json

`compare` prints one line per run: whether the bytes match, whether the exit
code and the non-numeric fields (keys, strings, integers such as
`iterations`, booleans) match, and per top-level numeric field the largest
absolute difference over the field's largest old magnitude.  Residual-type
fields (`foc_residual`, `residuals`, `walras_history` and verify's
`suites`) sit at roundoff, so they get the largest absolute difference
instead, marked `abs`.  It exits with status 1 when a run is on one side
only, or when any run's exit code or non-numeric fields differ; numeric
differences alone leave it at 0.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

MARKET_KINDS = ("complete", "incomplete", "factor", "factor-det", "small-market")
ECONOMY_KINDS = ("hetero", "homogeneous")
SEED, COUNT = 7, 2
CLASSC = Path(__file__).resolve().parent / "classC_market.json"
MARKET_COMMANDS = ("solve", "bounds", "asymptotics", "spd")
SUMMARY = "# summary: "
ABSOLUTE = {"foc_residual", "residuals", "walras_history", "suites"}


def runs(workdir: Path):
    for kind in MARKET_KINDS + ECONOMY_KINDS:
        commands = MARKET_COMMANDS if kind in MARKET_KINDS else ("equilibrium",)
        for i, text in enumerate(gen.documents(kind, SEED, COUNT)):
            path = workdir / f"{kind}-{i}.json"
            path.write_text(text)
            for command in commands:
                yield f"{command} {path.name}", [command, "--input", path.name]
    classc = workdir / CLASSC.name
    classc.write_bytes(CLASSC.read_bytes())
    for command in MARKET_COMMANDS:
        yield f"{command} {classc.name}", [command, "--input", classc.name]
    desk = workdir / "desk-economy.json"
    desk.write_text(json.dumps(gen.desk_economy()))
    yield f"equilibrium {desk.name}", ["equilibrium", "--input", desk.name]
    yield "bond-curve", ["bond-curve"]
    yield "lucas-curve", ["lucas-curve"]
    grid = ["--maturity", "5", "--beta-grid", "0:0.5:0.05"]
    yield "bond-curve " + " ".join(grid), ["bond-curve", *grid]
    yield "verify", ["verify"]
    for seed in ("1", "2", "3"):
        yield f"verify --seed {seed}", ["verify", "--seed", seed]


def parse(text: str):
    """A stream's output as data: JSON, CSV + summary, or the text itself."""
    if not text:
        return None
    try:
        return json.loads(text)
    except ValueError:
        pass
    if SUMMARY in text:
        csv, summary = text.split(SUMMARY, 1)
        header, *lines = csv.strip().splitlines()
        names = header.split(",")
        columns = {name: [] for name in names}
        for line in lines:
            for name, value in zip(names, line.split(",")):
                columns[name].append(float(value))
        return {**columns, **json.loads(summary)}
    return text


def main(src: str, out: str) -> None:
    src = str(Path(src).resolve())
    env = dict(os.environ, PYTHONPATH=src)
    digest, values = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in runs(Path(tmp)):
            proc = subprocess.run([sys.executable, "-m", "habitree.cli", *argv],
                                  cwd=tmp, env=env, capture_output=True)
            # tracebacks name the source tree; keep the digest independent of it
            stdout, stderr = (s.replace(src.encode(), b"<src>") for s in (proc.stdout, proc.stderr))
            digest[name] = {"exit": proc.returncode,
                            "sha256": hashlib.sha256(stdout + stderr).hexdigest()}
            values[name] = dict(digest[name], stdout=parse(stdout.decode()),
                                stderr=parse(stderr.decode()))
    Path(out).write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n")
    Path(out).with_suffix(".values.json").write_text(json.dumps(values, sort_keys=True) + "\n")


def _walk(old, new, path, field, numeric, mismatches):
    """Record |old - new| and |old| per field for floats; every other
    difference (type, key, length, value) is a mismatch at `path`."""
    if isinstance(old, float) and isinstance(new, float):
        if old == new or (math.isnan(old) and math.isnan(new)):
            diff = 0.0
        else:
            diff = abs(old - new) if math.isfinite(old) and math.isfinite(new) else math.inf
        worst = numeric.setdefault(field, [0.0, 0.0])
        worst[0] = max(worst[0], diff)
        if math.isfinite(old):
            worst[1] = max(worst[1], abs(old))
    elif type(old) is not type(new):
        mismatches.append(path)
    elif isinstance(old, dict):
        if old.keys() != new.keys():
            mismatches.append(path)
        for key in sorted(old.keys() & new.keys()):
            _walk(old[key], new[key], f"{path}.{key}", field or key, numeric, mismatches)
    elif isinstance(old, list):
        if len(old) != len(new):
            mismatches.append(path)
        for i, (a, b) in enumerate(zip(old, new)):
            _walk(a, b, f"{path}[{i}]", field, numeric, mismatches)
    elif old != new:
        mismatches.append(path)


def compare(old_path: str, new_path: str) -> bool:
    """Print the comparison; True when every run is on both sides with the
    same exit code and the same non-numeric fields."""
    old = json.loads(Path(old_path).read_text())
    new = json.loads(Path(new_path).read_text())
    same, agree = 0, True
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            print(f"{name}: only in {'new' if name in new else 'old'}")
            agree = False
            continue
        a, b = old[name], new[name]
        if a["sha256"] == b["sha256"]:
            same += 1
            print(f"{name}: bytes same")
            continue
        numeric, mismatches = {}, []
        for stream in ("stdout", "stderr"):
            # a JSON object's keys are the top-level fields; anything else
            # counts as one field named after its stream
            top = None if isinstance(a[stream], dict) else stream
            _walk(a[stream], b[stream], stream, top, numeric, mismatches)
        agree = agree and a["exit"] == b["exit"] and not mismatches
        exit_ = "same" if a["exit"] == b["exit"] else f"{a['exit']} -> {b['exit']}"
        other = "same" if not mismatches else f"{len(mismatches)} differ, first {mismatches[0]}"
        diffs = ", ".join(f"{field} {diff:.1e} abs" if field in ABSOLUTE or not scale
                          else f"{field} {diff / scale:.1e}"
                          for field, (diff, scale) in sorted(numeric.items()))
        print(f"{name}: bytes differ; exit {exit_}; non-numeric {other}; max diff: {diffs}")
    print(f"{same} of {len(old.keys() | new.keys())} runs byte-identical")
    return agree


if __name__ == "__main__":
    if sys.argv[1] == "compare":
        sys.exit(0 if compare(*sys.argv[2:4]) else 1)
    else:
        main(*sys.argv[1:3])
