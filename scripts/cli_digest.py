"""Digest of `habitree` CLI outputs, for checking that two source trees
print the same bytes.

Runs each command in a fresh interpreter against the package in SRC and
writes, per run, the exit code and a sha256 of stdout followed by stderr.
Inputs are two `perfbench/gen.py` documents (seed 7) of each kind: `solve`,
`bounds`, `asymptotics` and `spd` on the market kinds, `equilibrium` on the
economies, plus `verify` with the default seed and with seeds 1-3.

  python scripts/cli_digest.py OLD/src old.json
  python scripts/cli_digest.py src new.json
  diff old.json new.json
"""

import hashlib
import json
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


def runs(workdir: Path):
    for kind in MARKET_KINDS + ECONOMY_KINDS:
        commands = ("solve", "bounds", "asymptotics", "spd") if kind in MARKET_KINDS \
            else ("equilibrium",)
        for i, text in enumerate(gen.documents(kind, SEED, COUNT)):
            path = workdir / f"{kind}-{i}.json"
            path.write_text(text)
            for command in commands:
                yield f"{command} {path.name}", [command, "--input", path.name]
    yield "verify", ["verify"]
    for seed in ("1", "2", "3"):
        yield f"verify --seed {seed}", ["verify", "--seed", seed]


def main(src: str, out: str) -> None:
    src = str(Path(src).resolve())
    env = dict(os.environ, PYTHONPATH=src)
    digest = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in runs(Path(tmp)):
            proc = subprocess.run([sys.executable, "-m", "habitree.cli", *argv],
                                  cwd=tmp, env=env, capture_output=True)
            # tracebacks name the source tree; keep the digest independent of it
            text = (proc.stdout + proc.stderr).replace(src.encode(), b"<src>")
            digest[name] = {"exit": proc.returncode, "sha256": hashlib.sha256(text).hexdigest()}
    Path(out).write_text(json.dumps(digest, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(*sys.argv[1:3])
