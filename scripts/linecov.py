"""Lines of `src/habitree` that a pytest run never executes.

  python scripts/linecov.py [PYTEST ARGS...]

Runs pytest (arguments passed through, default the `tests` directory) in
this process under a `sys.settrace` line tracer, on the package in this
checkout's `src`, then prints per source file the executable lines that
never ran, as ranges:

  optimizer.py: 2 of 612 never executed: 519, 867-868

A line is executable when some code object compiled from the file maps an
instruction to it (`co_lines()`).  Only this process is traced: lines that
tests run in a subprocess (the CLI tests that start `python -m
habitree.cli`, say) count as never executed.  Exits with pytest's status.
"""

import os
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "habitree"


def executable_lines(path: Path) -> set:
    """Line numbers that any code object compiled from ``path`` runs."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        # line None: no source line; line 0: a module's entry point
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list) -> str:
    """'3, 7-9' for [3, 7, 8, 9]."""
    out, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def main(argv: list) -> int:
    import pytest

    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    files = {str(p.resolve()): p for p in sorted(PACKAGE.glob("*.py"))}
    hit = {name: set() for name in files}
    owner = {}              # co_filename -> its set in `hit`, or None outside the package

    def local(frame, event, arg):
        if event == "line":
            owner[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owner:
            owner[name] = hit.get(os.path.realpath(name))
        if owner[name] is None:
            return None
        owner[name].add(frame.f_lineno)
        return local

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(argv or [str(SRC.parent / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name, path in files.items():
        lines = executable_lines(path)
        missed = sorted(lines - hit[name])
        print(f"{path.name}: {len(missed)} of {len(lines)} never executed"
              + (f": {ranges(missed)}" if missed else ""))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
