#!/usr/bin/env python3
"""Run tier-1 in-process under a line tracer and report unreached src lines.

    python tools/line_trace.py [pytest args ...]

Run from the repository root.  The tracer (``sys.settrace``, no coverage
package) records every line of ``src/`` that runs while pytest collects
and runs the suite.  A line counts as a statement when the compiler gives
it bytecode.  The check fails when the suite fails, or when a statement
never ran and is not in ``ALLOWED`` below; it also fails on an ``ALLOWED``
entry that no longer matches an unreached statement, so the list cannot go
stale.  It takes about twice the suite's own time.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Statements tier-1 does not run, by file (relative to src/sensorcast) and
# stripped source text, each with the reason it stays unreached.
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "the `python cli.py` guard: the tests call cli.main, and run the CLI "
        "as `python -m sensorcast` through __main__.py",
    ("forecast/filters.py",
     'raise ImportError("all_pole needs scipy, which is not installed")'):
        "scipy is installed wherever the suite runs",
    ("forecast/filters.py",
     'raise ImportError(f"no scipy.signal._sigtools extension in {signal_dirs}")'):
        "every scipy the suite runs with ships scipy.signal._sigtools",
}


def statements(path: Path) -> set[int]:
    """Lines of ``path`` that carry bytecode, in any nested code object."""
    lines, stack = set(), [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        # A module's code starts with an instruction on line 0.
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list[str]) -> int:
    src = str(SRC) + "/"
    reached: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def global_trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(src) else None

    sys.path.insert(0, str(SRC))
    import pytest

    sys.settrace(global_trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *argv])
    finally:
        sys.settrace(None)

    unreached, stale = [], dict(ALLOWED)
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC / "sensorcast").as_posix()
        text = path.read_text().splitlines()
        for line in sorted(statements(path)):
            if (str(path), line) in reached:
                continue
            key = (name, text[line - 1].strip())
            if stale.pop(key, None) is None:
                unreached.append(f"src/sensorcast/{name}:{line}: {key[1]}")
    print(f"line trace: {len(reached)} src lines reached, "
          f"{len(ALLOWED) - len(stale)} allowed unreached")
    for entry in unreached:
        print(f"UNREACHED {entry}")
    for (name, line), reason in stale.items():
        print(f"STALE ALLOWED src/sensorcast/{name}: {line} ({reason})")
    if code != 0:
        print(f"pytest exited with {code}")
    return 1 if code != 0 or unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
