"""Print each statement of the iswpt package that a fixed traffic never runs.

The traffic is

* the eight CSV runs of tools/fixed.spec, written as `tools/csv_digest.py`
  writes them;
* `iswpt validate`;
* one checked trial of each perfbench workload, driven the way
  `tests/test_bench_bindings.py` drives it (inputs, prepare, run, close,
  check), without the benchmark's tracer.

Lines are recorded with the standard library's `trace` module.

    python3 tools/traffic_lines.py

The traffic's own output goes to stderr.  Stdout lists one missed
statement per line, as `path:line: first source line`, then a count.  A
statement counts as run when any line of it that compiles to code ran:
all lines of a simple statement, the header lines of a compound one, so
a missed `if` is reported once and its unreached body too.

`iswpt` is imported from PYTHONPATH when it is set there, else from this
repository's `src`.
"""

from __future__ import annotations

import ast
import contextlib
import dis
import sys
import tempfile
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _code_lines(code) -> set[int]:
    """Lines that start an instruction in `code` or any code nested in it."""
    lines = {line for _, line in dis.findlinestarts(code) if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def statements(source: str) -> list[tuple[int, set[int]]]:
    """(first line, lines that compile to code) of each statement of
    `source` that compiles to code, in line order.

    A simple statement owns all its lines; a compound one owns its
    decorators and its header, up to the line before its body.  Function
    docstrings, `global` and the like compile to nothing and are left out.
    """
    code_lines = _code_lines(compile(source, "<source>", "exec"))
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        owned = code_lines & set(range(first, max(first, last) + 1))
        if owned:
            found.append((first, owned))
    return sorted(found, key=lambda item: item[0])


def missed(source: str, ran: set[int]) -> list[int]:
    """First lines of the statements of `source` none of whose code lines
    is in `ran`."""
    return [first for first, owned in statements(source) if not owned & ran]


def _traffic() -> None:
    """Run the traffic; imports happen here, so module bodies are traced."""
    sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]
    sys.path.append(str(ROOT / "src"))
    import csv_digest
    import workloads

    from iswpt import cli

    with tempfile.TemporaryDirectory() as tmp:
        csv_digest.write_csvs(Path(tmp))
    cli.main(["validate"])   # exits 1 while a criterion fails; still traffic
    for name in sorted(workloads.WORKLOADS):
        wl = workloads.make(name, 1)
        (inp,) = wl.inputs(1)
        wl.prepare()
        try:
            out = wl.run(inp)
        finally:
            wl.close()
        failures = wl.check(inp, out).failures
        if failures:
            raise SystemExit(f"{name}: {failures}")


def main() -> int:
    # No ignoredirs: `trace` caches its ignore decision per bare module
    # name, so an ignored numpy `__init__` would hide the package's own.
    tracer = trace.Trace(count=1, trace=0)
    with contextlib.redirect_stdout(sys.stderr):
        tracer.runfunc(_traffic)
    ran: dict[Path, set[int]] = {}
    for name, line in tracer.results().counts:
        ran.setdefault(Path(name).resolve(), set()).add(line)
    package = Path(sys.modules["iswpt"].__file__).resolve().parent
    total = n_missed = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        total += len(statements(source))
        for first in missed(source, ran.get(path, set())):
            n_missed += 1
            print(f"{path.relative_to(package.parent.parent)}:{first}: "
                  f"{lines[first - 1].strip()}")
    print(f"# {n_missed} of {total} statements never ran")
    return 0


if __name__ == "__main__":
    sys.exit(main())
