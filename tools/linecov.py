"""Line coverage of ``src/swigcheck`` over a pytest run, standard library only.

Load it as a pytest plugin, with ``tools/`` on the import path::

    PYTHONPATH=src:tools python -m pytest -q -p linecov

A line is executable when the compiled module has bytecode on it, and
missed when no traced frame ran it. Each missed line is printed as
``file:line: text``. The run exits 1 when a missed line is not in
``ALLOWED``, or when an ``ALLOWED`` entry matches no missed line, so the
list cannot outlive the lines it excuses. Only frames of this process are
traced. Line tables differ between Python versions, so the gate is run on
one version (3.11).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "swigcheck"

# (file name in src/swigcheck, source text of the line without indentation)
# -> why tier-1 cannot run it; an entry excuses every missed line of that file
# with that text
ALLOWED = {
    ("cli.py", "raise"): "re-raises a BrokenPipeError, which only test_closed_stdout_exits_quietly's subprocess hits",
    ("cli.py", "except BrokenPipeError:"): "the outer handler; only the closed-stdout subprocess reaches it",
    ("cli.py", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"): "closed-stdout subprocess only",
    ("cli.py", "return EXIT_BROKEN_PIPE"): "closed-stdout subprocess only",
    ("cli.py", "sys.exit(main())"): "console-script entry; tests call main() in process, subprocesses are not traced",
    ("cli.py", "entry()"): "runs under python -m swigcheck.cli, which only subprocesses do",
}

_hits: dict[str, set[int]] = {}  # traced file name -> lines run
_tracers: dict[str, object] = {}  # file name -> its line tracer, or None for files not traced
_result: list[str] = []


def _line_tracer(hits: set[int]):
    def trace(frame, event, arg):
        if event == "line":
            hits.add(frame.f_lineno)
        return trace

    return trace


def _call(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _tracers:
        path = Path(name).resolve()
        ours = path.parent == PACKAGE
        _tracers[name] = _line_tracer(_hits.setdefault(str(path), set())) if ours else None
    return _tracers[name]


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode in any code object of the module."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def report() -> tuple[list[str], bool]:
    """Missed-line listing and whether the gate passes."""
    out, failed, used = [], False, set()
    total = missed_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        executable = executable_lines(path)
        total += len(executable)
        for line in sorted(executable - _hits.get(str(path), set())):
            missed_total += 1
            key = (path.name, text[line - 1].strip())
            if key in ALLOWED:
                used.add(key)
            failed |= key not in ALLOWED
            mark = " (allowed)" if key in ALLOWED else ""
            out.append(f"{path.relative_to(ROOT)}:{line}: {key[1]}{mark}")
    for name, source in sorted(set(ALLOWED) - used):
        failed = True
        out.append(f"src/swigcheck/{name}: allowed line ran or is gone: {source}")
    out.append(f"linecov: {missed_total} of {total} executable lines missed, {len(used)} allowed texts used")
    return out, not failed


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # before tests/conftest.py imports the package, so module bodies are traced
    sys.settrace(_call)


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    lines, ok = report()
    _result[:] = lines
    if not ok and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("line coverage of src/swigcheck")
    for line in _result:
        terminalreporter.write_line(line)
