"""Line-reach audit: which lines of `src/pathpart` no test executes.

A stdlib-only pytest plugin. Run it on the non-slow suite:

    PYTHONPATH=src python -m pytest -q -m "not slow" -p tests.linereach

It traces every frame whose code lives under `src/pathpart`, in this process
only (the CLI tests' subprocesses are not traced), from before the first
conftest imports the package. A line counts as executable when a compiled
code object of its file maps an instruction to it (`co_lines`), so a
`global` statement or a function's docstring is no line to reach. At the end
it prints each unreached line by file and function, less those in
`ALLOWED`, then each `ALLOWED` entry that no longer names an unreached line,
and last the `src/` code-line count (`code_lines`). Any unreached line
outside `ALLOWED`, or a stale entry, turns a passing run into exit status 1.

For the count alone, run no tests:

    python -m tests.linereach
"""

from __future__ import annotations

import ast
import io
import sys
import threading
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "pathpart"

# (file, function, stripped line text) -> why no in-process test reaches it
ALLOWED = {
    ("cli.py", "<module>", "raise SystemExit(main())"):
        "runs only when the module is the script (`python -m pathpart.cli`), "
        "which the subprocess CLI tests do",
}

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(src: str) -> int:
    """The lines that hold a token other than a comment, newline, indent or
    dedent, less the lines of module, class and function docstrings."""
    docs = {i for node in ast.walk(ast.parse(src))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)
            for i in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
    code = {i for tok in tokenize.generate_tokens(io.StringIO(src).readline)
            if tok.type not in _SKIP for i in range(tok.start[0], tok.end[0] + 1)}
    return len(code - docs)


def src_code_lines() -> int:
    return sum(code_lines(f.read_text()) for f in SRC.rglob("*.py"))


def executable_lines(path: Path) -> dict[int, str]:
    """Each line some code object of the file maps an instruction to, with
    the qualified name of the outermost such code object: a nested
    function's body lines name it, a comprehension's its enclosing function.
    Line 0, where a module's first instruction sits, is no source line."""
    lines: dict[int, str] = {}
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:  # outer code objects first
        code = todo.pop(0)
        for _, _, line in code.co_lines():
            if line:
                lines.setdefault(line, code.co_qualname)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class LineReach:
    def __init__(self):
        self.hits: set[tuple[str, int]] = set()
        prefix = str(PACKAGE)
        add = self.hits.add

        def local(frame, event, arg):
            if event == "line":
                add((frame.f_code.co_filename, frame.f_lineno))
            return local

        def enter(frame, event, arg):
            return local if frame.f_code.co_filename.startswith(prefix) else None

        self.enter = enter

    def start(self) -> None:
        threading.settrace(self.enter)
        sys.settrace(self.enter)

    def stop(self) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def report(self) -> tuple[list[str], int]:
        """The report's lines, and how many of them are faults."""
        out, faults = [], 0
        allowed_seen = set()
        total = reached = 0
        for path in sorted(PACKAGE.rglob("*.py")):
            name = path.relative_to(PACKAGE).as_posix()
            text = path.read_text().splitlines()
            by_func: dict[str, list[int]] = {}
            for line, func in sorted(executable_lines(path).items()):
                total += 1
                if (str(path), line) in self.hits:
                    reached += 1
                    continue
                key = (name, func, text[line - 1].strip())
                if key in ALLOWED:
                    allowed_seen.add(key)
                else:
                    by_func.setdefault(func, []).append(line)
            for func, lines in by_func.items():
                faults += len(lines)
                out.append(f"{name}:{func}: unreached line(s) {', '.join(map(str, lines))}")
        for key in sorted(set(ALLOWED) - allowed_seen):
            faults += 1
            out.append("allow-list entry names no unreached line: %s:%s: %r" % key)
        out.append(f"{reached} of {total} executable lines reached; "
                   f"{len(allowed_seen)} allowed unreached, {faults} fault(s)")
        out.append("src/ code lines: %d" % src_code_lines())
        return out, faults


_reach = LineReach()
_REPORT = pytest.StashKey[tuple[list[str], int]]()


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    # before the conftests import pathpart, so its module-level lines count
    _reach.start()


def pytest_sessionfinish(session, exitstatus):
    _reach.stop()
    session.config.stash[_REPORT] = report = _reach.report()
    if report[1] and exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines, _ = config.stash[_REPORT]
    terminalreporter.section("line reach")
    for line in lines:
        terminalreporter.write_line(line)


if __name__ == "__main__":
    print("src/ code lines: %d" % src_code_lines())
