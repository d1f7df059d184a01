"""Lines of src/gsir that the test suite never runs.

    python bench/uncovered.py [pytest arguments]

Runs pytest in this process (with `-q -p no:cacheprovider` when no argument
is given) under a `sys.settrace` / `threading.settrace` line tracer limited
to the files of `src/gsir`, then prints `module.py:line: source` for every
line that compiles to bytecode and never ran.  `def`, `class`, decorator and
docstring lines are not listed.  Exits with pytest's exit code.

Limit: only this interpreter is traced.  Code that runs only in child
interpreters is not seen: `tests/test_imports.py`, and the subprocesses of
the digest and demo tests.  The tracer slows the suite by about half.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gsir"


def code_lines(code):
    """Line numbers of the bytecode of code and of the code objects it holds."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def skipped_lines(tree):
    """def, class and decorator lines (the whole signature) and docstrings."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            skip.update(range(first, node.body[0].lineno))
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            skip.update(range(doc.lineno, doc.end_lineno + 1))
    return skip


def main(argv):
    import pytest

    files = {str(path) for path in PACKAGE.glob("*.py")}
    ran = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.path.insert(0, str(PACKAGE.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(argv or ["-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name in sorted(files):
        text = Path(name).read_text()
        source = text.splitlines()
        tree = ast.parse(text)
        missed = code_lines(compile(tree, name, "exec")) - skipped_lines(tree)
        for line in sorted(n for n in missed if (name, n) not in ran):
            print(f"{Path(name).name}:{line}: {source[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
