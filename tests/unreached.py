"""List the statements of ``src/soficwreath`` that no test executes.

    python3 tests/unreached.py

The script runs the whole test suite, ``tests/``, in this process under
``sys.settrace`` and ``threading.settrace``, recording the lines run in
``src/soficwreath`` only, and finds every statement of each module there
with ``ast``, docstrings skipped.  A statement counts as reached when any line
of its header runs: CPython reports a multi-line ``if (`` at a later line, and
a decorated definition at its decorator.  The header of a simple statement is
all of its lines; that of a compound statement ends before its body.

It prints ``path:line: source`` for each unreached statement, marking those
``allowed`` accepts: ``Group``'s ``NotImplementedError`` stubs, which every
concrete group overrides, and the ``__main__`` lines, which only a new
interpreter runs.
It exits 1 when any other statement is unreached, and 2 when the suite does not
pass, as a failing run proves nothing about what the suite reaches.  Code run
by a test in a subprocess is not seen.  Hypothesis deadlines are off, since the
trace slows every line.  It needs only the standard library, pytest and
Hypothesis; it is not part of Tier-1.
"""
from __future__ import annotations

import ast
import os
import pathlib
import sys
import threading

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "soficwreath"


def header_lines(node: ast.stmt) -> range:
    """The lines whose execution reaches ``node``."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(node.lineno, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node is parent.body[0]
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def statements(tree: ast.Module):
    """Each statement of ``tree`` but docstrings, with the chain of nodes that holds it."""
    stack = [(tree, ())]
    while stack:
        parent, chain = stack.pop()
        for child in ast.iter_child_nodes(parent):
            if isinstance(child, ast.stmt) and not is_docstring(child, parent):
                yield child, chain
            stack.append((child, (*chain, child)))


def allowed(path: pathlib.Path, node: ast.stmt, chain: tuple) -> bool:
    """``Group``'s ``raise NotImplementedError`` stubs and the ``__main__`` lines."""
    if path.name == "__main__.py":
        return True
    if any(isinstance(n, ast.If) and ast.unparse(n.test) == "__name__ == '__main__'" for n in chain):
        return True
    raises = isinstance(node, ast.Raise) and node.exc is not None
    name = node.exc.func if raises and isinstance(node.exc, ast.Call) else node.exc if raises else None
    in_group = any(isinstance(n, ast.ClassDef) and n.name == "Group" for n in chain)
    return in_group and isinstance(name, ast.Name) and name.id == "NotImplementedError"


class NoDeadlines:
    """A pytest plugin that loads a Hypothesis profile without deadlines,
    once pytest has set up its assertion rewriting."""

    def pytest_configure(self, config):
        from hypothesis import settings

        settings.register_profile("unreached", deadline=None)
        settings.load_profile("unreached")


def run_traced() -> tuple[int, set[tuple[str, int]]]:
    """pytest's exit code for ``tests/`` and the (file, line) pairs it ran in the package."""
    import pytest

    prefix, hits = f"{PACKAGE}{os.sep}", set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"], plugins=[NoDeadlines()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, hits


def main() -> int:
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code, hits = run_traced()
    if code != 0:
        print(f"the suite did not pass (pytest exit {code}), so what it reaches is not known", file=sys.stderr)
        return 2
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node, chain in statements(ast.parse(source)):
            if not any((str(path), line) in hits for line in header_lines(node)):
                unreached.append((path, node.lineno, lines[node.lineno - 1].strip(), allowed(path, node, chain)))
    for path, line, text, ok in sorted(unreached):
        print(f"{path.relative_to(ROOT)}:{line}: {text}{'  (allowed)' if ok else ''}")
    blocking = sum(not ok for *_, ok in unreached)
    print(f"unreached: {len(unreached)} statements, {blocking} outside the allow-list")
    return 1 if blocking else 0


if __name__ == "__main__":
    sys.exit(main())
