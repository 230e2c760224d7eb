"""Statement audit: every statement in the package must run under tier-1.

Tier-1 runs in this process under a line recorder (sys.settrace, and threading.settrace for
threads it starts). Every statement of src/claimcheck that is not a docstring must then have
run. A statement that cannot run there is declared in NEVER_RUN, under its module and innermost
enclosing function, with how many such statements it holds and why. The audit fails when tier-1
fails, when a statement outside NEVER_RUN never ran, and when a NEVER_RUN entry's count is not
the number of its statements that never ran, so an entry whose statements now run fails too.

A statement ran when the recorder saw one of its own lines run (a compound statement's own
lines are its header, decorators included) or any statement inside it run. `global` and
`nonlocal` run no code and are not counted.

    python tools/statement_audit.py

Prints each statement that never ran and a summary; exits 1 on any failure. Stdlib and
pytest only.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "claimcheck"
TIER1 = ("-q", "-p", "no:cacheprovider", "--continue-on-collection-errors")

# (module, innermost enclosing function or "<module>") -> (statements that never run, why).
NEVER_RUN = {
    ("cli.py", "<module>"): (1, "sys.exit(main()) under __main__: the tests call main()"),
    ("errors.py", "_start_worker"): (1, "runs only in an explain worker process, at its fork"),
    ("errors.py", "_attempt_in_worker"): (1, "runs only in an explain worker process"),
}
DECLARATIONS = (ast.Global, ast.Nonlocal)  # statements that compile to no code
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
SCOPES = (ast.Module, ast.ClassDef, *FUNCTIONS)


def is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    return (isinstance(parent, SCOPES) and parent.body[0] is node and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def own_lines(node: ast.stmt) -> range:
    """The lines of a statement that belong to no statement inside it."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    body = getattr(node, "body", None)
    return range(first, (body[0].lineno if body else node.end_lineno + 1))


def never_run(tree: ast.Module, seen: set[int]) -> list[tuple[str, int]]:
    """(innermost enclosing function or "<module>", first line) of each statement in `tree` that
    is not a docstring or a declaration and ran no line of `seen`, in file order."""
    unrun = []

    def visit(node: ast.AST, function: str) -> bool:
        """Whether anything under `node` ran; records the statements under it that did not."""
        ran = False
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.stmt, ast.excepthandler)):
                continue
            inner = child.name if isinstance(child, FUNCTIONS) else function
            nested = visit(child, inner)
            if not isinstance(child, ast.stmt) or isinstance(child, DECLARATIONS) \
                    or is_docstring(child, node):
                ran |= nested
                continue
            child_ran = nested or not seen.isdisjoint(own_lines(child))
            if not child_ran:
                unrun.append((function, child.lineno))
            ran |= child_ran
        return ran

    visit(tree, "<module>")
    return sorted(unrun, key=lambda place: place[1])


def record_lines(files: dict[str, set[int]]):
    """A trace function that adds each line run in a file of `files` (real path -> lines seen)
    to its set."""
    tracers = {}  # a code object's file name, as given -> its line tracer, or None

    def tracer_for(seen: set[int]):
        def trace_lines(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return trace_lines
        return trace_lines

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            seen = files.get(os.path.realpath(name))
            tracers[name] = None if seen is None else tracer_for(seen)
        return tracers[name]
    return trace_calls


def main() -> int:
    began = time.monotonic()
    modules = sorted(PACKAGE.glob("*.py"))
    files = {os.path.realpath(module): set() for module in modules}
    os.chdir(ROOT)
    trace = record_lines(files)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(list(TIER1))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    found = Counter()
    for module in modules:
        tree = ast.parse(module.read_bytes(), str(module))
        for function, line in never_run(tree, files[os.path.realpath(module)]):
            found[module.name, function] += 1
            declared = "declared" if (module.name, function) in NEVER_RUN else "NOT DECLARED"
            print(f"{module.name}:{line} in {function}: never ran ({declared})")
    failures = [f"tier-1 failed (pytest exit {status})"] if status != 0 else []
    for place in sorted(found.keys() | NEVER_RUN.keys()):
        expected = NEVER_RUN.get(place, (0, ""))[0]
        if found[place] != expected:
            failures.append(f"{place[0]} in {place[1]}: {found[place]} statements never ran, "
                            f"{expected} declared")
    print(f"{sum(found.values())} statements never ran in {len(found)} places, "
          f"{len(NEVER_RUN)} declared, {time.monotonic() - began:.0f} s")
    for failure in failures:
        print(f"failure: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
