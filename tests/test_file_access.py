"""One reader and one writer: only store.py opens, reads or writes a file.

Every other module goes through store.open_input (a file from outside the output
directory), store.read_records or store.read_doc (an artifact it decodes),
store.file_sha256 (a file it only hashes), store.write_text or, for the append-only
manifest, store.append_lines. No module is an exception."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "claimcheck"
# The builtin open, and the Path methods that open, read or write a file.
OPENERS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}
# (module, top-level function) allowed to open a file outside store.py: none.
ALLOWED = set()


def file_calls(module: Path):
    """(top-level function or class, line) of each call in `module` that names an opener."""
    for top in ast.parse(module.read_text(encoding="utf-8"), str(module)).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open"
                    or isinstance(func, ast.Attribute) and func.attr in OPENERS):
                yield owner, node.lineno


def test_only_the_store_opens_files():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 1
    found = [f"{module.name}:{line} in {owner}"
             for module in modules if module.name != "store.py"
             for owner, line in file_calls(module) if (module.name, owner) not in ALLOWED]
    assert found == []

