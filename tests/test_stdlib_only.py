"""Runtime code stays stdlib-only: every absolute import in the package names a stdlib module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "claimcheck"


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    outside = []
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"), str(module))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{module.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
