"""Mutation audit: every `raise` in the package must be reached by a test.

Each `raise` statement in src/claimcheck is replaced by `pass`, one at a time, in a
copy of the repository made in a temporary directory; the checkout is never edited.
A mutant is killed when the mutated module's own test file (tests/test_<module>.py)
fails with -x, or, when that file passes or does not exist, when tier-1 fails with -x.
Tier-1 runs here without tests/test_guards.py, whose inventory of raise sites fails when
any listed raise disappears, whatever the raise does: only a test of behaviour kills a
mutant. A mutant that passes both survives: its guard is untested, or redundant.

    python tools/mutation_audit.py

Prints one line per mutant and a summary; exits 1 if any mutant survived. Stdlib only.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# What the tests read: the package, the tests, the pytest settings, and the README.
COPIED = ("src", "tests", "pyproject.toml", "README.md")
TIER1 = ("--continue-on-collection-errors", "--ignore=tests/test_guards.py")
# A mutant that hangs (a guard that ended a loop) is killed at this many seconds per run.
RUN_TIMEOUT_S = 900


def raise_spans(source: bytes) -> list[tuple[int, int, int]]:
    """(line, start byte, end byte) of each raise statement in `source`, in file order."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return sorted((node.lineno, starts[node.lineno - 1] + node.col_offset,
                   starts[node.end_lineno - 1] + node.end_col_offset)
                  for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise))


def run_tests(workdir: Path, *args: str) -> bool:
    """Whether pytest, run in `workdir` with -x on `args`, passed."""
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args]
    try:
        result = subprocess.run(command, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def audit(workdir: Path, modules: list[Path]) -> tuple[int, list[str]]:
    """Run every mutant of `modules` (paths inside `workdir`); return how many ran, and
    the survivors as module:line."""
    count, survivors = 0, []
    for module in modules:
        original = module.read_bytes()
        own_tests = Path("tests") / f"test_{module.stem}.py"
        for line, start, end in raise_spans(original):
            where, count, began = f"{module.name}:{line}", count + 1, time.monotonic()
            module.write_bytes(original[:start] + b"pass" + original[end:])
            try:
                if (workdir / own_tests).exists() and not run_tests(workdir, str(own_tests)):
                    verdict = f"killed by {own_tests.name}"
                elif not run_tests(workdir, *TIER1):
                    verdict = "killed by tier-1"
                else:
                    verdict = "SURVIVED"
                    survivors.append(where)
            finally:
                module.write_bytes(original)
            print(f"{where}: {verdict} ({time.monotonic() - began:.1f} s)", flush=True)
    return count, survivors


def main() -> int:
    began = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutation-audit-") as tmp:
        workdir = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, workdir / name,
                                ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
            else:
                shutil.copy2(source, workdir / name)
        if not run_tests(workdir, *TIER1):
            print("tier-1 fails without any mutant; nothing to audit", file=sys.stderr)
            return 1
        count, survivors = audit(workdir, sorted((workdir / "src" / "claimcheck").glob("*.py")))
    print(f"{count} mutants, {len(survivors)} survived, {time.monotonic() - began:.0f} s")
    for where in survivors:
        print(f"survivor: {where}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
