from __future__ import annotations

import os
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"

# HYPOTHESIS_PROFILE=derandomized runs every property test on the same examples each run, with
# no example database, so which statements run and which mutants die does not vary between runs
# (CI sets it); unset, each run draws fresh examples.
try:
    from hypothesis import settings
except ImportError:  # the tests that need hypothesis fail at collection; the others still run
    pass
else:
    settings.register_profile("derandomized", derandomize=True, database=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def corpus20_path() -> Path:
    return FIXTURES / "corpus20.jsonl"


def golden_text(name: str) -> str:
    return (GOLDEN / name).read_bytes().decode("utf-8")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    results: dict[str, str] = {}
    for outcome in ("passed", "failed", "skipped"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" in nodeid and getattr(report, "when", "call") in ("call", "setup"):
                results.setdefault(nodeid.split("::")[-1], outcome.upper())
    if results:
        terminalreporter.section("acceptance criteria")
        for name in sorted(results):
            terminalreporter.write_line(f"{name}: {results[name]}")
