"""Self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Runs each workload shrunk to a few hundred rows at most, for a fraction of
a second, untraced and traced, and checks that the result carries exactly
the metrics BENCHMARK.json names, each with its unit. Then it pins one
artifact digest to a wrong value and checks that the run reports it as a
failed operation, so the output check can fail.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import replace

import run  # first: it puts src/ and tests/ on sys.path
import helpers
import workloads
from workloads import REFUTES, SUPPORTS, Expected

SECONDS = 0.1


def tiny_bulk_rows(seed: int) -> list[dict]:
    """60 rows in the bulk-4006 shape, half of them True."""
    return helpers.make_rows(60, 30, seed=seed, sentences=(3, 4), sentence_tokens=(6, 9))


def tiny_workloads() -> list[workloads.Workload]:
    w = workloads.WORKLOADS
    return [
        replace(w["bulk-4006"], name="tiny-bulk-4006", make_rows=tiny_bulk_rows,
                expected=Expected(60, {SUPPORTS: 30, REFUTES: 30}, workloads.split_sizes(60), 3)),
        replace(w["long-evidence"], name="tiny-long-evidence",
                make_rows=functools.partial(workloads.long_rows, raw=202, supports=101),
                expected=workloads.long_expected(raw=202, supports=101, explained=3),
                explain={"records": 3}),
    ]


def fail(message: str) -> None:
    sys.exit(f"selftest failed: {message}")


def check_result(result: dict, declared: list[dict], label: str) -> None:
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{label}: checks did not pass: {result['failed']}/{result['attempted']}")
    units = {m["name"]: m["unit"] for m in declared}
    emitted = result["metrics"]
    if set(emitted) != set(units):
        fail(f"{label}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(units) - set(emitted))}, extra {sorted(set(emitted) - set(units))}")
    for name, metric in emitted.items():
        if metric["unit"] != units[name]:
            fail(f"{label}: {name} has unit {metric['unit']!r}, declared {units[name]!r}")
        if not isinstance(metric["value"], (int, float)) or not math.isfinite(metric["value"]):
            fail(f"{label}: {name} is not a finite number: {metric['value']!r}")


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in tiny_workloads():
        check_result(run.run(workload, run.DEFAULT_SEED, SECONDS, trace=False),
                     declared["end_to_end"], f"{workload.name} untraced")
        check_result(run.run(workload, run.DEFAULT_SEED, SECONDS, trace=True),
                     declared["per_layer"], f"{workload.name} traced")

    workload = tiny_workloads()[0]
    config_path = workloads.write_inputs(workload, run.DEFAULT_SEED, run.WORK / workload.name,
                                         run.default_blocklist_path())
    probe = run.Bench(workload, config_path, pins=None)
    probe.run_pass()
    pins = dict(probe.first_digests)
    check_result(run.run(workload, run.DEFAULT_SEED, SECONDS, trace=False, pins=pins),
                 declared["end_to_end"], "correct pins")
    wrong = next(iter(pins))
    pins[wrong] = "0" * 64
    result = run.run(workload, run.DEFAULT_SEED, SECONDS, trace=False, pins=pins)
    if result["correct"] or result["failed"] < 1:
        fail(f"a wrong pinned digest for {wrong} was not counted as a failed operation")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
