"""claimcheck benchmark: seeded closed-loop workloads through the public API.

Usage, from the root of a checkout:

    python3 bench/run.py --workload bulk-4006 --seed 1 --seconds 50 --trace 0

One process, one thread, one caller: each pass starts when the previous
one has ended. ``--trace 0`` times passes with nothing wrapped and prints
the end-to-end metrics; ``--trace 1`` alternates untraced passes with
passes under the tracer (see tracing.py), installing it for each traced
pass only, and prints the per-layer metrics, including the tracing
overhead. Every pass is followed by output checks; the last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
try:
    import helpers  # noqa: F401  (tests/helpers.py builds the corpora)
    from claimcheck import cli, pipeline
    from claimcheck.corpus import default_blocklist_path
except ImportError as exc:
    sys.exit(f"bench: needs src/claimcheck and tests/helpers.py in {ROOT}: {exc}")

import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
MIN_PASSES = 3
# Set-up launches follow every untraced pass, so their median samples the
# whole run rather than one stretch of it.
SETUP_LAUNCHES_PER_PASS = 2
# Spelled out rather than imported, so the NLE check does not trust the code it checks.
VERDICT_WORDS = {"Supports": "supports", "Refutes": "refutes"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "explained_per_s": "1/s",
    "stage_ms.p50": "ms",
    "stage_ms.tail": "ms",
    "peak_rss_mb": "MB",
    "checks_passed_ratio": "ratio",
}

# A fresh interpreter imports the package, loads the config and creates the
# three backends; argv[1] is the source directory, argv[2] the config.
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
from claimcheck import pipeline
config = pipeline.load_config(sys.argv[2])
pipeline.create_summarizer(config.backends.summarizer)
pipeline.create_classifier(config.backends.classifier)
pipeline.create_nli(config.backends.nli)
"""

# sha256 of every artifact except the manifest at --seed 1, frozen after the
# first run. Artifacts carry no timestamps or paths, so the same inputs and
# config must reproduce these bytes on any machine.
PINNED_DIGESTS: dict[str, dict[str, str]] = {
    "bulk-4006": {
        "corpus_clean.jsonl":
            "ede903ba05c5774da4b7d42eaadc06d349266588156d68fb7e798f7edc5f4da9",
        "corpus_stats.json":
            "24197ed3bfead3e0f6ee44a30827361bdc9ac05a791942941727d6d014d4fd3e",
        "eval_f1.json":
            "0207e9df494f7354650bc3d4c1afd4b53123d9b3f0f572e4f7ed4910fc7094d6",
        "eval_nli.json":
            "bbf3f07b30d286665540e1567b87cb3202292a1f60badd64c530a59ef53087a9",
        "eval_report.json":
            "b17c16a5f446766e29cbf674ddad4f195abd7425a677fb2a087fcd7b0730a3ee",
        "highlights.html":
            "74387bbe5a11bfff29cd8d07cd5886c17b7ebab5aa39143688bbe44d72735656",
        "highlights.json":
            "7234e7234e1d6078077ce953745acc532558ec832d786c23e1b391d6b2f4710d",
        "model_state.json":
            "f2ce26ef2fd5f90b1ea70ed2b7c40395f6be37f36a2ab5c3932aa4f7a77ca2b2",
        "nles.jsonl":
            "82bf64f8f1eca8c003ed52f200852d189ff5f11556e8b32523e8a46fcbb43961",
        "predictions.jsonl":
            "1a93685b32577e17aa9ebb8529fb3360661aaa32affc9a5210ccd9023fb37799",
        "rationales.jsonl":
            "8af1bc5368b354638eda110539791c248894854fa8ab800f8a454f0b18d0be0f",
        "splits.json":
            "deb4a999da900673b1fc2b5568f56e5985490d5fbb50a57807ba2b166b46bdec",
        "train_log.json":
            "cb665c402ebe9a58dbeb44f0ab79b8d3de88248aa9ae635d9e43462e6692f2fa",
    },
    "long-evidence": {
        "corpus_clean.jsonl":
            "51debe8d6907f063642fd67be6588735bcd2dbe4b541fb6bc6f73e6dea473970",
        "corpus_stats.json":
            "7c0dae051170cd14913827c0c2bbb45545a23ef46f0c0115787e1285ecc7a628",
        "eval_f1.json":
            "5df0daea4c88f87dbc2c175208542c83012e9d3035c0adef2a70787641c1fef7",
        "eval_nli.json":
            "65b481749b19e5a8bad94120d4fce5c1796ca61eabdfa1d70abda41a6500707b",
        "eval_report.json":
            "8b6d2c2f1e1ce1a9cb2a9175e47fdaa938219ae283100de41664f22fda779747",
        "highlights.html":
            "58011549468d385d0329e2c0c62b1dbd0c95e1e28933b31a450a993695657ef3",
        "highlights.json":
            "d7e0c440fe9f04d1563c666f6df1a6099a26c26fa07fc10d88566f0a30caeabe",
        "model_state.json":
            "41bde1018c9e849a35717e35e7a48cf1112e9cf4a63f31e6e936e280afb0203b",
        "nles.jsonl":
            "82e595fef2bba9815bfc4ee30d27f075b7faf8a2f3e4226a3cb6d62be9d1ceb3",
        "predictions.jsonl":
            "c4fc8d1d6873fbe938f9cdb778d48263e95e9ffc22b7e8772f77dda9e257d39b",
        "rationales.jsonl":
            "6e03094829de265ce4b89ac6a6c29a8998f5cb808121432bdf56e28003afcdbf",
        "splits.json":
            "2d629b4061a6111b439fecd2c7348df0b7236c68bf436ebb670a42bb69126f09",
        "train_log.json":
            "404ea17bbad96e95c839daca62a2edc4cd1ed919cf85238509a7c7ae1250587f",
    },
}


@dataclass
class Pass:
    seconds: float  # wall time of run_all
    stage_s: list[float]  # latency of each of the 8 run_all stages, in order
    explain_s: float


class Bench:
    """Runs passes of one workload and checks their outputs."""

    def __init__(self, workload: workloads.Workload, config_path: Path, pins: dict | None):
        self.workload = workload
        self.config_path = config_path
        self.config = pipeline.load_config(config_path)
        self.out = Path(self.config.output_dir)
        self.pins = pins
        self.first_digests: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0

    # -- checks ---------------------------------------------------------------

    def check(self, name: str, test) -> bool:
        """Count one output check; a check that raises has failed."""
        self.attempted += 1
        try:
            ok = bool(test())
        except Exception as exc:  # a broken artifact must count, not abort the run
            print(f"check {name!r} raised {exc!r}", file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            print(f"check failed: {name}", file=sys.stderr)
        return ok

    def _doc(self, name: str) -> dict:
        return json.loads((self.out / name).read_text(encoding="utf-8"))

    def _rows(self, name: str, header: bool = True) -> list[dict]:
        lines = (self.out / name).read_text(encoding="utf-8").splitlines()
        return [json.loads(line) for line in lines[header:] if line.strip()]

    def _stats_command_agrees(self) -> bool:
        """The ``stats`` command reprints the expected corpus size and labels."""
        expected = self.workload.expected
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["stats", "--config", str(self.config_path)])
        stats = json.loads(buffer.getvalue())
        return (code == 0 and stats["total"] == expected.total
                and stats["per_label"] == expected.per_label)

    def check_outputs(self) -> None:
        expected = self.workload.expected
        self.check("cleaned corpus size", lambda: self._doc(pipeline.CORPUS_STATS)["total"]
                   == expected.total)
        self.check("cleaned corpus labels", lambda: self._doc(pipeline.CORPUS_STATS)["per_label"]
                   == expected.per_label)
        self.check("split sizes", lambda: tuple(
            len(self._doc(pipeline.SPLITS)[name]) for name in ("train", "validation", "test")
        ) == expected.splits)
        self.check("stats command", self._stats_command_agrees)
        self.check("explained records", lambda: len(self._doc(pipeline.HIGHLIGHTS)["records"])
                   == expected.explained)
        try:
            texts = {row["record_id"]: row["text"] for row in self._rows(pipeline.RATIONALES)}
            predictions = {row["record_id"]: row["label"]
                           for row in self._rows(pipeline.PREDICTIONS)}
            nles = {row["record_id"]: row["text"] for row in self._rows(pipeline.NLES)}
        except (OSError, ValueError, KeyError):
            texts = predictions = nles = None  # the checks below then fail
        self.check("rationales cover the corpus", lambda: len(texts) == expected.total)
        self.check("predictions cover rationales", lambda: set(texts) <= set(predictions))
        self.check("NLEs cover rationales", lambda: set(texts) <= set(nles))
        self.check("NLEs follow the template", lambda: all(
            text == f"The evidence {VERDICT_WORDS[predictions[rid]]} "
                    f"the claim because {texts[rid]}"
            for rid, text in nles.items()))
        self._check_digests()

    def _check_digests(self) -> None:
        digests = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(self.out.glob("*")) if path.name != pipeline.MANIFEST
        }
        reference = self.pins or self.first_digests
        if reference is None:
            self.first_digests = digests
            return
        self.check("artifact set", lambda: set(digests) == set(reference))
        for name, digest in reference.items():
            self.check(f"digest of {name}", lambda: digests.get(name) == digest)

    # -- passes ---------------------------------------------------------------

    def run_pass(self) -> Pass | None:
        """One checked pass on a fresh output directory; None if it failed."""
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()  # start every pass with the same collector state
        result = self._run_all()
        self.check_outputs()
        return result

    def _run_all(self) -> Pass | None:
        wall_start = time.time()
        start = time.perf_counter()
        ok = self.check("run_all", lambda: pipeline.run_all(self.config))
        seconds = time.perf_counter() - start
        wall_end = time.time()
        if not ok:
            return None
        # Stage latencies come from the manifest, whose entries are stamped as
        # each stage ends, so nothing inside run_all is wrapped. The eval stage
        # stamps twice (eval-f1, eval-nli) and then writes its report, so its
        # latency runs from the explain stamp to the end of run_all.
        stamps = {e["stage"]: datetime.fromisoformat(e["timestamp"]).timestamp()
                  for e in self._rows(pipeline.MANIFEST, header=False)}
        ends = [wall_start] + [stamps[stage] for stage in tracing.STAGES[:-1]] + [wall_end]
        stage_s = [b - a for a, b in zip(ends, ends[1:])]
        return Pass(seconds, stage_s, stage_s[tracing.STAGES.index("explain")])

    def measure(self, seconds: float, tracer: tracing.Tracer | None = None,
                after_pass=None) -> tuple[list[Pass], list[Pass]]:
        """Closed loop of checked passes for about ``seconds``; returns (untraced, traced).

        A round is one untraced pass, or with a tracer one untraced pass and
        one with the tracer installed, so both kinds sample the same stretch
        of the run. ``after_pass()`` runs after every pass, inside the time
        budget. The loop runs at least MIN_PASSES rounds.
        """
        kinds = (False,) if tracer is None else (False, True)
        passes: tuple[list[Pass], list[Pass]] = ([], [])
        rounds = 0
        start = time.perf_counter()
        while True:
            rounds += 1
            round_start = time.perf_counter()
            for traced in kinds:
                result = self._traced_pass(tracer, rounds) if traced else self.run_pass()
                if result is not None:
                    passes[traced].append(result)
                if after_pass is not None:
                    after_pass()
            now = time.perf_counter()
            if rounds >= MIN_PASSES and now - start + (now - round_start) > seconds:
                return passes

    def _traced_pass(self, tracer: tracing.Tracer, iteration: int) -> Pass | None:
        tracer.iteration = iteration
        tracer.install()
        try:
            return self.run_pass()
        finally:
            tracer.uninstall()


class Setup:
    """Times fresh interpreters doing SETUP_CODE for the workload's config."""

    def __init__(self, config_path: Path) -> None:
        self.command = [sys.executable, "-c", SETUP_CODE, str(ROOT / "src"), str(config_path)]
        subprocess.run(self.command, check=True)  # untimed: writes the bytecode cache
        self.times: list[float] = []

    def launch(self) -> None:
        for _ in range(SETUP_LAUNCHES_PER_PASS):
            start = time.perf_counter()
            subprocess.run(self.command, check=True)
            self.times.append(time.perf_counter() - start)


def records_per_s(workload: workloads.Workload, passes: list[Pass]) -> float:
    return statistics.median(workload.expected.total / p.seconds for p in passes)


def end_to_end(bench: Bench, passes: list[Pass],
               setup_times: list[float]) -> tuple[dict, list[str]]:
    workload = bench.workload
    samples = sorted(1000 * s for p in passes for s in p.stage_s)
    percentile = workload.tail_percentile
    tail = statistics.quantiles(samples, n=100)[percentile - 1]
    beyond = sum(1 for s in samples if s > tail)
    values = {
        "setup_s": statistics.median(setup_times),
        "records_per_s": records_per_s(workload, passes),
        "explained_per_s": statistics.median(workload.expected.explained / p.explain_s
                                             for p in passes),
        "stage_ms.p50": statistics.median(1000 * statistics.median(p.stage_s) for p in passes),
        "stage_ms.tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "checks_passed_ratio": (bench.attempted - bench.failed) / bench.attempted,
    }
    notes = [
        f"passes: {len(passes)}; stage latency samples: {len(samples)}; "
        f"setup launches: {len(setup_times)}",
        f"stage_ms.tail is p{percentile}: {beyond} of {len(samples)} samples lie beyond it",
        f"failed_ops_ratio: {bench.failed}/{bench.attempted} = "
        f"{bench.failed / bench.attempted:.6f} ratio",
    ]
    return values, notes


def per_layer(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    tracer = tracing.Tracer()
    untraced, traced = bench.measure(seconds, tracer)
    spans_path = WORK / f"spans-{bench.workload.name}.jsonl"
    tracer.write(spans_path)
    values = tracer.layer_metrics(sorted({span[4] for span in tracer.spans}))
    values["trace.untraced_records_per_s"] = records_per_s(bench.workload, untraced)
    values["trace.traced_records_per_s"] = records_per_s(bench.workload, traced)
    values["trace.overhead_ratio"] = (values["trace.untraced_records_per_s"]
                                      / values["trace.traced_records_per_s"] - 1)
    notes = [
        f"passes: {len(untraced)} untraced, {len(traced)} traced",
        f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
    ]
    return values, notes


def run(workload: workloads.Workload, seed: int, seconds: float, trace: bool,
        pins: dict | None = None) -> dict:
    """Run one workload and return the result object printed as the last line."""
    config_path = workloads.write_inputs(workload, seed, WORK / workload.name,
                                         default_blocklist_path())
    if pins is None and seed == DEFAULT_SEED:
        pins = PINNED_DIGESTS.get(workload.name)
    bench = Bench(workload, config_path, pins)
    setup = None if trace else Setup(config_path)
    bench.run_pass()  # warm-up: checked, not timed
    if trace:
        values, notes = per_layer(bench, seconds)
        units = tracing.PER_LAYER_UNITS
    else:
        passes, _ = bench.measure(seconds, after_pass=setup.launch)
        if not passes:
            raise RuntimeError("no pass completed")
        values, notes = end_to_end(bench, passes, setup.times)
        units = END_TO_END_UNITS
    print(f"workload {workload.name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    for line in notes:
        print(f"  {line}")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:>16.6f} {unit}")
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
