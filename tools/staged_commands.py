"""Staged commands at benchmark scale write run_all's bytes.

run_all decodes nothing it wrote, so only single commands decode a store of the benchmark's
4,006 rows: each decodes every input it reads. This check writes a benchmark-shaped corpus
into WORKDIR, runs run_all on it in this process, then runs the commands of pipeline.STEPS,
ingest first, one by one through the CLI, each in its own process, into a second output
directory. The command list comes from STEPS, so a new step cannot slip past. It checks that:

- the two output directories hold the same files;
- every file but the manifest holds the same bytes in both;
- each manifest holds one entry per command, in order, and the two are equal once their
  timestamps are left out.

    python tools/staged_commands.py WORKDIR

WORKDIR must be empty or absent (exit 2 otherwise). Prints each difference and exits 1 if
there is any. Stdlib only.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from claimcheck import pipeline  # noqa: E402
from claimcheck.corpus import default_blocklist_path  # noqa: E402
from helpers import benchmark_shaped_rows, write_config, write_corpus  # noqa: E402


def manifest_entries(out: Path) -> list[dict]:
    """The manifest entries in `out`, in order, each without its timestamp."""
    lines = (out / pipeline.MANIFEST).read_text("utf-8").splitlines()
    return [{k: v for k, v in json.loads(line).items() if k != "timestamp"} for line in lines]


def differences(work: Path) -> list[str]:
    """Run both ways in `work`; return each difference between them, none when they agree."""
    corpus = write_corpus(work / "corpus.jsonl", benchmark_shaped_rows(1))
    run_all, staged = work / "run_all", work / "staged"
    configs = [write_config(work / f"{out.name}.json", corpus, out,
                            blocklist_path=str(default_blocklist_path()))
               for out in (run_all, staged)]
    pipeline.run_all(pipeline.load_config(configs[0]))
    commands = [name for names in pipeline.STEPS.values() for name in names]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for command in commands:
        print(f"claimcheck {command}", flush=True)
        status = subprocess.run([sys.executable, "-m", "claimcheck.cli", command,
                                 "--config", str(configs[1])],
                                env=env, stdout=subprocess.DEVNULL).returncode
        if status:
            return [f"claimcheck {command} exited {status}"]

    found = []
    files = [sorted(path.name for path in out.iterdir()) for out in (run_all, staged)]
    if files[0] != files[1]:
        found.append(f"run_all wrote {files[0]}, the staged commands {files[1]}")
    for name in sorted(set(files[0]) & set(files[1]) - {pipeline.MANIFEST}):
        if (run_all / name).read_bytes() != (staged / name).read_bytes():
            found.append(f"{name} differs")
    entries = [manifest_entries(out) for out in (run_all, staged)]
    for out, appended in zip(("run_all", "the staged commands"), entries):
        if len(appended) != len(commands):
            found.append(f"{out} appended {len(appended)} manifest entries "
                         f"for {len(commands)} commands")
    for number, (one, other) in enumerate(zip(*entries), start=1):
        if one != other:
            found.append(f"manifest entry {number}: {one} != {other}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/staged_commands.py WORKDIR", file=sys.stderr)
        return 2
    work = Path(argv[0])
    work.mkdir(parents=True, exist_ok=True)
    if any(work.iterdir()):
        print(f"{work} is not empty", file=sys.stderr)
        return 2
    found = differences(work)
    for difference in found:
        print(difference)
    print(f"{len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
