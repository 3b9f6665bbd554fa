"""Record the reference results that the protocol workloads' gate pins.

Usage, from the repository root::

    python3 perfbench/record_reference.py SEED...

For each protocol workload and seed it prepares the seeded inputs, runs the
``pgm gridsearch`` command line once, checks the report with the gate's
other checks, and stores the chosen configuration and the aggregate test
means in ``reference.json`` (entries for other seeds are kept). Run it again
only when a change is meant to alter the protocol's results, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
from workloads import REFERENCE_FILE, Protocol, load_reference, reference_entry, workloads  # noqa: E402


def record(workload, seed: int) -> dict:
    work = Path(tempfile.mkdtemp(prefix=f"reference-{workload.name}-", dir=run.WORK_ROOT))
    try:
        env = run.child_env(workload)
        pgm = [sys.executable, "-m", "pgmclassifier.cli"]

        def run_pgm(args):
            proc = run.launch(pgm + list(args), work, env, work / "prepare.log")
            if proc.code != 0:
                raise SystemExit(f"pgm {' '.join(args)} exited with {proc.code}")

        workload.prepare(work, seed, run_pgm)
        workload.pinned = False  # the old entry is being replaced, not checked
        (command,) = workload.commands()
        rep = work / "rep0"
        rep.mkdir()
        proc = run.launch(pgm + list(command.args), rep, env, work / "gridsearch.log")
        failures = [f"exited with {proc.code}"] if proc.code else workload.check(work, rep)[command.label]
        if failures:
            raise SystemExit(f"{workload.name} seed {seed}: {failures}")
        return reference_entry(json.loads((rep / "report.json").read_text(encoding="utf-8")))
    finally:
        shutil.rmtree(work)


def main(argv) -> int:
    seeds = [int(s) for s in argv]
    run.WORK_ROOT.mkdir(exist_ok=True)
    reference = load_reference()
    for workload in workloads().values():
        if not isinstance(workload, Protocol):
            continue
        entries = reference.setdefault(workload.name, {})
        for seed in seeds:
            entries[str(seed)] = record(workload, seed)
            print(f"{workload.name} seed {seed}: chosen {entries[str(seed)]['chosen']}")
        reference[workload.name] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
    REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
