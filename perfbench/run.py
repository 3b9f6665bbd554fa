"""Benchmark of the ``pgm`` command-line program.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run generates the workload's inputs from the seed in a scratch directory
under ``.bench_work/``, then

* repeats the workload's ``pgm`` commands, each in a fresh
  ``python -m pgmclassifier.cli`` process with ``src`` on the path, until
  ``--seconds`` have passed (at least ``min_reps`` times), and reports the
  median repetition;
* measures set-up: a fresh interpreter imports ``pgmclassifier.cli`` and
  loads the workload's inputs through the ``dataio`` calls the commands make
  (``setup_probe.py``), several times; ``setup_s`` is the median;
* with ``--trace 1``, runs each repetition a second time through
  ``traced.py`` (same command lines, in-process, with span wrappers) and
  reports the per-layer metrics instead of the end-to-end ones;
* checks every output outside the timed region: the workload's own gate,
  and byte-identical outputs across repetitions (traced ones included).

It prints each metric with its unit, the throughput of the workload's main
command and the environment, writes the same record to
``.bench_work/results/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted`` and
``failed`` count timed command processes (a command fails when it exits
non-zero or its output fails the gate).

Threads: commands inherit ``OPENBLAS_NUM_THREADS`` as set (it is recorded,
not pinned); ``PGM_WORKERS`` is set or removed as the workload says.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

#: A command still running after this many seconds is killed and fails.
COMMAND_TIMEOUT = 150.0
#: No repetition starts that would end later than this after the run began.
RUN_BUDGET = 140.0
SETUP_PROBES = 3

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


@dataclass(frozen=True)
class Proc:
    """Outcome of one child process, timed from launch to exit."""

    code: int
    wall: float
    rss_mb: float


def launch(argv, cwd, env, log_path) -> Proc:
    """Run ``argv`` to completion; wall time and peak RSS come from ``wait4``."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0)


def child_env(workload) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("PGM_WORKERS", None)
    if workload.workers is not None:
        env["PGM_WORKERS"] = workload.workers
    return env


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    """SHA-256 over the package sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "pgmclassifier").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def environment(workload) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PGM_WORKERS": workload.workers,
        "effective_workers": effective_workers(workload),
    }


def effective_workers(workload) -> int:
    """Grid-search threads: ``PGM_WORKERS``, else the CLI's default of the CPU count."""
    return int(workload.workers or os.cpu_count() or 1)


def safe_check(workload, work, rep_dir, commands) -> dict:
    """The workload's gate; a gate that raises fails every command of the rep."""
    try:
        return workload.check(work, rep_dir)
    except Exception:
        error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        return {c.label: [f"gate raised {error}"] for c in commands}


class Failed(Exception):
    """A preparation or set-up step failed, so nothing can be measured."""


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run one benchmark run in ``work``; returns the result record."""
    started = time.perf_counter()
    env = child_env(workload)
    pgm = [sys.executable, "-m", "pgmclassifier.cli"]
    logs = work / "logs"
    logs.mkdir()
    launches = itertools.count()

    def run(argv, cwd):
        return launch(argv, cwd, env, logs / f"{next(launches):04d}.log")

    def run_pgm(args):
        proc = run(pgm + list(args), work)
        if proc.code != 0:
            raise Failed(f"untimed command pgm {' '.join(args)} exited with {proc.code}")

    workload.prepare(work, seed, run_pgm)
    commands = workload.commands()

    reps = []  # per repetition: {"dir", "procs", "traced_dir", "traced", "spans"}
    measure_start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        index = len(reps)
        rep_dir = work / f"rep{index}"
        rep_dir.mkdir()
        rep = {"dir": rep_dir, "procs": [run(pgm + list(c.args), rep_dir) for c in commands]}
        if trace:
            traced_dir = work / f"rep{index}t"
            traced_dir.mkdir()
            rep["traced_dir"] = traced_dir
            rep["traced"] = []
            rep["spans"] = []
            for i, c in enumerate(commands):
                spans = traced_dir / f"spans{i}.jsonl"
                argv = [sys.executable, str(BENCH / "traced.py"), str(spans), *c.args]
                rep["traced"].append(run(argv, traced_dir))
                rep["spans"].append(spans)
        reps.append(rep)
        now = time.perf_counter()
        if len(reps) >= workload.min_reps and (
            now - measure_start >= seconds or now - started + (now - rep_start) > RUN_BUDGET
        ):
            break

    # Set-up probes run after the timed repetitions, whose first outputs
    # they may load (a trained model).
    setup_walls = []
    if not trace:
        probe_dir = work / "probe"
        probe_dir.mkdir()
        for _ in range(SETUP_PROBES):
            proc = run([sys.executable, str(BENCH / "setup_probe.py"), *workload.setup_inputs()], probe_dir)
            if proc.code != 0:
                raise Failed(f"set-up probe exited with {proc.code}")
            setup_walls.append(proc.wall)

    # Correctness gate, outside the timed region. The workload's check runs on
    # the first repetition whose commands all exited 0; a later repetition
    # with byte-identical outputs shares its verdict, any other is checked
    # in full and its differing outputs fail.
    failures = []
    attempted = failed = 0
    reference = None  # (output digests, check result) of the first full check
    outcomes = [(rep["dir"], rep["procs"]) for rep in reps]
    if trace:
        outcomes += [(rep["traced_dir"], rep["traced"]) for rep in reps]
    for rep_dir, procs in outcomes:
        digests = {
            name: _digest(rep_dir / name)
            for command in commands
            for name in command.outputs
            if (rep_dir / name).is_file()
        }
        if reference is not None and digests == reference[0]:
            checked = reference[1]
        else:
            checked = safe_check(workload, work, rep_dir, commands)
            if reference is None and all(proc.code == 0 for proc in procs):
                reference = (digests, checked)
        first = reference[0] if reference is not None else digests
        for command, proc in zip(commands, procs):
            problems = []
            if proc.code != 0:
                problems.append(f"exited with code {proc.code}")
            else:
                problems += checked.get(command.label, [])
                problems += [
                    f"{name} differs from the first repetition's"
                    for name in command.outputs
                    if name in digests and digests[name] != first.get(name)
                ]
            attempted += 1
            if problems:
                failed += 1
                failures += [f"{rep_dir.name}/{command.label}: {p}" for p in problems]

    walls = [sum(p.wall for p in rep["procs"]) for rep in reps]
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "reps": len(reps),
        "rep_walls": walls,
        "setup_walls": setup_walls,
        "commands": [["pgm", *c.args] for c in commands],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures,
    }
    rates = {}
    for rep in reps:
        by_label = {c.label: p.wall for c, p in zip(commands, rep["procs"])}
        for name, (value, unit) in workload.rates(by_label).items():
            rates.setdefault(name, (unit, []))[1].append(value)
    record["rates"] = {
        name: {"value": statistics.median(values), "unit": unit}
        for name, (unit, values) in rates.items()
    }
    if trace:
        traced_walls = [sum(p.wall for p in rep["traced"]) for rep in reps]
        overhead = statistics.median(traced_walls) / statistics.median(walls) - 1.0
        per_rep = []
        for rep in reps:
            sums = {}
            for spans in rep["spans"]:
                if spans.is_file():
                    for key, value in tracer.span_sums(tracer.read_spans(spans)).items():
                        sums[key] = sums.get(key, 0.0) + value
            per_rep.append(tracer.layer_metrics(sums, effective_workers(workload), overhead))
        metrics = {
            name: {"value": statistics.median(m[name] for m in per_rep), "unit": unit}
            for name, unit in tracer.PER_LAYER
        }
    else:
        # Each repetition's wall time is the sum over its commands and its
        # peak RSS the largest over them; the run reports their medians.
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": statistics.median(max(p.rss_mb for p in rep["procs"]) for rep in reps),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    record["metrics"] = metrics
    return record


def print_record(record: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"workload {record['workload']} seed {record['seed']} ({mode}, {record['reps']} reps)")
    print(f"  why: {record['why']}")
    for command in record["commands"]:
        print("  command: " + " ".join(command))
    for name, metric in {**record["metrics"], **record["rates"]}.items():
        print(f"  {name:32s} {metric['value']:.6g} {metric['unit']}")
    print(
        f"  {'fail_ratio':32s} {record['fail_ratio']:.6g} ratio "
        f"({record['failed']}/{record['attempted']} commands)"
    )
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print("  environment: " + json.dumps(record["environment"], sort_keys=True))


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workload_names))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "pgmclassifier" / "cli.py").is_file():
        print(f"error: program source {SRC / 'pgmclassifier'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import workloads

    defined = workloads()
    args = parse_args(argv, defined)
    workload = defined[args.workload]
    env = environment(workload)
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        record = run_workload(workload, args.seed, args.seconds, bool(args.trace), work)
    except Failed as exc:
        print(f"error: {exc}; logs in {work / 'logs'}", file=sys.stderr)
        return 1
    shutil.rmtree(work)
    record["environment"] = env
    print_record(record)
    results = WORK_ROOT / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    summary = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
