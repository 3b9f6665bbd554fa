"""The benchmark's own check, at tiny sizes.

Usage, from the repository root::

    python3 perfbench/selfcheck.py

It checks that

* every workload runs at tiny sizes, untraced and traced, without a failed
  command, and emits exactly the metrics ``BENCHMARK.json`` lists for that
  mode, each with its unit;
* the gates report a deliberately corrupted output as a failure: one
  predictions row altered, one report value changed, one model entry changed;
* without the program source the benchmark exits non-zero and prints no
  result.

It prints one line per problem and exits 1 if there is any.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SEED = 5


def _edit_prediction(path: Path, column: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    cells = lines[3].rstrip("\n").split(",")
    cells[column] = edit(cells[column])
    lines[3] = ",".join(cells) + "\n"
    path.write_text("".join(lines), encoding="utf-8")


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text(encoding="utf-8"))
    edit(obj)
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")


def _bump(table: dict, key) -> None:
    table[key] += 1e-6


#: workload -> [(what is corrupted, command label, output file, corruption)]
CORRUPTIONS = {
    "protocol_paper": [
        (
            "a split's test accuracy",
            "gridsearch",
            "report.json",
            lambda p: _edit_json(p, lambda r: _bump(r["splits"][0]["test_metrics"], "accuracy")),
        ),
        (
            "the aggregate test macro AUC",
            "gridsearch",
            "report.json",
            lambda p: _edit_json(p, lambda r: _bump(r["aggregate"]["test"]["mean"], "macro_auc")),
        ),
    ],
    "protocol_blobs": [
        (
            "a split's test accuracy",
            "gridsearch",
            "report.json",
            lambda p: _edit_json(p, lambda r: _bump(r["splits"][0]["test_metrics"], "accuracy")),
        ),
    ],
    "score_bulk": [
        (
            "one predictions score",
            "predict",
            "predictions.csv",
            lambda p: _edit_prediction(p, 2, lambda v: repr(float(v) + 1e-6)),
        ),
        (
            "one predicted label",
            "predict",
            "predictions.csv",
            lambda p: _edit_prediction(
                p, 1, lambda v: "relapse" if v == "control" else "control"
            ),
        ),
    ],
    "train_dense": [
        (
            "one effect entry of the model",
            "train",
            "model.json",
            lambda p: _edit_json(p, lambda m: _bump(m["payload"]["povm"][0][0], 0)),
        ),
    ],
}


def check_workload(workload, spec) -> list:
    problems = []
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for trace in (False, True):
        work = Path(tempfile.mkdtemp(prefix=f"selfcheck-{workload.name}-", dir=run.WORK_ROOT))
        try:
            record = run.run_workload(workload, SEED, 0.0, trace, work)
            got = {name: metric["unit"] for name, metric in record["metrics"].items()}
            if got != expected[trace]:
                problems.append(
                    f"{workload.name} trace={int(trace)}: metrics {sorted(got.items())} "
                    f"are not those of BENCHMARK.json {sorted(expected[trace].items())}"
                )
            problems += [f"{workload.name} trace={int(trace)}: {f}" for f in record["failures"]]
            if trace:
                continue
            rep = work / "rep0"
            for what, label, name, corrupt in CORRUPTIONS[workload.name]:
                original = (rep / name).read_bytes()
                corrupt(rep / name)
                if not workload.check(work, rep).get(label):
                    problems.append(f"{workload.name}: a change to {what} was not caught")
                (rep / name).write_bytes(original)
        finally:
            shutil.rmtree(work)
    return problems


def check_without_source() -> list:
    """The benchmark must refuse to run where only its own files exist."""
    bare = Path(tempfile.mkdtemp(prefix="selfcheck-bare-", dir=run.WORK_ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / run.BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "train_dense",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    lines = out.stdout.strip().splitlines()
    if out.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"without src the benchmark exited {out.returncode} with output {lines[-1:]}"]
    return []


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run.WORK_ROOT.mkdir(exist_ok=True)
    tiny = workloads(tiny=True)
    problems = []
    unknown = sorted({w["name"] for w in spec["workloads"]} - set(tiny))
    if unknown:
        problems.append(f"BENCHMARK.json names undefined workloads {unknown}")
    for workload in tiny.values():
        problems += check_workload(workload, spec)
    problems += check_without_source()
    for problem in problems:
        print(problem)
    print(f"selfcheck: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
