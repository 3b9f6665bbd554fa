"""Set-up probe: import the CLI and load a workload's inputs, then stop.

Usage: ``python setup_probe.py KIND=PATH...`` with the package on
``PYTHONPATH``; KIND is ``dataset``, ``splits`` (checked against the dataset
loaded before it) or ``model``. It makes the same ``dataio`` calls the
commands make before their first fit or score.
"""

import sys

import pgmclassifier.cli as cli


def main(argv) -> int:
    dataset = None
    for item in argv:
        kind, _, path = item.partition("=")
        if kind == "dataset":
            dataset = cli.load_dataset(path)
        elif kind == "splits":
            cli.check_splits(cli.read_splits(path), dataset)
        elif kind == "model":
            cli.load_model(path)
        else:
            raise SystemExit(f"unknown input kind {kind!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
