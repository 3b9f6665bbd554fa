"""Run one ``pgm`` command in-process with span wrappers installed.

Usage: ``python traced.py SPANS_FILE PGM_ARGS...`` with the package on
``PYTHONPATH``. The command runs through
``pgmclassifier.cli.main(PGM_ARGS, standalone_mode=False)`` under a
``cli.main`` span; the spans are written to SPANS_FILE as JSON lines when
the command ends, and the process exits with the command's exit code.
"""

import sys

import click

import pgmclassifier
import pgmclassifier.cli
from tracer import Tracer


def main(argv) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install(pgmclassifier)
    command = tracer.wrap(
        "cli.main",
        lambda: pgmclassifier.cli.main(args, standalone_mode=False, prog_name="pgm"),
    )
    code = 0
    try:
        command()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
