"""Run one ``tripwell`` CLI command with the layer tracer installed.

Usage: python3 perfbench/cli_child.py SPANS_FILE COMMAND [ARGS...]

The traced ``cli`` workload starts this in place of ``python -m tripwell.cli``
and reads the spans it writes to SPANS_FILE when the command ends.
"""

import sys

import tripwell.cli
from spans import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return tripwell.cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
