"""Run one solaraudit CLI command with span wrappers installed.

    python3 benchmarks/launch.py <command> [--key value ...]

Behaves like the `solaraudit` console script (same stdout, stderr and exit
code) and then writes one more stderr line, SPANS_MARKER followed by the
tracer's JSON export. The caller must put the checkout's `src/` on
PYTHONPATH.
"""

import json
import sys

from tracing import Tracer

SPANS_MARKER = "@@benchmark-spans "


def main(argv):
    from solaraudit import cli

    tracer = Tracer().install()
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()
    sys.stdout.flush()
    sys.stderr.write(SPANS_MARKER + json.dumps(tracer.export()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
