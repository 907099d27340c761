"""Run one ``repro.cli`` command with the benchmark's boundaries traced.

    python3 perfbench/cli_child.py SPANS_OUT ARGS...

Installs the wrappers of ``tracer.py`` in this process, calls
``repro.cli.main(ARGS)`` and writes the recorded spans and counters to
SPANS_OUT as one JSON object, so the benchmark can merge them into the
parent's trace.  Exits with the command's exit code.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        with open(spans_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.state(), handle)


if __name__ == "__main__":
    sys.exit(main())
