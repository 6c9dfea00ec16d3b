"""Run one `ualie` command with its layers traced or its field operations counted.

    PYTHONPATH=src python3 perfbench/cli_child.py trace|count OUT.json ARGS...

Standard output and the exit code are those of ``ualie ARGS...``; the spans
(``trace``) or the field-operation count (``count``) go to OUT.json.
"""

import json
import sys

import ualie.cli

import tracer


def main():
    mode, out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    probe = tracer.Tracer() if mode == "trace" else tracer.FieldOpCounter()
    probe.install()
    try:
        code = ualie.cli.main(argv)
    finally:
        probe.remove()
        with open(out, "w") as fh:
            json.dump(probe.spans if mode == "trace" else probe.count, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
