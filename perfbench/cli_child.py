"""Run one pisotcoding CLI command with layer spans on and save the spans.

    python3 perfbench/cli_child.py SPANS.json [pisotcoding arguments...]

Stdout, stderr and the exit code are the command's own; SPANS.json gets the
per-name span totals and where each wrapped name was rebound.
"""

import json
import sys

from layers import Tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin_op()
    from pisotcoding import cli

    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code
    finally:
        with open(out_path, "w") as fh:
            json.dump({"snapshot": tracer.snapshot(), "bindings": tracer.bindings}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
