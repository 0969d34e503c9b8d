"""Run the operad-forge CLI in this interpreter with every public function traced.

Usage, with the checkout's src/ on PYTHONPATH:

    python3 perfbench/traced_cli.py TRACE_FILE CLI_ARG...

The whole CLI invocation is one job.  The trace is written to TRACE_FILE
when the command ends, and the process exits with the command's exit code.
"""

import sys

import operad_forge.cli as cli
from tracer import Tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    sid = tracer.begin_job(0)
    try:
        return cli.run(argv)
    finally:
        tracer.end_job(sid)
        tracer.write(path)


if __name__ == "__main__":
    sys.exit(main())
