"""Run one ``unlearn-forge`` CLI command in this fresh process, as the
console script does:

    python3 perfbench/cli_child.py <command> [flags...]

When ``PERFBENCH_TRACE`` names a file, the command runs traced and its
spans are written there when it ends.
"""

import os
import sys


def main():
    trace_path = os.environ.get("PERFBENCH_TRACE")
    if not trace_path:
        from unlearn_forge.cli import cli

        return cli(sys.argv[1:])
    from tracer import Tracer, write_traces

    tracer = Tracer().install()
    from unlearn_forge import cli as cli_module

    code = cli_module.cli(sys.argv[1:])
    write_traces(trace_path, [({"process": "cli", "command": sys.argv[1]}, tracer.spans)])
    return code


if __name__ == "__main__":
    sys.exit(main())
