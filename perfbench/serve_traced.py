"""Launch ``repro serve`` with every layer boundary traced; write spans at exit.

Usage::

    PYTHONPATH=src:. python3 perfbench/serve_traced.py --spans OUT.json serve [serve args]

The service, api, incremental, durability, kernel, reduction and search
functions are wrapped in this process before the CLI entry point runs; when
the server drains on SIGINT/SIGTERM the spans recorded in memory are written
to ``OUT.json``.
"""

from __future__ import annotations

import sys

from perfbench.trace import Tracer
from repro.cli import main as cli_main


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--spans":
        print("usage: serve_traced.py --spans OUT.json serve [serve args]", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[1], argv[2:]
    tracer = Tracer().install(service=True)
    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
