"""`python -m sftkit` with the benchmark's tracer installed in the process.

Usage: python3 bench/cli_traced.py TRACE_OUT.json <sftkit arguments...>

The traced cli_cold run launches each command through this file; the trace
is written to TRACE_OUT.json for the parent benchmark process to merge.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402


def main() -> int:
    out = Path(sys.argv[1])
    t = tracer.Tracer()
    t.install()
    from sftkit import cli

    t.enabled = True
    try:
        return cli.main(sys.argv[2:])
    finally:
        t.enabled = False
        t.uninstall()
        out.write_text(json.dumps(t.dump()), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
