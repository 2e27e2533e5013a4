#!/usr/bin/env python3
"""Record the expected answer of every pool instance into bench/expected.json.

    python3 bench/record.py [WORKLOAD ...]

Runs each instance of each named workload's pool once (all workloads by
default) and stores, per instance key, the digest of its generated input and
of its canonical answer.  Run it only at a commit whose answers are trusted:
benchmark runs count any later difference as a failed instance.  Instances
whose independent checks fail are reported and not recorded.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    path = BENCH / "expected.json"
    recorded = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    bad = 0
    for name in argv or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        answers = {}
        for inst in wl.build_pool():
            out = wl.execute(inst)
            problems = wl.check(inst, out)
            if problems:
                bad += 1
                print(f"{name} {inst.key}: {'; '.join(problems)}", file=sys.stderr)
                continue
            answers[inst.key] = [inst.input_digest(), workloads.digest(wl.canon(inst, out))]
        recorded[name] = answers
        print(f"{name}: {len(answers)} answers recorded")
    path.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
