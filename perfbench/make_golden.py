#!/usr/bin/env python3
"""Record the golden output of every operation a workload can run.

    python3 perfbench/make_golden.py corpus sparse_windows dense_cells

Run from the repository root, at the commit whose answers are the
reference.  For the corpus the output is each claim's status and detail;
for a CLI query it is stdout and the exit code.  The time each operation
took is kept too: run.py derives the operation's deadline from it.
Answers must stay bit-for-bit the same, so these files change only when
a workload's inputs change.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import run
import workloads


def record(workload: str) -> dict:
    _, cli, ops = run.setup_once(workload, seed=0)
    runner = run.Runner(workload, cli)
    if workload == "corpus":
        items = [(str(i), claim) for i, claim in enumerate(ops)]
    else:
        items = [(workloads.key(q), q) for group in workloads.pool(workload) for q in group]
    out = {}
    for key, op in items:
        started = perf_counter()
        got = runner(op)
        got["seconds"] = round(perf_counter() - started, 4)
        out[key] = got
        print(f"{got['seconds']:8.3f}s  {key[:100]}", file=sys.stderr, flush=True)
    return out


def main(names) -> int:
    for workload in names or workloads.WORKLOADS:
        ops = record(workload)
        path = run.GOLDEN / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"workload": workload, "ops": ops}, indent=1) + "\n")
        print(f"wrote {len(ops)} golden outputs to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
