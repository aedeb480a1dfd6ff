#!/usr/bin/env python3
"""Record the stdout sha256 of every workload command into golden.json.

    python3 perfbench/record_golden.py

Run it only at a commit whose output is known good: every later benchmark run
compares each invocation's stdout against these digests.  A command is
recorded only if it exits 0 and its output passes the structural checks.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

import run as bench


def main() -> int:
    workdir = Path(tempfile.mkdtemp(dir=bench.ROOT, prefix=".perfbench-"))
    signal.signal(signal.SIGALRM, bench._alarm)
    golden: dict[str, dict[str, str]] = {}
    try:
        for size in ("full", "small"):
            for name, workload in bench.WORKLOADS.items():
                run = bench.Run(workdir=workdir, deadline=time.monotonic() + 600)
                args = workload.args[size]
                call = run.grassmap(args)
                digest = hashlib.sha256(call.stdout).hexdigest()
                problems = bench.problems_of(args, call, digest)
                if problems:
                    print(f"{size} {name}: " + "; ".join(problems), file=sys.stderr)
                    return 1
                golden.setdefault(size, {})[name] = digest
                print(f"{size} {name}: {digest}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (bench.HERE / "golden.json").write_text(json.dumps(golden, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
