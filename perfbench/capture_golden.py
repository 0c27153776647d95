#!/usr/bin/env python3
"""Write perfbench/golden/: the exact stdout of every `coxcodes verify` run
that the sweep and transport workloads make.

    python3 perfbench/capture_golden.py

Capture only from a commit whose reports are known to be right: the
benchmark counts any byte that differs from these files as a failure.
"""

from __future__ import annotations

import sys
import time

import run


def main() -> int:
    env = run.cli_env()
    run.GOLDEN.mkdir(exist_ok=True)
    for checks in run.VERIFY_WORKLOADS.values():
        for check, n in checks:
            op = run.VerifyOp(check, n, b"")
            latency, code, out = run.run_cli(op.argv, env, time.perf_counter() + 600)
            if code != 0:
                print(f"{' '.join(op.argv)} exited {code}; nothing written", file=sys.stderr)
                return 1
            run.golden_path(check, n).write_bytes(out)
            print(f"{check} n={n}: {len(out)} bytes, {latency:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
