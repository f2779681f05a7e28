"""Run every workload untraced and traced, and print every metric.

Each run is a fresh `bench/run.py` process, so peak memory and caches are
per workload.  Exits non-zero if any run fails a check.

    python3 bench/report.py [--seed N] [--seconds S]
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import inputs  # noqa: E402
import run  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    all_ok = True
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE, text=True)
            # run.py exits non-zero on any failed check; its JSON line is for machines.
            print("\n".join(line for line in proc.stdout.splitlines() if not line.startswith("{")))
            if proc.returncode != 0:
                print(f"# FAILED: {workload} trace {trace} (exit code {proc.returncode})")
                all_ok = False
            print()
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
