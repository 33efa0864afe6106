"""Command-line entry point: ``python -m repro.bench [--check] [PATH]``.

Without ``--check``: measure every row of the gate table, print it, and
write ``PATH`` (default ``./BENCH_engine.json``) whole.  With ``--check``:
measure, print the verdicts against the committed ``PATH`` and leave it
untouched.  Exit codes: 0 when no key FAILs, 1 when one does, and 2 when
``PATH`` is missing or corrupt or was measured at another geometry.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import (
    BENCH_FILENAME,
    format_table,
    gate,
    load_bench_report,
    measure_rows,
    write_bench_report,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Measure the bench gate table and write it, or with "
                    "--check gate it against the committed file.",
    )
    parser.add_argument("path", nargs="?", default=BENCH_FILENAME,
                        help=f"measurements file (default ./{BENCH_FILENAME})")
    parser.add_argument("--check", action="store_true",
                        help="gate against PATH instead of rewriting it")
    args = parser.parse_args(argv)

    committed = None
    if args.check:
        try:
            committed = load_bench_report(args.path)
        except (FileNotFoundError, ValueError) as exc:
            print(f"bench check: {exc}", file=sys.stderr)
            return 2
    measured = measure_rows()
    lines = gate(measured, committed if args.check else measured)
    print(format_table(lines))
    if not args.check:
        print(f"wrote {write_bench_report(measured, args.path)} "
              f"({os.cpu_count() or 1} cpus)")
    failed = sum(state == "FAIL" for *_, state in lines)
    unresolved = sum(state == "unresolved" for *_, state in lines)
    print(f"\nbench {'check' if args.check else 'gate'}: "
          f"{'FAILED' if failed else 'OK'} "
          f"({failed} FAIL, {unresolved} unresolved, {len(lines)} keys)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
