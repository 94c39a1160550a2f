#!/usr/bin/env python3
"""Peak-memory gate for one command.

Runs the command given after `--`, waits for it, and fails when it exits
non-zero or when its peak resident set reaches --max-mb. The peak is the
kernel's own high-water mark for the waited-for child (getrusage
RUSAGE_CHILDREN ru_maxrss), so no sampling can miss a short spike.

Meant for a traced thermctld run: a trace ring whose storage becomes
resident before its events land costs ~0.9 MB per node, and at 256 nodes
that reads hundreds of MB against a few tens for the data the run holds.

Not for sanitizer builds: ASan's shadow memory swamps any RSS bound.

Usage:
    tools/peak_rss_guard.py --max-mb 48 -- <command> [args...]

Exit status: 0 when the command succeeds under the bound within
TIMEOUT_S seconds, 1 otherwise.
"""

import argparse
import resource
import subprocess
import sys

TIMEOUT_S = 600


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-mb", type=float, required=True,
                        help="fail when the peak RSS is this many MB (10^6 B) or more")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the command to run, after --")
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given after --")

    try:
        status = subprocess.run(command, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"peak_rss_guard: command ran past {TIMEOUT_S} s", file=sys.stderr)
        return 1
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6
    print(f"peak_rss_guard: peak RSS {peak_mb:.1f} MB (bound {args.max_mb:.1f} MB), "
          f"exit status {status}")
    if status != 0:
        print("peak_rss_guard: FAIL: the command failed", file=sys.stderr)
        return 1
    if peak_mb >= args.max_mb:
        print("peak_rss_guard: FAIL: peak RSS at or over the bound", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
