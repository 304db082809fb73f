#!/usr/bin/env python3
"""Run one command and fail when it fails or its peak RSS is too high.

    python3 tools/check_peak_rss.py --max-rss-mb 1000 --out run.json -- \\
        ./build/src/tools/necpt-run --config "Nested ECPTs" --app GUPS \\
        --scale 1 --warmup 1 --measure 1 --json

The command's standard output goes to --out. Peak RSS is the largest
resident set of the command, resource.getrusage(RUSAGE_CHILDREN)
.ru_maxrss (KiB on Linux). Prints the peak, the wall time and, when
the last line of the output is a JSON object with "host_time" (under
--json, necpt-run prints that object as its whole standard output and
its text summary on standard error), its per-phase host seconds. Exit
0 when the command exits 0 within the bound, 1 otherwise.
"""

import argparse
import json
import resource
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--max-rss-mb", type=float, required=True,
                        help="fail above this peak resident set, in MB")
    parser.add_argument("--out", required=True,
                        help="file that receives the command's stdout")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the command, after --")
    args = parser.parse_args()
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")

    start = time.monotonic()
    with open(args.out, "w") as out:
        status = subprocess.run(command, stdout=out).returncode
    wall_s = time.monotonic() - start
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    print(f"exit status {status}, wall {wall_s:.2f} s, "
          f"peak RSS {peak_mb:.1f} MB (bound {args.max_rss_mb:.1f} MB)")
    try:
        with open(args.out) as f:
            lines = f.read().splitlines()
        host_time = json.loads(lines[-1]).get("host_time")
    except (OSError, IndexError, ValueError, AttributeError):
        host_time = None
    if host_time:
        print("host seconds: " + ", ".join(
            f"{phase} {seconds:.3f}" for phase, seconds in host_time.items()))

    if status != 0:
        print("FAIL: the command failed", file=sys.stderr)
        return 1
    if peak_mb > args.max_rss_mb:
        print(f"FAIL: peak RSS {peak_mb:.1f} MB exceeds "
              f"{args.max_rss_mb:.1f} MB", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
