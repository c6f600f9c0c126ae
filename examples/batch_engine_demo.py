"""The batch kernel and the persistent compiled-artifact cache.

Runs the seeded baseline campaign matrix — every cell through the
block kernel that compiles each program once and executes whole
struct-of-arrays packet blocks — and prints the canonical report JSON
plus the compile-cache counters. Run it twice: the first (cold) pass
compiles and stores every program x target artifact; the second (warm)
pass resolves them from ``REPRO_COMPILE_CACHE`` (default
``~/.cache/repro-target``) without recompiling, while the report bytes
stay identical.
"""

import argparse
import sys

from repro.netdebug.campaign import run_campaign
from repro.netdebug.diffing import baseline_matrix


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true",
                        help="print the canonical report JSON instead "
                             "of the summary table")
    # parse_known_args: stay runnable under test harnesses (runpy) that
    # leave their own flags in sys.argv.
    args, _ = parser.parse_known_args()

    report = run_campaign(baseline_matrix(), name="batch-demo")

    if args.json:
        print(report.to_json())
    else:
        print(report.summary())

    # Counters go to stderr so `--json > report.json` captures only the
    # canonical bytes, and a cold and a warm capture can be cmp'd.
    cache = report.meta["compile_cache"]
    print(f"\ncompile cache: {cache['hits']} hits, "
          f"{cache['misses']} misses, {cache['stores']} stores, "
          f"{cache['memory_hits']} in-memory hits",
          file=sys.stderr)


if __name__ == "__main__":
    main()
