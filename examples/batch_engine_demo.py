"""The batch kernel and the persistent compiled-artifact cache.

Runs the seeded baseline campaign matrix — every cell through the
block kernel that compiles each program once and executes whole
struct-of-arrays packet blocks — and prints the canonical report JSON
plus the compile-cache counters. Run it twice: the first (cold) pass
compiles and stores every program x target artifact; the second (warm)
pass resolves them from ``REPRO_COMPILE_CACHE`` (default
``~/.cache/repro-target``) without recompiling, while the report bytes
stay identical.

``--expect-hits`` turns the warm-path claim into an exit code for CI:
the run fails unless at least one artifact was served from the disk
cache and none had to be stored.
"""

import argparse
import sys

from repro.netdebug.campaign import run_campaign
from repro.netdebug.diffing import baseline_matrix


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--expect-hits", action="store_true",
                        help="fail unless the artifact cache served "
                             "hits and stored nothing (CI warm-path "
                             "check)")
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
    # canonical bytes (CI cmp's a cold and a warm capture).
    cache = report.meta["compile_cache"]
    print(f"\ncompile cache: {cache['hits']} hits, "
          f"{cache['misses']} misses, {cache['stores']} stores, "
          f"{cache['memory_hits']} in-memory hits",
          file=sys.stderr)

    if args.expect_hits:
        if cache["hits"] == 0:
            raise SystemExit(
                "expected warm cache hits but every artifact missed — "
                "is REPRO_COMPILE_CACHE pointing at the cold run's "
                "directory?"
            )
        if cache["stores"] > 0:
            raise SystemExit(
                f"warm run stored {cache['stores']} artifacts — the "
                "cache key is unstable across identical runs"
            )
        print("warm-path check passed: cache hits > 0, stores == 0",
              file=sys.stderr)


if __name__ == "__main__":
    main()
