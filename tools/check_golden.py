#!/usr/bin/env python3
"""Compare a table1 --stats-json file against the committed golden networks.

The golden file pins, for every table1 record of the default pipeline
(ODC on), the circuit, flow, network_hash, luts, clb_greedy and
clb_matching. A change that is meant to keep every network bit-identical
must pass this check; a change that alters networks on purpose regenerates
the file with --update and says so in its description.

    python3 tools/check_golden.py build/stats.json tests/golden/table1_default.json
    python3 tools/check_golden.py --update build/stats.json tests/golden/table1_default.json

where build/stats.json comes from `./bench/table1_clb_counts --stats-json
stats.json` (any --jobs value). Exits non-zero listing every differing field.
"""

import argparse
import json
import sys

KEYS = ["circuit", "flow", "network_hash", "luts", "clb_greedy", "clb_matching"]


def golden_records(stats_path):
    with open(stats_path) as f:
        runs = json.load(f)["runs"]
    return [{k: r[k] for k in KEYS} for r in runs]


def write_golden(records, path):
    # One record per line so a regenerated file diffs row by row.
    lines = ",\n".join("  " + json.dumps(r) for r in records)
    with open(path, "w") as f:
        f.write("[\n" + lines + "\n]\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("stats", help="table1_clb_counts --stats-json output")
    ap.add_argument("golden", help="committed golden file")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden file from the stats file")
    args = ap.parse_args()

    got = golden_records(args.stats)
    if args.update:
        write_golden(got, args.golden)
        print(f"wrote {len(got)} records to {args.golden}")
        return 0

    with open(args.golden) as f:
        want = json.load(f)
    if len(got) != len(want):
        print(f"record counts differ: {len(got)} in {args.stats}, "
              f"{len(want)} in {args.golden}")
        return 1
    bad = 0
    for g, w in zip(got, want):
        for k in KEYS:
            if g[k] != w[k]:
                print(f"{w['circuit']} ({w['flow']}): {k} {g[k]} != golden {w[k]}")
                bad += 1
    if bad:
        print(f"{bad} fields differ from {args.golden}; if the change is meant "
              "to alter networks, regenerate it with --update (docs/PASSES.md)")
        return 1
    print(f"{len(got)} records match {args.golden}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
