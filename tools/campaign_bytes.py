"""Check that two stored campaigns hold the same bytes.

Every record of both campaign files under ``campaigns/`` is compared as
canonical JSON after dropping the fields that are not results: ``host``
(wall-clock readings), ``campaign`` (the run's name) and ``provenance``
(the git SHA and interpreter version that wrote it, which differ when a
baseline was recorded at another commit).  Exits 1 on the first
differing record.

Usage::

    python tools/campaign_bytes.py ci-run ci-run-jobs2
    python tools/campaign_bytes.py baseline-micro ci-run
"""

import argparse
import json
import os
import sys

DROPPED = ("host", "campaign", "provenance")


def stripped(path):
    """One canonical JSON line per record, without the :data:`DROPPED` fields."""
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    for record in records:
        for field in DROPPED:
            record.pop(field, None)
    return [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("campaign_a")
    parser.add_argument("campaign_b")
    args = parser.parse_args(argv)
    a, b = (
        stripped(os.path.join("campaigns", f"{name}.jsonl"))
        for name in (args.campaign_a, args.campaign_b)
    )
    if len(a) != len(b):
        print(f"{args.campaign_a} has {len(a)} records, {args.campaign_b} {len(b)}")
        return 1
    for index, (line_a, line_b) in enumerate(zip(a, b)):
        if line_a != line_b:
            print(
                f"record {index} differs between "
                f"{args.campaign_a} and {args.campaign_b}"
            )
            return 1
    print(
        f"{args.campaign_a} and {args.campaign_b} match byte for byte "
        f"without {', '.join(DROPPED)}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
