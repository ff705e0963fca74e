"""Compare two results written by ``run.py --out``.

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit code 2) when the environment stamps differ in CPU model,
CPU count or Python version: timings from such runs are not comparable.
Otherwise prints, per workload and metric, both values and the change
relative to the base's magnitude (so a negative base keeps the sign).
"""

from __future__ import annotations

import argparse
import json
import sys

STAMP_KEYS = ("cpu_model", "nproc", "python")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    differ = [
        f"{key} {base['stamp'].get(key)!r} vs {new['stamp'].get(key)!r}"
        for key in STAMP_KEYS
        if base["stamp"].get(key) != new["stamp"].get(key)
    ]
    if differ:
        print("refusing to compare results from different environments: "
              + "; ".join(differ), file=sys.stderr)
        return 2
    new_results = {r["workload"]: r for r in new["results"]}
    for result in base["results"]:
        other = new_results.get(result["workload"])
        if other is None:
            print(f"{result['workload']}: missing from {args.new}")
            continue
        for section in ("metrics", "layers"):
            theirs = other.get(section) or {}
            for key, value in (result.get(section) or {}).items():
                if key not in theirs:
                    continue
                change = (
                    f"{(theirs[key] - value) / abs(value):+9.2%}"
                    if value else ""
                )
                print(f"{result['workload']:<13s} {key:<26s} "
                      f"{value:>16.6f} {theirs[key]:>16.6f} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
