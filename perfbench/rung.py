"""One rung of the reach ladder, run in its own process by ``workload.py``.

    python3 perfbench/rung.py --input CI.json --seed N

Loads a PointedCI instance and runs one exact, reduced, sampled regularity
check on it through the library, with the variable budget raised to the
instance's size (the CLI's default budget refuses reduced M >= 10).
Prints the report of the single sampled form as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from fanoci.regularity import PointedCI, sampled_regularity_check


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    with open(args.input, encoding="utf-8") as handle:
        ci = PointedCI.from_json(json.load(handle))
    report = sampled_regularity_check(
        ci, samples=1, seed=args.seed, reduce=True, max_variables=ci.degrees.ambient
    )
    print(json.dumps(report.reports[0].to_json(), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
