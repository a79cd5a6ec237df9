"""Record the digests that run.py checks every output against.

    python3 perfbench/record_digests.py

Run it only on the commit that defines the benchmark.  The digests pin that
commit's report bytes (JSON and table) and library results for every item
and every scenario seed; a later change must reproduce them, never
re-record them to pass.
"""

import json

from run import DIGESTS, source_revision
from worker import run_item
from workloads import SEED_SPACE, WORKLOADS, seeded


def main():
    digests = {}
    for entries in WORKLOADS.values():
        for entry in entries:
            for seed in range(SEED_SPACE):
                item = seeded(entry, seed)
                if item in digests:
                    continue
                result = run_item(item)
                if result["wrong"]:
                    raise SystemExit(f"{item}: wrong library results {result['wrong']}")
                digests[item] = result["outputs"]
    DIGESTS.write_text(json.dumps({"recorded_from": source_revision(), "digests": digests},
                                  indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(digests)} items to {DIGESTS.name}")


if __name__ == "__main__":
    main()
