"""Record the result digests the study workloads are checked against.

Run from the root of a checkout whose results are known to be right::

    PYTHONPATH=src python3 e2ebench/record_digests.py [--workload NAME]

For every pool entry of every study workload this runs one unit and writes
its digest to ``e2ebench/digests.json``.  Re-record only when a change is
*meant* to alter results; a perf-only change must reproduce these digests.
"""

from __future__ import annotations

import argparse
import json

import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.STUDY_WORKLOADS))
    args = parser.parse_args()
    recorded = (
        workloads.load_digests() if workloads.DIGEST_FILE.exists() else {}
    )
    names = [args.workload] if args.workload else list(workloads.STUDY_WORKLOADS)
    for name in names:
        workload = workloads.STUDY_WORKLOADS[name](seed=0)
        workload.setup()
        try:
            recorded[name] = [
                workload.unit_digest(
                    workload.run_unit(workloads.pool_seed(name, index))[0]
                )
                for index in range(workloads.POOL_SIZE)
            ]
        finally:
            workload.teardown()
        workloads.DIGEST_FILE.write_text(json.dumps(recorded, indent=1) + "\n")
        print(f"{name}: {workloads.POOL_SIZE} digests recorded", flush=True)


if __name__ == "__main__":
    main()
