#!/usr/bin/env python3
"""Record the default-seed reference outputs that run.py compares against.

    python3 perfbench/record_reference.py [--workload NAME ...]

Run from the root of a checkout.  For each workload it sends the first
REFERENCE_REQUESTS requests of the default seed through one worker, checks
them intrinsically, and writes their summaries (checks.Checker.summary) to
perfbench/reference/<workload>.json.  Each count is about twice what one
run completes at the commit that recorded it; requests past the end are
checked intrinsically only.  Re-record only when an output is meant to
change, and say so in CHANGES.md.
"""

import argparse
import json
import shutil
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS

REFERENCE_REQUESTS = {"analyze": 500, "construct": 400, "bounds-sweep": 900, "curves": 400}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    ref_dir = run.BENCH / "reference"
    ref_dir.mkdir(exist_ok=True)
    for workload in args.workload or WORKLOADS:
        workdir = run.ROOT / ".perfbench_work" / f"reference-{workload}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            count = REFERENCE_REQUESTS[workload]
            _, records = run._worker(workload, DEFAULT_SEED, workdir, "reference",
                                     "--requests", str(count), timeout=1200)
            _, reqs, _ = run._split(records)
            checker = run.Checker()
            report: list[str] = []
            if run._judge(checker, None, reqs, report):
                print("\n".join(report), file=sys.stderr)
                return 1
            summaries = [checker.summary(r, r["stdout"]) for r in reqs]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = ref_dir / f"{workload}.json"
        path.write_text(json.dumps({"seed": DEFAULT_SEED, "summaries": summaries},
                                   separators=(",", ":")) + "\n", encoding="utf-8")
        print(f"wrote {len(summaries)} summaries to {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
