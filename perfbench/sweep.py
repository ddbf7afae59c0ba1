"""One-off rate sweep of the job-stream workload (not part of the gate).

Streams the same seeded job mix at several arrival rates and reports,
per rate, the latency median and p90, how late the generator ran, and
whether the backlog grew (the last third of the jobs waited at least
twice as long as the first third).  The answer is the highest rate whose
p90 stays within ``--p90-limit`` without a growing backlog.

Usage (from the root of a checkout)::

    python3 perfbench/sweep.py --seed 1 --rates 4,6,8,10,12,14
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rates", default="4,6,8,10,12,14")
    parser.add_argument("--p90-limit", type=float, default=0.5)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import JobStream

    work = ROOT / ".perfbench" / "sweep"
    rows = []
    for rate in (float(value) for value in args.rates.split(",")):
        shutil.rmtree(work, ignore_errors=True)
        workload = JobStream(args.seed, work, rate=rate)
        workload.prepare()
        records = workload.run(0.0)
        done = [record for record in records if record.error is None]
        waits = [record.latency for record in done]
        third = len(waits) // 3
        growing = (statistics.median(waits[-third:])
                   >= 2 * statistics.median(waits[:third]))
        p90 = statistics.quantiles(waits, n=10)[8]
        rows.append({
            "rate_jobs_per_s": rate, "jobs": len(records),
            "failed": len(records) - len(done),
            "mismatches": sum(1 for record in records if record.mismatch),
            "p50_s": statistics.median(waits), "p90_s": p90,
            "lateness_s": workload.lateness,
            "backlog_growing": growing,
            "meets_limit": p90 <= args.p90_limit and not growing
            and len(done) == len(records)})
        print(json.dumps(rows[-1]), flush=True)
    shutil.rmtree(work, ignore_errors=True)
    passing = [row["rate_jobs_per_s"] for row in rows if row["meets_limit"]]
    print(json.dumps({"p90_limit_s": args.p90_limit,
                      "highest_rate_meeting_limit":
                      max(passing) if passing else None}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
