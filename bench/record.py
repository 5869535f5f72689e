"""Record the output digests the benchmark's correctness gate compares with.

Usage: python3 bench/record.py

Runs every job any workload seed can produce (jobs.every_job) and writes
bench/digests.json.  Run it only on a commit whose outputs are known good;
the digests are the reference for every later commit.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import child
import jobs as J


def main() -> int:
    from delaunay_dilation import cli

    digests = {}
    with tempfile.TemporaryDirectory(dir=child.ROOT) as tmp:
        work = Path(tmp)
        for job in J.every_job():
            seconds, rc, stdout, error = child.run_job(cli, job, work)
            if error or (rc != 0 and job.argv[0] != "verify"):
                print(f"{job.key}: exit {rc}\n{error or stdout}", file=sys.stderr)
                return 1
            digests[job.key] = J.digest(job, rc, stdout, work)
            print(f"{seconds:8.3f}s rc={rc} {job.key}", file=sys.stderr)
    J.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
