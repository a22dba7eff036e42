"""Record the exact reference outputs of every job any seed can produce.

Run from the repository root on the commit whose outputs are the reference:

    PYTHONPATH=src python3 perfbench/record_reference.py [JOB_ID_PREFIX ...]

With prefixes, only matching jobs (and the jobs whose output they consume)
run, and their entries replace those in the existing file.  Each job runs once; its exit code and the fields `checks.fields` names are
written to perfbench/reference.json.  Validity and self-check failures are
printed (and kept out of nothing: the reference records what the program
printed, the gate reports the failure on every run).
"""

import json
import sys
from pathlib import Path

import checks
from corpus import all_jobs, all_polys
from worker import WORK, Runner

OUT = Path(__file__).resolve().parent / "reference.json"


def main():
    prefixes = tuple(sys.argv[1:])
    jobs = all_jobs()
    polys = all_polys()
    runner = Runner(polys, WORK / "reference")
    done = {}
    reference = json.loads(OUT.read_text()) if prefixes else {}
    reference = {key: entry for key, entry in reference.items() if key in jobs}
    for job in jobs.values():
        if prefixes and not job.id.startswith(prefixes) and not any(
                other.after == job.id and other.id.startswith(prefixes)
                for other in jobs.values()):
            continue
        upstream = done.get(job.after)
        outcome = runner.run(job, upstream)
        done[job.id] = outcome
        reasons = checks.check(job, outcome, None, polys[job.poly], upstream)
        entry = {"rc": outcome.rc}
        if outcome.out is not None and outcome.error is None:
            exact, approx = checks.fields(job, outcome.out)
            entry["exact"], entry["approx"] = exact, approx
        reference[job.id] = entry
        status = "ok" if not reasons else "FAIL " + "; ".join(reasons)
        print(f"{outcome.wall_s:8.3f}s  {job.id}  rc={outcome.rc}  {status}", file=sys.stderr,
              flush=True)
    OUT.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
