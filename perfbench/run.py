"""Benchmark of cubicpoints: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload expsum-sweep --seed 1 --seconds 20 --trace 0

It runs the workload in one worker process (closed loop, one client,
single-threaded BLAS), which also times set-up in fresh processes started
between its jobs, checks every output, and prints a details line and then,
as the last stdout line, the result object
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  The exit code is 0 only
when every job passed the correctness gate.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from corpus import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170  # the whole run, set-up included
MIN_COVERAGE = 0.95


def worker_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def tail(times, passes):
    """(value, percentile): the highest percentile with at least ten samples a pass beyond it.

    `times` holds every execution of `passes` whole passes, so the percentile
    is that of one pass, whatever the number of passes.
    """
    ordered = sorted(times)
    if len(ordered) <= 10 * passes:
        return ordered[-1], 100.0
    i = len(ordered) - 11 * passes
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def environment(args):
    def version(cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        return out.stdout.strip() if out.returncode == 0 else "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        # a checkout without .git must not report the sha of a repository above it
        "git_sha": version(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else "unknown",
        "python": platform.python_version(),
        "numpy": version([sys.executable, "-c", "import numpy; print(numpy.__version__)"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {var: "1" for var in THREAD_VARS},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # "smoke" is the tiny job list the smoke tests run, not a benchmark workload
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("smoke",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cubicpoints" / "__init__.py").is_file():
        sys.exit(f"no cubicpoints sources under {ROOT / 'src'}")

    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.exit(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])

    jobs = report["jobs"]
    for job in jobs:
        if job["traced"] and job["coverage"] is not None and job["coverage"] < MIN_COVERAGE:
            job["reasons"].append(f"top-level spans cover only {job['coverage']:.1%} of the job")
    failed = [job for job in jobs if job["reasons"]]
    # job times: every untraced execution is one sample; passes: the median pass
    walls = [job["wall_s"] for job in jobs if not job["traced"]]
    untraced_jps = report["jobs_per_pass"] / statistics.median(report["untraced_pass_s"])
    tail_s, tail_pct = tail(walls, len(report["untraced_pass_s"]))
    error_rate = {"value": len(failed) / len(jobs), "unit": "fraction"}

    details = environment(args)
    details.update({
        "setup_samples_s": report["setup_samples_s"],
        "jobs_per_pass": report["jobs_per_pass"],
        "pass_s": report["untraced_pass_s"],
        "job_tail_percentile": tail_pct,
        "job_samples": len(walls),
        "failures": sorted({f"{job['id']}: {'; '.join(job['reasons'])}" for job in failed}),
        "error_rate": error_rate,
    })
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in report["layers"].items()}
        traced_jps = report["jobs_per_pass"] / statistics.median(report["traced_pass_s"])
        covers = [job["coverage"] for job in jobs if job["coverage"] is not None]
        metrics["trace.overhead_frac"] = {"value": 1 - traced_jps / untraced_jps,
                                          "unit": "fraction"}
        metrics["trace.span_coverage_min"] = {"value": min(covers, default=0.0), "unit": "fraction"}
        metrics["error_rate"] = error_rate
    else:
        metrics = {
            "setup_s": {"value": statistics.median(report["setup_samples_s"]), "unit": "s"},
            "jobs_per_s": {"value": untraced_jps, "unit": "jobs/s"},
            "job_p50_s": {"value": statistics.median(walls), "unit": "s"},
            "job_tail_s": {"value": tail_s, "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": not failed, "attempted": len(jobs), "failed": len(failed),
                      "metrics": metrics}))
    for line in details["failures"]:
        print(f"gate: {line}", file=sys.stderr)
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
