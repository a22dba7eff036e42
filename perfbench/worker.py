"""One workload in one process: set up, run timed passes, gate, report.

Started by run.py with the thread variables and PYTHONPATH already set;
prints one JSON object with every job record on its last stdout line.
With --setup-only it stops after set-up: during untraced passes the worker
starts such processes every few seconds to time set-up alone.
"""

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(__file__).resolve().parent / ".work"
SETUP_SAMPLES = 10  # set-up samples an untraced run aims for, spread over --seconds


@dataclass
class Outcome:
    rc: object  # exit code of a CLI job, 0 for a library call, None if it raised
    out: object  # parsed JSON output (dict) or None
    text: str  # raw stdout of a CLI job, JSON dump of a library result
    error: object  # repr of an exception that escaped, else None
    wall_s: float


class Runner:
    """Runs jobs against the corpus files; only the call itself is timed."""

    def __init__(self, polys, workdir):
        import cubicpoints
        from corpus import write_corpus

        if Path(cubicpoints.__file__).resolve().parent != ROOT / "src" / "cubicpoints":
            raise SystemExit(f"cubicpoints imported from {cubicpoints.__file__}, "
                             f"not from {ROOT / 'src'}")
        self.polys = polys
        self.workdir = workdir
        self.paths = write_corpus(polys, workdir)

    def _load(self, name):
        from cubicpoints import CubicPolynomial

        return CubicPolynomial.from_json_dict(json.loads(self.paths[name].read_text()))

    def prepare(self, job, upstream):
        """A zero-argument callable for the timed region, and its output kind."""
        from cubicpoints import arch, cli, expsums, slicing

        if job.kind == "cli.verify":
            cert = self.workdir / "cert.json"
            cert.write_text(upstream.text)
            argv = ["slice", "-f", str(self.paths[job.poly]), "--verify", str(cert), *job.args]
            return lambda: cli.run(argv), "cli"
        if job.kind.startswith("cli."):
            argv = [job.kind[4:], "-f", str(self.paths[job.poly]), *job.args]
            return lambda: cli.run(argv), "cli"
        if job.kind == "lib.count_N":
            g = self._load(job.poly)
            (P,) = job.args

            def call():
                ctx = arch.find_x0(g.cubic_part(), P, seed=0)
                return {"N": arch.count_N(g, ctx), "center": [float(c) for c in ctx.center],
                        "P0": ctx.P0, "R": ctx.truncation_radius}
            return call, "lib"
        if job.kind == "lib.box_sum":
            g = self._load(job.poly)
            q, V, v0 = job.args
            return lambda: expsums.box_sum_diagnostic(g, 1, q, v0, V).to_json_dict(), "lib"
        if job.kind == "lib.slice_count_identity":
            result = slicing.SliceCertificate.from_json_dict(upstream.out).result
            (p,) = job.args

            def call():
                out = slicing.slice_count_identity(result, p).to_json_dict()
                out["result"] = result.to_json_dict()
                return out
            return call, "lib"
        raise ValueError(f"unknown job kind {job.kind!r}")

    def run(self, job, upstream=None):
        if job.after is not None and (upstream is None or upstream.rc != 0 or upstream.out is None):
            return Outcome(None, None, "", f"input job {job.after} failed", 0.0)
        call, style = self.prepare(job, upstream)
        stdout, stderr = io.StringIO(), io.StringIO()
        rc, result, error = None, None, None
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # a job that raises is a failed job, not a crash
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
        if error is not None:
            return Outcome(None, None, "", error, wall)
        if style == "cli":
            rc, text = result, stdout.getvalue()
        else:
            rc, text = 0, json.dumps(result, sort_keys=True)
        try:
            out = json.loads(text.strip().splitlines()[-1]) if text.strip() else None
        except json.JSONDecodeError:
            out = None
        return Outcome(rc, out, text, None, wall)


class SetupSampler:
    """Times fresh worker processes that stop after set-up, between jobs.

    A sample is taken before a job when `interval_s` has passed since the
    last one, so the samples are spread over the run and meet the same load
    of the shared host as the jobs do, not only the load of its first
    seconds.  `spent_s` is the wall time spent sampling, which is not
    counted in the pass times.
    """

    def __init__(self, argv, interval_s):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"]
        self.interval_s = interval_s
        self.samples = []
        self.spent_s = 0.0
        self._last = None

    def maybe_sample(self):
        start = time.perf_counter()
        if self._last is not None and start - self._last < self.interval_s:
            return
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True)
        end = time.perf_counter()
        if proc.returncode != 0:
            raise SystemExit(f"set-up failed:\n{proc.stderr}")
        self.samples.append(end - start)
        self.spent_s += end - start
        self._last = end


def run_pass(runner, jobs, tracer=None, sampler=None):
    """Each job once, in order.

    Returns [(job, outcome, top-level span seconds or None, upstream outcome)].
    """
    done = {}
    records = []
    for job in jobs:
        if sampler:
            sampler.maybe_sample()
        before = tracer.top_s if tracer else 0.0
        upstream = done.get(job.after)
        outcome = runner.run(job, upstream)
        done[job.id] = outcome
        records.append((job, outcome, (tracer.top_s - before) if tracer else None, upstream))
    return records


def run_passes(runner, jobs, budget_s, tracer=None, sampler=None):
    """Whole passes while the next one is expected to end within budget_s (at least one).

    Returns the records of every pass and the wall time of each pass, set-up
    sampling not included.
    """
    records, pass_s = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        spent = sampler.spent_s if sampler else 0.0
        records += run_pass(runner, jobs, tracer, sampler)
        wall = time.perf_counter() - t0
        pass_s.append(wall - ((sampler.spent_s - spent) if sampler else 0.0))
        if time.perf_counter() - start + wall > budget_s:
            return records, pass_s


def gate(records, polys):
    """Check every record; identical outputs of one job are checked once.

    The reference is loaded only now: its objects would otherwise sit in the
    timed process and lengthen its garbage collections.
    """
    import checks

    reference = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())
    cache = {}
    verdicts = []
    for job, outcome, _, upstream in records:
        key = (job.id, outcome.rc, outcome.text, outcome.error)
        if key not in cache:
            missing = [] if job.id in reference else ["no reference recorded for this job"]
            cache[key] = missing + checks.check(job, outcome, reference.get(job.id),
                                                polys[job.poly], upstream)
        verdicts.append(cache[key])
    return verdicts


def setup(workload, seed, workdir):
    """Everything before the first timed job: imports, corpus and warm-up calls."""
    import cubicpoints  # noqa: F401
    from corpus import all_polys, job_list, warmup_list

    jobs = job_list(workload, seed)
    every = all_polys()
    polys = {name: every[name] for name in sorted({job.poly for job in jobs})}
    runner = Runner(polys, workdir)
    for job in warmup_list(workload, seed):
        outcome = runner.run(job)
        if outcome.error is not None:
            raise SystemExit(f"warm-up call {job.id} failed: {outcome.error}")
    return jobs, runner


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    # a set-up sample writes its corpus apart from the running worker's
    workdir = WORK / (f"{args.workload}.setup" if args.setup_only else args.workload)
    jobs, runner = setup(args.workload, args.seed, workdir)
    if args.setup_only:
        return
    report = {"jobs_per_pass": len(jobs)}
    budget = args.seconds / 2 if args.trace else args.seconds
    sampler = None
    if not args.trace:
        # at least a second apart, so a very short run takes a few samples, not one a job
        sampler = SetupSampler(["--workload", args.workload, "--seed", str(args.seed),
                                "--seconds", str(args.seconds)],
                               max(1.0, args.seconds / SETUP_SAMPLES))
    records, report["untraced_pass_s"] = run_passes(runner, jobs, budget, sampler=sampler)
    report["setup_samples_s"] = sampler.samples if sampler else []
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced, report["traced_pass_s"] = run_passes(runner, jobs, budget, tracer)
        finally:
            tracer.uninstall()
        report["layers"] = {k: list(v) for k, v in tracer.layer_metrics().items()}
        records += traced
    # before the gate, whose oracles allocate memory of their own
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdicts = gate(records, runner.polys)
    report["jobs"] = [
        {"id": job.id, "kind": job.kind, "wall_s": outcome.wall_s, "traced": cover is not None,
         "coverage": (cover / outcome.wall_s if cover is not None and outcome.wall_s > 0 else None),
         "reasons": reasons}
        for (job, outcome, cover, _), reasons in zip(records, verdicts)]
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
