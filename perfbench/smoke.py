"""Smoke tests of the benchmark itself: metric names and units, and the gate.

Run from the repository root (each test takes seconds):

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from corpus import all_polys, job_list  # noqa: E402
from worker import WORK, Runner  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "0",
           "--seconds", "0.1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _runner():
    polys = all_polys()
    return polys, Runner(polys, WORK / "smoke")


def _gate(job, outcome, polys, upstream=None):
    return checks.check(job, outcome, REFERENCE.get(job.id), polys[job.poly], upstream)


def test_end_to_end_metrics_printed_with_units():
    res = _result(_run_bench("--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_per_layer_metrics_printed_with_units():
    res = _result(_run_bench("--trace", "1"))
    assert res["correct"], res
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert res["metrics"]["trace.span_coverage_min"]["value"] >= 0.95
    assert res["metrics"]["cli.run.self_s"]["value"] > 0


def test_gate_passes_smoke_jobs_and_rejects_flipped_histogram_bin():
    polys, runner = _runner()
    job = next(j for j in job_list("smoke", 0) if j.id == "expsum:mixed2:q=5:r=0")
    outcome = runner.run(job)
    assert _gate(job, outcome, polys) == []
    tampered = copy.deepcopy(outcome)
    hist = tampered.out["histogram"]
    hist[0], hist[1] = hist[0] - 1, hist[1] + 1
    reasons = _gate(job, tampered, polys)
    assert any("histogram" in r for r in reasons), reasons


def test_gate_rejects_wrong_exit_code_and_verdict():
    polys, runner = _runner()
    job = next(j for j in job_list("smoke", 0) if j.kind == "cli.congruence")
    outcome = runner.run(job)
    assert _gate(job, outcome, polys) == []
    tampered = copy.deepcopy(outcome)
    tampered.rc = 3
    tampered.out["overall"] = "FAILS"
    assert len(_gate(job, tampered, polys)) == 2


def test_gate_rejects_changed_certificate_c():
    polys, runner = _runner()
    jobs = {j.id: j for j in job_list("slicing-induction", 0)}
    slice_job, verify_job = jobs["slice:seven:seed=0"], jobs["verify:seven:seed=0"]
    sliced = runner.run(slice_job)
    assert _gate(slice_job, sliced, polys) == []
    tampered = copy.deepcopy(sliced)
    tampered.out["c"] += 1
    tampered.text = json.dumps(tampered.out)
    assert any("congruence" in r for r in _gate(slice_job, tampered, polys))
    replay = runner.run(verify_job, tampered)
    reasons = _gate(verify_job, replay, polys, tampered)
    assert any("does not replay" in r for r in reasons), reasons


def test_count_N_oracle_catches_a_lost_zero():
    polys, runner = _runner()
    job = next(j for j in job_list("smoke", 0) if j.kind == "lib.count_N")
    outcome = runner.run(job)
    assert _gate(job, outcome, polys) == []
    tampered = copy.deepcopy(outcome)
    tampered.out["N"] *= 1 - 1e-6
    assert _gate(job, tampered, polys)


def test_exits_nonzero_without_the_program():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "expsum-sweep",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
