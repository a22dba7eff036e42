"""The names the benchmark's tracer patches and reads still exist and record work.

`perfbench/spans.py` wraps library functions by name; a missing name makes
every traced benchmark run fail.  This runs a small slice of each workload
under the tracer and checks that every per-layer metric the benchmark
declares is reported, and that the spans it reads saw calls.
"""

import json
import sys
from pathlib import Path

import pytest

from conftest import diag_cubic
from cubicpoints import arch, cli, expsums, finitefield  # noqa: F401  (the tracer wraps cli.run)
from cubicpoints.generic import Poly

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from spans import Tracer

    tr = Tracer()
    try:
        tr.install()
        yield tr
    finally:  # a partial install is undone too, so later tests see the plain library
        tr.uninstall()
        sys.modules.pop("spans", None)


def test_tracer_installs_and_reports_every_declared_layer_metric(tracer):
    g = diag_cubic(3, const=-2)
    ctx = arch.find_x0(g.cubic_part(), 8, seed=0)
    arch.count_N(g, ctx)
    expsums.box_sum_diagnostic(g, 1, 9, (0, 0, 0), 1)  # sums its box through complete_sums
    expsums.complete_sum(expsums.ExpSumSpec(g, 1, 9, (1, 0, 0)))
    fld = finitefield.ExtField(5, 2)
    finitefield.count_zeros_system([Poly(2, {(3, 0): 1, (1, 1): 1, (0, 3): 2})], fld)
    metrics = tracer.layer_metrics()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    end_to_end = {"trace.overhead_frac", "trace.span_coverage_min", "error_rate"}
    missing = [m["name"] for m in declared
               if m["name"] not in end_to_end and m["name"] not in metrics]
    assert missing == []
    for name in ("arch.find_x0", "arch.count_N", "expsums.box_sum_diagnostic",
                 "expsums.complete_sum", "finitefield.count_zeros_system",
                 "finitefield.ExtField.eval_poly_vec"):
        assert tracer.stats[name].calls > 0, name
    assert metrics["finitefield.ExtField.tables_built"][0] == 1
    assert metrics["arch.count_N.prefixes_per_s"][0] > 0
