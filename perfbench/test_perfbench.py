"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q

The byte-identity test runs every workload twice in fresh processes and
takes about a minute on a 2-core machine.
"""

import copy
import json
import sys
import tempfile
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from surfspec.verify import recompute_pass  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402


def span(name, start, end, parent):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "run": "t", "attrs": {}}


def test_self_time_of_synthetic_nested_spans():
    spans = [
        span("root", 0.0, 10.0, None),
        span("a", 1.0, 4.0, 0),
        span("a.inner", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
        span("b.inner", 5.0, 9.0, 3),  # covers its parent entirely
        span("later", 11.0, 12.5, None),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 0.0, 4.0, 1.5]


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", 0.0, 10.0, None), span("a", 1.0, 6.0, 0),
             span("b", 4.0, 8.0, 0), span("c", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_tracer_charges_its_bookkeeping_to_no_layer():
    ticks = iter(range(100))
    tracer = Tracer("t", clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def middle():
        return tracer.call("leaf", leaf, (), {}) + tracer.call("leaf", leaf, (), {})

    assert tracer.call("middle", middle, (), {}) == 2
    spans = tracer.to_dicts()
    # each call reads the clock on entry, before and after the callee, on exit
    assert [(s["name"], s["outer_start"], s["start"], s["end"], s["outer_end"], s["parent"])
            for s in spans] == [
        ("middle", 0.0, 1.0, 10.0, 11.0, None),
        ("leaf", 2.0, 3.0, 4.0, 5.0, 0),
        ("leaf", 6.0, 7.0, 8.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 1.0, 1.0]


def test_gate_tolerances():
    ref = gate.load_reference("cusp-band")
    report = {"checks": [
        {"check": name, "passed": c["passed"], "quantities": copy.deepcopy(c["quantities"])}
        for name, c in ref["checks"].items()
    ]}
    assert gate.check_report(report, ref, recompute_pass) == []
    (ineq,) = [c for c in report["checks"] if c["check"] == "inequality"]
    rows = ineq["quantities"]["levels"]
    rows[1]["lambda1"] *= 1 + 1e-11
    assert gate.check_report(report, ref, recompute_pass) == []
    rows[1]["lambda1"] *= 1 + 1e-8
    rows[0]["margin"] += 1e-6
    problems = gate.check_report(report, ref, recompute_pass)
    assert len(problems) == 2
    assert any("/lambda1" in p for p in problems) and any("/margin" in p for p in problems)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_report_matches_untraced_outside_metadata(workload):
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        config = tmp / "config.json"
        config.write_text(json.dumps(make_config(workload, 7)))
        deadline = time.monotonic() + 170
        plain = run.spawn(workload, config, tmp, 0, deadline)
        traced = run.spawn(workload, config, tmp, 1, deadline, traced=True)
        assert plain["problems"] == [] and traced["problems"] == []
        assert run.payload(traced) == run.payload(plain) is not None
        metrics = layer_metrics(traced["spans"])
        assert metrics["verify.checks_run"] >= 1


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == LAYER_METRICS
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
