"""The summary of ``tools/pairs.py``, on fixed numbers (it runs no
benchmark), and the per-call records of ``tools/peaks.py``."""

import importlib.util
import math
from pathlib import Path

from surfspec import verify


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).parents[1] / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs, peaks = _tool("pairs"), _tool("peaks")


def test_summary_of_paired_runs():
    # BENCH_relative_stop.json's halfplane run_s at seed 3
    parent = [0.6848, 0.6201, 0.595, 0.6428, 0.6705,
              0.6302, 0.6043, 0.6299, 0.6199, 0.6185]
    change = [0.5427, 0.6428, 0.5102, 0.554, 0.5075,
              0.4899, 0.4898, 0.5428, 0.5168, 0.5045]
    assert pairs.summarize(parent, change) == {
        "parent": parent,
        "change": change,
        "parent_median": 0.625,
        "change_median": 0.5135,
        "parent_quartiles": [0.6149, 0.6497],
        "change_quartiles": [0.5009, 0.5456],
        "change_wins": 9,
        "parent_wins": 1,
        "pairs": 10,
    }


def test_summary_counts_a_tie_for_neither_side():
    summary = pairs.summarize([143.25, 143.5, 143.0], [133.125, 143.5, 143.75])
    assert (summary["change_wins"], summary["parent_wins"]) == (1, 1)
    assert summary["parent_median"] == 143.25
    assert summary["change_quartiles"] == [133.125, 143.75]


def test_peaks_records_every_stage_and_restores_the_names(capsys):
    originals = {name: getattr(verify, name) for name in peaks.STAGES}
    records = peaks.trace({
        "spec_version": 1,
        "metric": {"family": "hyperbolic_half_plane"},
        "distance_function": "-log(y)",
        "domain": {"shape": "rectangle", "extents": [0.0, 1.0, 1.0, math.e],
                   "resolution": 4},
        "checks": ["lemma", "union"],
        "check_params": {"lemma": {"level": 1}},
    })
    assert {r["function"] for r in records} == set(peaks.STAGES)
    for record in records:
        size = "dim" if record["function"] == "solve_smallest" else "vertices"
        assert set(record) == {"function", size, "held", "peak", "kept"}
        for key in (size, "held", "peak", "kept"):
            assert type(record[key]) is int and record[key] >= 0
    assert len(capsys.readouterr().out.splitlines()) == len(records)
    assert all(getattr(verify, n) is f for n, f in originals.items())
