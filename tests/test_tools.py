"""The summary of ``tools/pairs.py``, on fixed numbers; it runs no benchmark."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).parents[1] / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)


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
