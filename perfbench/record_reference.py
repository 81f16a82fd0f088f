"""Record ``reference.json``: per-check results of every workload.

Each check is computed by calling its public ``surfspec.verify`` function
on its own, not through ``surfspec.cli.run``, so a check that raises (the
README config's ``union``) does not hide the checks after it.  Run it
from the repository root at the commit the benchmark compares against::

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from surfspec import cli, verify  # noqa: E402

from gate import REFERENCE_PATH  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

REFERENCE_SEED = 42  # the solver's default seed; the gate holds for any seed


def _call(check, p, metric, domain, distance, options):
    if check == "inequality":
        return verify.verify_inequality(
            domain, metric, distance, levels=p["levels"], options=options
        )
    if check == "lemma":
        return verify.lemma_check(
            domain, metric, distance, level=p["level"], options=options
        )
    if check == "union":
        return verify.spectrum_union_check(
            domain, metric, level=p["level"], count=p["count"], options=options
        )
    if check == "hodge-dims":
        return verify.hodge_dimension_check(verify.triangulate(domain))
    if check == "curvature":
        return verify.curvature_check(domain, metric, distance, samples=p["samples"])
    if check == "convergence":
        return verify.convergence_study(
            domain, metric, bc=p["bc"], levels=p["levels"], options=options
        )
    if check == "oracle":
        return verify.oracle_check(p["max_index"])
    raise KeyError(check)


# Report names of the config's check names.
REPORT_NAME = {"union": "spectrum-union", "hodge-dims": "hodge-dimension"}


def record() -> dict:
    out = {}
    for name in WORKLOADS:
        cfg = cli.validate_config(make_config(name, REFERENCE_SEED))
        objects = cli.build_objects(cfg)
        checks = {}
        for check in cfg["checks"]:
            label = REPORT_NAME.get(check, check)
            try:
                rep = _call(check, cfg["check_params"][check], *objects).to_dict()
            except verify.VerifyError as exc:
                checks[label] = {"error": f"{type(exc).__name__}: {exc}"}
            else:
                checks[label] = {"passed": rep["passed"], "quantities": rep["quantities"]}
            print(f"{name:14s} {label:16s} {checks[label].get('passed', 'raised')}")
        out[name] = {"seed": REFERENCE_SEED, "checks": checks}
    return {"workloads": out}


if __name__ == "__main__":
    REFERENCE_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"written {REFERENCE_PATH}")
