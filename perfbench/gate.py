"""Correctness gate applied to every report the benchmark produces.

A report passes the gate when

* every pass flag is true and ``surfspec.verify.recompute_pass``
  reproduces it from the recorded numbers;
* every check that has a reference (``reference.json``, recorded at the
  parent commit by calling each check's public ``surfspec.verify``
  function on its own) is present, with equal integers, booleans and
  strings, and eigenvalues and margins within 1e-9 of the reference,
  relative to the check's largest lambda1 (and to the eigenvalue itself
  when that is larger).  The scale keeps the Neumann zero mode, which
  is zero only to rounding, from being judged relative to itself.

A check whose reference recorded an exception (the README config's
``union`` today) has no numbers to compare; it is judged by its pass
flag and ``recompute_pass`` alone, and a run that raises exactly that
exception is a failed run, not a wrong one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

REFERENCE_PATH = Path(__file__).with_name("reference.json")
SOLVER_RTOL = 1e-9  # the solver tolerance the ROADMAP fixes for eigenvalues

EIGENVALUE_KEYS = frozenset(
    {"lambda1", "mu", "mu_target", "value", "extrapolated",
     "oneform_positive", "scalar_union"}
)
MARGIN_KEYS = frozenset(
    {"margin", "extrapolated_margin", "strict_margin", "min_margin"}
)


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE_PATH.read_text())["workloads"][workload]


def expected_errors(reference: dict) -> List[str]:
    """Exceptions the parent commit raised for this workload's checks."""
    return [c["error"] for c in reference["checks"].values() if "error" in c]


def _largest_lambda1(q) -> float:
    found = []

    def walk(node):
        if isinstance(node, dict):
            if isinstance(node.get("lambda1"), float):
                found.append(node["lambda1"])
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(q)
    return max(found, default=1.0)


def compare(got, ref, path: str, key: str, scale: float, problems: List[str]):
    """Append a line to ``problems`` for each recorded number off its reference."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            problems.append(f"{path}: fields differ from the reference")
            return
        for k in ref:
            compare(got[k], ref[k], f"{path}/{k}", k, scale, problems)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{path}: length differs from the reference")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            compare(g, r, f"{path}[{i}]", key, scale, problems)
    elif isinstance(ref, float) and isinstance(got, (int, float)):
        if key in EIGENVALUE_KEYS:
            tol = SOLVER_RTOL * max(abs(ref), scale)
        elif key in MARGIN_KEYS:
            tol = SOLVER_RTOL * scale
        else:
            return  # derived numbers are not part of the gate
        if not abs(got - ref) <= tol:
            problems.append(f"{path}: {got!r} vs reference {ref!r} (tol {tol:.3g})")
    elif got != ref or type(got) is not type(ref):
        problems.append(f"{path}: {got!r} vs reference {ref!r}")


def check_report(report: dict, reference: dict, recompute_pass) -> List[str]:
    """Every problem the gate finds in one ``surfspec run`` report."""
    problems = []
    seen = set()
    for chk in report["checks"]:
        name = chk["check"]
        seen.add(name)
        if not chk["passed"]:
            problems.append(f"{name}: pass flag is false")
        if recompute_pass(chk) != chk["passed"]:
            problems.append(f"{name}: recompute_pass disagrees with the pass flag")
        ref = reference["checks"].get(name)
        if ref is None:
            problems.append(f"{name}: not in the reference")
        elif "error" not in ref:
            if chk["passed"] != ref["passed"]:
                problems.append(f"{name}: pass flag differs from the reference")
            q = ref["quantities"]
            compare(chk["quantities"], q, name, "", _largest_lambda1(q), problems)
    for name, ref in reference["checks"].items():
        if "error" not in ref and name not in seen:
            problems.append(f"{name}: missing from the report")
    return problems
