"""The configs of ``gallery/``, one per surface of the paper, run through
the command line as ``surfspec run`` runs them."""

import json
import time
from pathlib import Path

import pytest

from surfspec.cli import main

GALLERY = Path(__file__).parents[1] / "gallery"

# config -> (exit code, b1, the inequality check's refusal or None); the
# config schema admits no extra keys, so the expectations live here
EXPECTED = {
    "flat-cylinder": (0, 1, None),
    "cusp": (0, 1, None),
    "collar": (0, 1, None),
    "funnel": (0, 1, None),
    "catenoid": (0, 1, None),
    # the margin (c^2 - r^2) / (r^2 + c^2)^2 is negative for |r| > c
    "catenoid-outside": (1, None, "curvature condition fails on the enlarged region"),
    "helicoid": (0, 0, None),
    "helicoid-outside": (1, None, "curvature condition fails on the enlarged region"),
    "hyperbolic-rectangle": (0, 0, None),
    "euclidean-square": (0, 0, None),
    "euclidean-disk": (0, 0, None),
}

BUDGET_SECONDS = 10.0  # CPU seconds for the whole gallery


@pytest.fixture(scope="module")
def spent():
    """CPU seconds of each gallery run so far in this session."""
    return []


def test_every_gallery_config_has_an_expectation():
    assert sorted(p.stem for p in GALLERY.glob("*.json")) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_gallery_config_runs(name, tmp_path, spent):
    code_want, betti1, refusal = EXPECTED[name]
    report_path = tmp_path / "report.json"
    began = time.process_time()
    code = main(["run", str(GALLERY / f"{name}.json"), "--report", str(report_path)])
    spent.append(time.process_time() - began)
    assert code == code_want
    (check,) = json.loads(report_path.read_text())["checks"]
    q = check["quantities"]
    assert check["passed"] == (code_want == 0)
    if refusal is None:
        assert q["betti1"] == betti1 and len(q["levels"]) == 3
    else:
        assert q["refused"] and q["reason"] == refusal
    if name == "euclidean-square":
        # lambda1 - mu_3 = 2 - 1 on [0, pi]^2
        assert abs(q["strict_margin"] - 1.0) < 1e-5
    assert sum(spent) <= BUDGET_SECONDS
