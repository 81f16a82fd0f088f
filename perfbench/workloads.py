"""The benchmark's ``surfspec run`` configs.

Extents, resolutions and check parameters are fixed.  The seed is the
only input that varies: it goes into ``solver.seed``, the start vector
of the shift-invert Lanczos solves, and nowhere else.
"""

from __future__ import annotations

import copy
import math

# The README's flagship config, verbatim.  It exits 2 at ``union`` today
# (3136 edge dofs exceed the dense-path cap 2000).
README = {
    "spec_version": 1,
    "metric": {"family": "euclidean"},
    "distance_function": "x",
    "domain": {
        "shape": "rectangle",
        "extents": [0.0, 3.141592653589793, 0.0, 3.141592653589793],
        "resolution": 32,
    },
    "checks": ["inequality", "lemma", "union", "hodge-dims",
               "curvature", "convergence", "oracle"],
    "output": {"report": "report.json"},
}

# One check, three sparse levels (4,067 / 16,005 / 63,497 vertices).
HALFPLANE = {
    "spec_version": 1,
    "metric": {"family": "hyperbolic_half_plane"},
    "distance_function": "-log(y)",
    "domain": {
        "shape": "rectangle",
        "extents": [0.0, 1.0, 1.0, math.e],
        "resolution": 48,
    },
    "checks": ["inequality"],
    "check_params": {"inequality": {"levels": 3}},
    "output": {"report": "report.json"},
}

# Four checks that rebuild the same levels on a seamed band with b1 = 1
# (1,056 / 4,160 / 16,512 vertices; level 0 dense, levels 1-2 sparse).
CUSP_BAND = {
    "spec_version": 1,
    "metric": {
        "family": "warped",
        "params": {"phi": "exp(r)", "r_range": [-1.0, 0.0]},
    },
    "distance_function": "r",
    "domain": {
        "shape": "periodic_band",
        "extents": [-1.0, 0.0],
        "resolution": 32,
    },
    "checks": ["inequality", "lemma", "curvature", "convergence"],
    "check_params": {"convergence": {"bc": "neumann", "levels": 3}},
    "output": {"report": "report.json"},
}

# The half-plane metric in a sheared chart: g12 != 0 makes the symbolic
# trees large, K = -1 and f = -log(y) stays unit-gradient.  Every solve
# is dense (476 / 1,815 vertices) and assembly uses the degree-5 rule.
SHEAR_GENERAL = {
    "spec_version": 1,
    "metric": {
        "family": "general",
        "params": {
            "g11": "1/y^2",
            "g12": "a/y^2",
            "g22": "(1+a^2)/y^2",
            "constants": {"a": 0.5},
            "vars": ["x", "y"],
            "validity": [-10.0, 10.0, 0.05, 10.0],
        },
    },
    "distance_function": "-log(y)",
    "domain": {
        "shape": "rectangle",
        "extents": [0.0, 1.0, 1.0, math.e],
        "resolution": 16,
    },
    "solver": {"quadrature": "degree5"},
    "checks": ["curvature", "hodge-dims", "inequality"],
    "check_params": {
        "curvature": {"samples": 512},
        "inequality": {"levels": 2},
    },
    "output": {"report": "report.json"},
}

WORKLOADS = {
    "readme": README,
    "halfplane": HALFPLANE,
    "cusp-band": CUSP_BAND,
    "shear-general": SHEAR_GENERAL,
}


def make_config(name: str, seed: int) -> dict:
    """The workload's run config with ``solver.seed`` set from ``seed``.

    The schema wants a non-negative seed, so the driver's seed is folded
    into [0, 2**32).
    """
    cfg = copy.deepcopy(WORKLOADS[name])
    cfg["solver"] = {**cfg.get("solver", {}), "seed": seed % 2**32}
    return cfg
