"""Spectral comparison toolkit for surfaces given by chart metrics.

The package checks a Dirichlet-vs-Neumann eigenvalue comparison on
two-dimensional chart domains: symbolic metric handling and curvature
screening (:mod:`surfspec.geometry`), periodic-aware triangulations
(:mod:`surfspec.mesh`), finite element operators for functions and
1-forms (:mod:`surfspec.assembly`), deterministic eigensolvers
(:mod:`surfspec.eigen`), the named verification checks
(:mod:`surfspec.verify`), and a JSON-config command line front end
(:mod:`surfspec.cli`).

Importing the package sets ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` to 1 unless they are already set.  Every dense
product here is small or tall and skinny (LOBPCG's 3 x 3 Gram matrices
and projections onto the pairs already found, Lanczos bases, dense
solves up to 250 unknowns), where a second BLAS thread only spins, and
one thread makes the nested solves' round-off independent of the core
count.  The default applies only when surfspec
is imported before numpy; child processes inherit the variables.
``THREAD_SETTINGS`` records the values seen here, and reports carry it
under ``metadata``.
"""

import os
import sys

# before the imports below load numpy, so that its BLAS reads them
THREAD_SETTINGS = {"numpy_imported_first": "numpy" in sys.modules}
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    THREAD_SETTINGS[_name] = os.environ.setdefault(_name, "1")

from .assembly import (
    AssemblyError,
    OneFormOperators,
    ScalarOperators,
    apply_dirichlet,
    assemble_oneform,
    assemble_scalar,
    dirichlet_form_quadrature,
)
from .eigen import (
    EigenError,
    SolverOptions,
    SpectralResult,
    cluster_multiplicities,
    solve_oneform,
    solve_smallest,
)
from .expr import Expr, ExprError, ParseError, differentiate, parse
from .geometry import (
    ChartMetric,
    GeometryError,
    GridSpec,
    builtin_metric,
    check_unit_gradient,
    curvature_condition_check,
    gaussian_curvature_expr,
    laplacian_expr,
    margin_expr,
)
from .mesh import DomainSpec, Mesh, MeshError, export_off, refine, triangulate
from .verify import (
    VerificationReport,
    VerifyError,
    convergence_study,
    curvature_check,
    cylinder_oracle,
    hodge_dimension_check,
    lemma_check,
    oracle_check,
    recompute_pass,
    spectrum_union_check,
    verify_inequality,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "THREAD_SETTINGS",
    "AssemblyError",
    "ChartMetric",
    "DomainSpec",
    "EigenError",
    "Expr",
    "ExprError",
    "GeometryError",
    "GridSpec",
    "Mesh",
    "MeshError",
    "OneFormOperators",
    "ParseError",
    "ScalarOperators",
    "SolverOptions",
    "SpectralResult",
    "VerificationReport",
    "VerifyError",
    "apply_dirichlet",
    "assemble_oneform",
    "assemble_scalar",
    "builtin_metric",
    "check_unit_gradient",
    "cluster_multiplicities",
    "convergence_study",
    "curvature_check",
    "curvature_condition_check",
    "cylinder_oracle",
    "differentiate",
    "dirichlet_form_quadrature",
    "export_off",
    "gaussian_curvature_expr",
    "hodge_dimension_check",
    "laplacian_expr",
    "lemma_check",
    "margin_expr",
    "oracle_check",
    "parse",
    "recompute_pass",
    "refine",
    "solve_oneform",
    "solve_smallest",
    "spectrum_union_check",
    "triangulate",
    "verify_inequality",
]
