"""Exact q-series and a numeric certification kernel for completed
(non-holomorphic) modular identities.

Layers, bottom up:

- ``core``: upper-half-plane points, unimodular matrices, branch-safe
  half-integer powers, the residual rule of every law, the NaN-safe
  worst residual, the lattice-sum truncation window, reports, samplers.
- ``exactq``: exact rational q-series, the partition rank table and its
  moments, classical expansions, the bivariate theta as an int64 array.
- ``special``: numeric kernels (theta, eta, weight-two Eisenstein, the
  eta multiplier, incomplete gamma of order -1/2, the weight-3/2 period
  integral, numeric lowering on one stencil call, the two laws).
- ``jets``: Taylor columns in z, triangle jets in (z, conj z) times a
  column, the period-sum jet, and the recombined rows of theta-power
  Taylor coefficients.
- ``appell``: the level-l Appell sum, its completion, and moment jets.
- ``rank``: completed rank-moment generating coefficients, their
  lowering, and the weight-3/2 assembly.
- ``joyce``: the completed lattice Lambert series of even weight and
  its bracket structure on the level-four group.
- ``harness``: the check catalog, deterministic sampling, suite runner.
"""

from .core import (DomainError, GEN_S, GEN_T, IDENTITY, Mobius, Report, Tau,
                   principal_halfpower, relative_residual)
from .exactq import (QSeries, RankTable, partition_count, partition_series,
                     rank_moment_series, rank_table)
from .harness import (CATALOG, CheckSpec, SuiteConfig, coverage_table,
                      report_fingerprint, run_suite)
from .special import (e2_value, eta_multiplier, eta_value, lowering_numeric,
                      theta_value)

__version__ = "0.1.0"

__all__ = [
    "CATALOG",
    "CheckSpec",
    "DomainError",
    "GEN_S",
    "GEN_T",
    "IDENTITY",
    "Mobius",
    "QSeries",
    "RankTable",
    "Report",
    "SuiteConfig",
    "Tau",
    "__version__",
    "coverage_table",
    "e2_value",
    "eta_multiplier",
    "eta_value",
    "lowering_numeric",
    "partition_count",
    "partition_series",
    "principal_halfpower",
    "rank_moment_series",
    "rank_table",
    "relative_residual",
    "report_fingerprint",
    "run_suite",
    "theta_value",
]
