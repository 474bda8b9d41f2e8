"""Exact q-series and a numeric certification kernel for completed
(non-holomorphic) modular identities.

Layers, bottom up:

- ``core``: upper-half-plane points, unimodular matrices, branch-safe
  half-integer powers, compensated sums, the lattice-sum truncation
  window, report records, samplers.
- ``exactq``: exact rational q-series, the partition rank table and its
  moments, classical expansions.
- ``special``: numeric kernels (theta, eta, weight-two Eisenstein, the
  eta multiplier, incomplete gamma, period integrals, numeric lowering).
- ``jets``: truncated two-variable Wirtinger jets at fixed tau and the
  generic completion of theta-power Taylor coefficients.
- ``appell``: the level-l Appell sum, its completion, and moment jets.
- ``rank``: completed rank-moment generating coefficients, their
  modular law, lowering, and the weight-3/2 assembly.
- ``joyce``: the completed lattice Lambert series of even weight and
  its bracket structure on the level-four group.
- ``harness``: the check catalog, deterministic sampling, suite runner.
"""

from .core import (DomainError, GEN_S, GEN_T, IDENTITY, Mobius, Report, Tau,
                   principal_halfpower, relative_residual)
from .exactq import (QSeries, RankTable, ZetaLaurent, partition_count,
                     partition_series, rank_moment_series, rank_table)
from .harness import (CATALOG, CheckSpec, SuiteConfig, coverage_table,
                      report_fingerprint, run_suite, sample_inputs)
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
    "ZetaLaurent",
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
    "sample_inputs",
    "theta_value",
]
