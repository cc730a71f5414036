"""Statistics and model fitting on top of the raw metrics.

The paper's claims are asymptotic ("Θ(1) throughput", "polylog(N+J) channel
accesses"); finite-size simulations can only exhibit shapes.  This subpackage
provides the tools the experiments use to turn measurements into
shape-verdicts:

* :mod:`repro.analysis.statistics` — Welch's t, Benjamini–Hochberg and
  quantiles over replicated runs;
* :mod:`repro.analysis.fitting` — least-squares fits of constant, log-power,
  power-law, and linear scaling models with model selection, used to decide
  whether a measured curve grows polylogarithmically or polynomially;
* :mod:`repro.analysis.tables` — plain-text table rendering for experiment
  reports (no plotting dependencies);
* :mod:`repro.analysis.equivalence` — the comparison core: one
  two-sample rule for replicate means (:func:`compare_means`: Welch's t,
  else a relative tolerance), a design-effect-corrected two-sample KS on
  pooled per-packet distributions, and one report type; it validates that
  the vector engine reproduces the scalar engine's distributions and backs
  ``campaign diff``.
"""

from repro.analysis.equivalence import (
    EquivalenceReport,
    KsResult,
    MetricComparison,
    compare_means,
    compare_result_sets,
    design_effect,
    ks_2sample,
    verify_vector_equivalence,
)
from repro.analysis.fitting import (
    FitResult,
    fit_constant,
    fit_linear,
    fit_log_power,
    fit_power_law,
    select_scaling_model,
)
from repro.analysis.statistics import quantile
from repro.analysis.tables import format_table, render_rows

__all__ = [
    "EquivalenceReport",
    "FitResult",
    "KsResult",
    "MetricComparison",
    "compare_means",
    "compare_result_sets",
    "design_effect",
    "ks_2sample",
    "verify_vector_equivalence",
    "fit_constant",
    "fit_linear",
    "fit_log_power",
    "fit_power_law",
    "format_table",
    "quantile",
    "render_rows",
    "select_scaling_model",
]
