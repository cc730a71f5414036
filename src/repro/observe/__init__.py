"""Cross-run observability: resource samples and the perf history.

:mod:`repro.telemetry` is the *emission* layer — cheap structured events
from inside a run — and its :func:`~repro.telemetry.summarize_events` is
the one fold of that stream, worker table included (busy fractions per
pool, queue waits, imbalance index).  This package adds what a single
run's events cannot answer alone:

* :mod:`~repro.observe.resources` samples ``/proc`` (RSS, CPU, fds) into
  the telemetry stream — interval thread in the parent, job-boundary
  snapshots in pool workers; ``telemetry summarize`` reads them back as
  its ``resources`` table;
* :mod:`~repro.observe.perf` keeps a store-backed wall-clock history and
  Welch-tests for sustained drift (``perf record|history|regress``).

The package-wide contract, inherited from telemetry and enforced by
tests: observability is RNG- and result-inert.  Store fingerprints are
bit-identical with observe on or off, on every backend.
"""

from repro.observe.perf import (
    DEFAULT_ALPHA,
    DEFAULT_BASELINE,
    DEFAULT_FACTOR,
    DEFAULT_WINDOW,
    backend_layout_name,
    detect_drift,
    host_fingerprint,
    record_scenario_perf,
    regress_groups,
)
from repro.observe.resources import (
    DEFAULT_INTERVAL,
    NULL_SAMPLER,
    ResourceSampler,
    sample_process,
)

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_BASELINE",
    "DEFAULT_FACTOR",
    "DEFAULT_INTERVAL",
    "DEFAULT_WINDOW",
    "NULL_SAMPLER",
    "ResourceSampler",
    "backend_layout_name",
    "detect_drift",
    "host_fingerprint",
    "record_scenario_perf",
    "regress_groups",
    "sample_process",
]
