"""Store-backed performance history and drift detection.

This is the repository's one performance history.  The store's
``elapsed_seconds`` columns are write-only provenance; this module makes
wall-clock a first-class, queryable time series: ``perf record`` executes
a scenario's plan on a chosen backend, measures wall-clock and slots/sec,
and appends one row to the store's ``perf_samples`` table — keyed by the
**workload** (:func:`plan_workload_hash`: the scenario at one scale and one
seed list), the backend layout, and a **host fingerprint** (samples from
different machines are never compared).  ``perf regress`` then
Welch-tests the latest window of samples against the rolling baseline
before it and exits non-zero on sustained drift.  The ``spec_hash`` column
holds the workload key; samples recorded before it did keep the scenario
content hash they were filed under, and so form groups of their own.

Drift rule (:func:`detect_drift`): the latest ``window`` samples drift
when their mean is more than ``factor`` slower than the baseline mean
*and* — whenever both sides support a Welch test — the difference is
significant at ``alpha`` (the p-value of
:func:`repro.analysis.equivalence.compare_means`).  The factor gate keeps
one noisy sample from crying wolf; the significance gate keeps a materially-slower-looking but
statistically-flat comparison honest.  Groups with too little history
report ``insufficient`` and never fail the gate.

Exit-code contract (enforced by ``python -m repro perf regress``):

* ``0`` — no group drifted (insufficient-history groups count as clean);
* ``1`` — at least one (workload, backend layout, host) group shows
  sustained drift;
* ``2`` — usage error (argparse, or an option out of range: ``window`` or
  ``baseline`` below 1, ``alpha`` outside (0, 1), ``factor`` below 1).

Perf samples are provenance, not science: the table is excluded from
:meth:`~repro.store.ResultsStore.fingerprint`, and ``perf record``
discards the simulation results it times (no run rows are written), so
recording can never move a fingerprint.
"""

from __future__ import annotations

import hashlib
import os
import platform
import time
from typing import Any, Callable, Mapping, Sequence

from repro.analysis.equivalence import check_level, check_minimum, compare_means

#: Samples in the "latest" window regress compares against the baseline.
DEFAULT_WINDOW = 2

#: Most-recent baseline samples the window is compared against.
DEFAULT_BASELINE = 8

#: Welch significance level for the drift test.
DEFAULT_ALPHA = 0.05

#: Material-slowdown gate: latest/baseline mean ratio that counts as drift.
DEFAULT_FACTOR = 1.2

_HOST_CACHE: str | None = None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_fingerprint() -> str:
    """A stable short digest of the hardware/platform identity.

    Covers machine architecture, OS, CPU model and logical core count —
    the axes along which wall-clock comparisons stop being meaningful.
    Deliberately excludes hostname (same-spec CI runners should share a
    history) and code version (drift *across* versions is the point).
    """
    global _HOST_CACHE
    if _HOST_CACHE is None:
        payload = "|".join(
            (
                platform.machine(),
                platform.system(),
                _cpu_model(),
                str(os.cpu_count() or 0),
            )
        )
        _HOST_CACHE = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
    return _HOST_CACHE


def backend_layout_name(backend_name: str, workers: int | None) -> str:
    """The perf-sample layout key: backend plus pool width when it has one."""
    if backend_name == "processes":
        return f"processes:w{workers or os.cpu_count() or 1}"
    return backend_name


def plan_workload_hash(plan: Any) -> str:
    """The perf-sample key of what ``plan`` runs, in plan order.

    A SHA-256 over the specs' :meth:`~repro.experiments.plan.RunSpec.cache_key`
    values, so it covers the scenario, the scale's ``max_slots`` and the
    seeds: one scenario recorded at two scales or two seed lists lands in
    two groups, and ``perf regress`` never compares different work.
    (Scenario plans always carry factory adversaries, so every spec has a
    key.)
    """
    keys = "\n".join(str(spec.cache_key()) for spec in plan.specs)
    return hashlib.sha256(keys.encode("utf-8")).hexdigest()


def record_scenario_perf(
    store: Any,
    scenario: Any,
    *,
    scale: str = "default",
    seeds: Sequence[int] | None = None,
    backend_name: str = "serial",
    workers: int | None = None,
    label: str | None = None,
    clock: Callable[[], float] = time.perf_counter,
) -> dict[str, Any]:
    """Execute ``scenario``'s plan once, timed, and store one perf sample.

    Results are discarded after counting slots — this is a stopwatch, not
    a campaign — so the only store write is the ``perf_samples`` row
    (committed in one transaction).  ``clock`` is read once before and once
    after the timed region; tests pass a fake to file fixed durations.
    Returns the stored sample row.
    """
    from repro.exec import make_backend
    from repro.scenarios.runner import build_plan, scenario_seeds

    seed_list = scenario_seeds(scenario, scale, seeds)
    plan = build_plan(scenario, scale, seed_list)
    workload = plan_workload_hash(plan)
    with make_backend(backend_name, workers=workers) as backend:
        started = clock()
        results = plan.run(backend).results
        elapsed = clock() - started
    slots = sum(result.num_slots for result in results)
    sample = {
        "spec_hash": workload,
        "backend_layout": backend_layout_name(backend_name, workers),
        "host": host_fingerprint(),
        "label": label or f"{scenario.scenario_id}@{scale}",
        "runs": len(results),
        "slots": int(slots),
        "seconds": round(elapsed, 6),
        "slots_per_second": round(slots / elapsed, 2) if elapsed > 0 else None,
    }
    store.put_perf_sample(**sample)
    return sample


def detect_drift(
    seconds: Sequence[float],
    *,
    window: int = DEFAULT_WINDOW,
    baseline: int = DEFAULT_BASELINE,
    alpha: float = DEFAULT_ALPHA,
    factor: float = DEFAULT_FACTOR,
) -> dict[str, Any]:
    """Drift verdict over one group's wall-clock series (oldest first).

    Returns a dict with ``status`` (``"drift"``, ``"ok"`` or
    ``"insufficient"``), the latest/baseline means and their ratio, and
    the Welch p-value when both sides support the test (``None``
    otherwise — degenerate variance or a single-sample window, where the
    factor gate alone decides).  A ``factor`` below 1 would flag
    speed-ups, so it is rejected with the other out-of-range options.
    """
    check_minimum("window", window, 1)
    check_minimum("baseline", baseline, 1)
    check_level("alpha", alpha)
    check_minimum("factor", factor, 1.0)
    values = [float(value) for value in seconds]
    if len(values) < window + 2:
        # Fewer than two baseline samples: no rolling baseline to test
        # against yet.
        return {
            "status": "insufficient",
            "samples": len(values),
            "needed": window + 2,
        }
    latest = values[-window:]
    base = values[:-window][-baseline:]
    latest_mean = sum(latest) / len(latest)
    base_mean = sum(base) / len(base)
    ratio = latest_mean / base_mean if base_mean > 0 else float("inf")
    # Only the p-value is used: the verdict is one-sided (slower, by more
    # than ``factor``), so the rule's own two-sided verdict does not apply.
    p_value = compare_means("seconds", latest, base, alpha, 0.0).p_value
    material = ratio > factor
    significant = p_value is None or p_value < alpha
    return {
        "status": "drift" if material and significant else "ok",
        "samples": len(values),
        "window": len(latest),
        "baseline": len(base),
        "latest_mean": round(latest_mean, 6),
        "baseline_mean": round(base_mean, 6),
        "ratio": round(ratio, 4),
        "p_value": round(p_value, 6) if p_value is not None else None,
        "factor": factor,
        "alpha": alpha,
    }


def group_samples(
    rows: Sequence[Mapping[str, Any]],
) -> dict[tuple[str, str, str], list[Mapping[str, Any]]]:
    """``perf_samples`` rows by (spec_hash, backend_layout, host) group.

    ``rows`` are registry rows in recording order (the store query
    guarantees it); each group keeps that order, which is what
    :func:`detect_drift` windows by.
    """
    groups: dict[tuple[str, str, str], list[Mapping[str, Any]]] = {}
    for row in rows:
        key = (row["spec_hash"], row["backend_layout"], row["host"])
        groups.setdefault(key, []).append(row)
    return groups


def regress_groups(
    rows: Sequence[Mapping[str, Any]],
    *,
    window: int = DEFAULT_WINDOW,
    baseline: int = DEFAULT_BASELINE,
    alpha: float = DEFAULT_ALPHA,
    factor: float = DEFAULT_FACTOR,
) -> list[dict[str, Any]]:
    """One drift verdict per :func:`group_samples` group, in key order.

    Each verdict carries its group key and label so the CLI can point at
    the drifting workload directly.
    """
    groups = group_samples(rows)
    verdicts = []
    for key in sorted(groups):
        samples = groups[key]
        verdict = detect_drift(
            [row["seconds"] for row in samples],
            window=window,
            baseline=baseline,
            alpha=alpha,
            factor=factor,
        )
        verdict.update(
            {
                "spec_hash": key[0],
                "backend_layout": key[1],
                "host": key[2],
                "label": samples[-1].get("label"),
            }
        )
        verdicts.append(verdict)
    return verdicts
