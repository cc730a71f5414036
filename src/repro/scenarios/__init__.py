"""Scenarios: adversarial workloads as data.

The subsystem has four parts:

* :mod:`repro.scenarios.schedule` — the ``Phase``/``Schedule`` DSL for
  piecewise time-varying adversary behaviour (driven through the engines
  by the adapters in :mod:`repro.adversary.scheduled`);
* :mod:`repro.scenarios.spec` — the :class:`Scenario` object plus the
  TOML/JSON loader and validator: a scenario file fully specifies the
  protocol set, the adversary schedule, the scale, and the replication
  count, round-trips through ``Scenario.to_dict``/``scenario_from_dict``,
  and derives a stable ``content_hash`` identity;
* :mod:`repro.scenarios.catalog` — the curated built-in catalog of named
  stress scenarios, registered alongside the paper experiments;
* :mod:`repro.scenarios.runner` — compiles a scenario into a
  :class:`~repro.experiments.plan.SweepPlan` and runs it on any execution
  backend, returning a standard experiment report.

This ``__init__`` imports lazily (PEP 562): :mod:`repro.adversary.scheduled`
imports the schedule DSL from here, while the loader imports the adversary
package — eager imports in both directions would cycle.
"""

from repro.scenarios.schedule import Phase, Schedule

_SPEC_EXPORTS = {
    "Scenario",
    "ScenarioError",
    "load_scenario_file",
    "resolve_scenario",
    "scenario_from_dict",
}
_CATALOG_EXPORTS = {"builtin_scenarios", "get_scenario", "scenario_ids"}
_RUNNER_EXPORTS = {"build_plan", "run_scenario", "scenario_seeds", "scenario_max_slots"}

__all__ = [
    "Phase",
    "Schedule",
    *sorted(_SPEC_EXPORTS),
    *sorted(_CATALOG_EXPORTS),
    *sorted(_RUNNER_EXPORTS),
]


def __getattr__(name: str):
    if name in _SPEC_EXPORTS:
        from repro.scenarios import spec

        return getattr(spec, name)
    if name in _CATALOG_EXPORTS:
        from repro.scenarios import catalog

        return getattr(catalog, name)
    if name in _RUNNER_EXPORTS:
        from repro.scenarios import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
