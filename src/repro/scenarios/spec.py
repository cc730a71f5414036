"""Scenario definitions: files that fully specify an adversarial workload.

A *scenario* names a protocol set, an adversary (arrival process and
jammer, either stationary or a piecewise :class:`~repro.scenarios.schedule`),
a scale (``max_slots``), and a replication count — everything needed to run
it on any execution backend without writing Python.  Scenarios load from
TOML or JSON files (or plain dicts), validate eagerly, round-trip through
:meth:`Scenario.to_dict`/:func:`scenario_from_dict`, and derive a stable
:meth:`Scenario.content_hash` so archived reports and caches can name the
exact workload they came from.

The component vocabulary maps short ``kind`` strings to the adversary
classes (see ``ARRIVAL_KINDS``/``JAMMER_KINDS``); a component table with a
``phases`` array instead of a ``kind`` becomes a schedule.  Components are
compiled to :func:`~repro.experiments.plan.factory` trees, so every
replication builds a fresh adversary and the resulting
:class:`~repro.experiments.plan.RunSpec`s keep their content-hash cache
keys — scenario sweeps plug into
:class:`~repro.exec.cache.ResultCacheBackend` unchanged.

Example (TOML)::

    id = "onoff-jamming"
    title = "On/off Bernoulli jamming duty cycle"
    protocols = ["low-sensing", "binary-exponential"]
    max_slots = 5000
    replications = 3

    [arrivals]
    kind = "poisson"
    rate = 0.05
    horizon = 2400

    [[jamming.phases]]
    kind = "bernoulli"
    probability = 0.9
    duration = 400

    [[jamming.phases]]
    kind = "none"
    duration = 400
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.adversary.arrivals import (
    AdversarialQueueingArrivals,
    BatchArrivals,
    NoArrivals,
    PeriodicBurstArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import (
    AdaptiveContentionJammer,
    BernoulliJamming,
    BudgetedRandomJamming,
    BurstJamming,
    NoJamming,
    PeriodicJamming,
    ReactiveSuccessJammer,
    ReactiveTargetedJammer,
)
from repro.adversary.scheduled import ScheduledArrivals, ScheduledJamming
from repro.experiments.plan import Factory, factory
from repro.protocols.registry import available_protocols
from repro.scenarios.schedule import Phase


class ScenarioError(ValueError):
    """A scenario definition is malformed or references unknown pieces."""


#: ``kind`` → arrival-process class.
ARRIVAL_KINDS: dict[str, type] = {
    "none": NoArrivals,
    "batch": BatchArrivals,
    "poisson": PoissonArrivals,
    "periodic-burst": PeriodicBurstArrivals,
    "trace": TraceArrivals,
    "queueing": AdversarialQueueingArrivals,
}

#: ``kind`` → jammer class.
JAMMER_KINDS: dict[str, type] = {
    "none": NoJamming,
    "bernoulli": BernoulliJamming,
    "periodic": PeriodicJamming,
    "burst": BurstJamming,
    "budgeted-random": BudgetedRandomJamming,
    "adaptive-contention": AdaptiveContentionJammer,
    "reactive-targeted": ReactiveTargetedJammer,
    "reactive-success": ReactiveSuccessJammer,
}

_ID_PATTERN = re.compile(r"^[a-z0-9][a-z0-9-]*$")

_REQUIRED_KEYS = {"id", "title", "protocols", "arrivals"}
_ALLOWED_KEYS = _REQUIRED_KEYS | {
    "description",
    "jamming",
    "max_slots",
    "replications",
    "base_seed",
    "tags",
}

_DEFAULT_MAX_SLOTS = 20_000
_DEFAULT_REPLICATIONS = 3
_DEFAULT_BASE_SEED = 11


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: pure declarative data plus derived factories.

    The component fields (``arrivals``/``jamming``) hold the normalised
    declarative dicts, which is what makes :meth:`to_dict` a faithful
    round-trip and :meth:`content_hash` a function of the definition
    alone.  The factory accessors compile them on demand.
    """

    scenario_id: str
    title: str
    description: str
    protocols: tuple[str, ...]
    arrivals: Mapping[str, Any]
    jamming: Mapping[str, Any]
    max_slots: int
    replications: int
    base_seed: int
    tags: tuple[str, ...]

    # -- Derived factories -------------------------------------------------

    def arrivals_factory(self) -> Factory:
        """Factory building a fresh arrival process per run."""
        return _component_factory(
            self.arrivals, ARRIVAL_KINDS, ScheduledArrivals, "arrivals"
        )

    def jamming_factory(self) -> Factory:
        """Factory building a fresh jammer per run."""
        return _component_factory(
            self.jamming, JAMMER_KINDS, ScheduledJamming, "jamming"
        )

    def adversary_factory(self) -> Factory:
        """Factory for the full :class:`CompositeAdversary` of the scenario."""
        return factory(
            CompositeAdversary, self.arrivals_factory(), self.jamming_factory()
        )

    # -- Identity ----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The canonical JSON-friendly form (inverse of ``scenario_from_dict``)."""
        return {
            "id": self.scenario_id,
            "title": self.title,
            "description": self.description,
            "protocols": list(self.protocols),
            "arrivals": _thaw(self.arrivals),
            "jamming": _thaw(self.jamming),
            "max_slots": self.max_slots,
            "replications": self.replications,
            "base_seed": self.base_seed,
            "tags": list(self.tags),
        }

    def content_hash(self) -> str:
        """Stable SHA-256 of the canonical definition (hex digest)."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Component compilation
# ---------------------------------------------------------------------------


def _component_factory(
    spec: Mapping[str, Any],
    kinds: Mapping[str, type],
    schedule_cls: type,
    label: str,
) -> Factory:
    """Compile one component spec (stationary or schedule) to a factory."""
    if not isinstance(spec, Mapping):
        raise ScenarioError(f"{label}: expected a table, got {type(spec).__name__}")
    if "phases" in spec:
        unexpected = sorted(set(spec) - {"phases"})
        if unexpected:
            raise ScenarioError(
                f"{label}: a schedule takes only 'phases', got extra keys {unexpected}"
            )
        phases = spec["phases"]
        if not isinstance(phases, Sequence) or isinstance(phases, (str, bytes)):
            raise ScenarioError(f"{label}.phases: expected an array of phase tables")
        if not phases:
            raise ScenarioError(f"{label}.phases: a schedule needs at least one phase")
        phase_factories = []
        for index, phase_spec in enumerate(phases):
            if not isinstance(phase_spec, Mapping):
                raise ScenarioError(
                    f"{label}.phases[{index}]: expected a table, "
                    f"got {type(phase_spec).__name__}"
                )
            duration = phase_spec.get("duration")
            inner = {
                key: value for key, value in phase_spec.items() if key != "duration"
            }
            inner_factory = _component_factory(
                inner, kinds, schedule_cls, f"{label}.phases[{index}]"
            )
            phase_factories.append(factory(Phase, inner_factory, duration=duration))
        return factory(schedule_cls, *phase_factories)
    kind = spec.get("kind")
    if kind is None:
        raise ScenarioError(f"{label}: missing 'kind' (or a 'phases' array)")
    component_cls = kinds.get(kind)
    if component_cls is None:
        known = ", ".join(sorted(kinds))
        raise ScenarioError(f"{label}: unknown kind {kind!r}; known kinds: {known}")
    kwargs = {key: value for key, value in spec.items() if key != "kind"}
    return factory(component_cls, **kwargs)


def _thaw(value: Any) -> Any:
    """Deep-copy a spec tree into plain dicts/lists (JSON-shaped)."""
    if isinstance(value, Mapping):
        return {str(key): _thaw(item) for key, item in value.items()}
    if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
        return [_thaw(item) for item in value]
    return value


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def scenario_from_dict(data: Mapping[str, Any], *, source: str = "<dict>") -> Scenario:
    """Parse and validate one scenario definition.

    Validation is eager and total: unknown keys are rejected, protocol
    names are checked against the registry, and the adversary factories
    are probe-built once so malformed component parameters fail here (with
    the file name in the message) instead of mid-sweep.
    """
    if not isinstance(data, Mapping):
        raise ScenarioError(f"{source}: scenario must be a table/object")
    unexpected = sorted(set(data) - _ALLOWED_KEYS)
    if unexpected:
        raise ScenarioError(f"{source}: unexpected keys {unexpected}")
    missing = sorted(_REQUIRED_KEYS - set(data))
    if missing:
        raise ScenarioError(f"{source}: missing required keys {missing}")

    scenario_id = data["id"]
    if not isinstance(scenario_id, str) or not _ID_PATTERN.match(scenario_id):
        raise ScenarioError(
            f"{source}: 'id' must be a lowercase [a-z0-9-] slug, got {scenario_id!r}"
        )
    title = data["title"]
    if not isinstance(title, str) or not title:
        raise ScenarioError(f"{source}: 'title' must be a non-empty string")
    description = data.get("description", "")
    if not isinstance(description, str):
        raise ScenarioError(f"{source}: 'description' must be a string")

    protocols = data["protocols"]
    if (
        not isinstance(protocols, Sequence)
        or isinstance(protocols, (str, bytes))
        or not protocols
    ):
        raise ScenarioError(f"{source}: 'protocols' must be a non-empty array")
    known_protocols = set(available_protocols())
    seen_protocols: set[str] = set()
    for name in protocols:
        if name not in known_protocols:
            raise ScenarioError(
                f"{source}: unknown protocol {name!r}; known protocols: "
                f"{', '.join(sorted(known_protocols))}"
            )
        if name in seen_protocols:
            # Per-protocol outputs (verdicts, vector-support maps) are keyed
            # by name, so a duplicate would silently shadow its twin.
            raise ScenarioError(f"{source}: duplicate protocol {name!r}")
        seen_protocols.add(name)

    max_slots = data.get("max_slots", _DEFAULT_MAX_SLOTS)
    replications = data.get("replications", _DEFAULT_REPLICATIONS)
    base_seed = data.get("base_seed", _DEFAULT_BASE_SEED)
    for field_name, value, minimum in (
        ("max_slots", max_slots, 1),
        ("replications", replications, 1),
        ("base_seed", base_seed, 0),
    ):
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise ScenarioError(
                f"{source}: {field_name!r} must be an integer >= {minimum}"
            )

    tags = data.get("tags", [])
    if isinstance(tags, (str, bytes)) or not isinstance(tags, Sequence):
        raise ScenarioError(f"{source}: 'tags' must be an array of strings")
    if not all(isinstance(tag, str) for tag in tags):
        raise ScenarioError(f"{source}: 'tags' must be an array of strings")

    scenario = Scenario(
        scenario_id=scenario_id,
        title=title,
        description=description,
        protocols=tuple(protocols),
        arrivals=_thaw(data["arrivals"]),
        jamming=_thaw(data.get("jamming", {"kind": "none"})),
        max_slots=max_slots,
        replications=replications,
        base_seed=base_seed,
        tags=tuple(tags),
    )
    # Probe-build both components once: constructor range checks and
    # schedule shape rules (positive durations, open-ended only last)
    # surface now, attributed to the source.
    for build, label in (
        (scenario.arrivals_factory, "arrivals"),
        (scenario.jamming_factory, "jamming"),
    ):
        try:
            build().build()
        except ScenarioError as exc:
            # Component-spec errors name the component path but not the
            # file; prefix the source so multi-file runs stay attributable.
            raise ScenarioError(f"{source}: {exc}") from None
        except Exception as exc:
            raise ScenarioError(f"{source}: invalid {label}: {exc}") from exc
    return scenario


# ---------------------------------------------------------------------------
# File loading
# ---------------------------------------------------------------------------


def load_scenario_file(path: str | Path) -> Scenario:
    """Load one scenario from a ``.toml`` or ``.json`` file."""
    file_path = Path(path)
    try:
        text = file_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {file_path}: {exc}") from exc
    suffix = file_path.suffix.lower()
    if suffix == ".toml":
        import tomllib

        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioError(f"{file_path}: invalid TOML: {exc}") from exc
    elif suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{file_path}: invalid JSON: {exc}") from exc
    else:
        raise ScenarioError(
            f"{file_path}: unsupported scenario format {suffix!r} "
            "(expected .toml or .json)"
        )
    return scenario_from_dict(data, source=str(file_path))


def resolve_scenario(name_or_path: str | Path) -> Scenario:
    """A scenario by catalog name, or from a ``.toml``/``.json`` file.

    Only recognised suffixes are treated as files, so a stray local file
    that happens to share a catalog scenario's name never shadows it.
    """
    path = Path(name_or_path)
    if path.suffix.lower() in (".toml", ".json"):
        return load_scenario_file(path)
    from repro.scenarios.catalog import builtin_scenarios

    catalog = builtin_scenarios()
    scenario = catalog.get(str(name_or_path))
    if scenario is None:
        raise ScenarioError(
            f"unknown scenario {name_or_path!r}; catalog scenarios: "
            f"{', '.join(sorted(catalog))} (or pass a .toml/.json file path)"
        )
    return scenario
