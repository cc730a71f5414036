"""The benchmark's four workloads: seeded inputs, one timed invocation, checks.

Every workload turns one integer seed into the program's inputs (``RunSpec``
groups or catalog scenario definitions with derived seed lists) and drives
the program only through its public API: ``SweepPlan.run(VectorBackend())``
for the batch workloads, ``start_campaign``/``campaign_report`` into a fresh
``ResultsStore`` for the catalog workloads.

An invocation's timed region runs from the first call into the program to
the last result returned or store commit.  Everything else — opening the
store, reading artifacts back for the checks, the store fingerprint — runs
outside it, and the host-speed samples a ``Clock`` takes inside it are
subtracted from it.  The checks use public ``SimulationResult`` fields only, and the
work counts (live packet-slots, channel accesses, lockstep cells) are
computed from results, never from counters inside the program.
"""

from __future__ import annotations

import random
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, ContextManager, Iterable

import numpy as np
from repro.adversary.arrivals import BatchArrivals
from repro.adversary.composite import CompositeAdversary
from repro.campaigns import runner as campaign_runner
from repro.exec import VectorBackend
from repro.experiments.plan import SweepPlan, factory
from repro.protocols.registry import get_protocol
from repro.scenarios.catalog import builtin_scenarios
from repro.sim.results import SimulationResult
from repro.store import ResultsStore


def derive_seeds(label: str, count: int) -> list[int]:
    """``count`` replicate seeds drawn from a string label.

    String seeding of ``random.Random`` is stable across processes and
    Python builds (it hashes with SHA-512, not ``hash()``), so a label made
    from the benchmark seed fixes every replicate seed.
    """
    rng = random.Random(label)
    return [rng.randrange(1, 2**31 - 1) for _ in range(count)]


# -- Output checks -------------------------------------------------------------


def check_result(result: SimulationResult, *, must_drain: bool) -> list[str]:
    """Structural invariants of one run; returns the violated ones."""
    violations = []
    arrivals, packets = result.num_arrivals, len(result.packets)
    if not arrivals == packets == result.num_delivered + result.backlog:
        violations.append(
            f"arrivals {arrivals}, packets {packets}, delivered+backlog "
            f"{result.num_delivered + result.backlog} differ"
        )
    sends = sum(packet.sends for packet in result.packets)
    listens = sum(packet.listens for packet in result.packets)
    if (result.collector.total_sends, result.collector.total_listens) != (sends, listens):
        violations.append("collector sends/listens differ from per-packet sums")
    if result.num_delivered > result.num_active_slots - result.num_jammed_active:
        violations.append("more successes than unjammed active slots")
    if any(
        packet.departure_slot is not None and packet.departure_slot < packet.arrival_slot
        for packet in result.packets
    ):
        violations.append("a packet departed before it arrived")
    if result.drained and result.backlog != 0:
        violations.append("drained with a non-zero backlog")
    if must_drain and not result.drained:
        violations.append("batch run did not drain")
    return violations


def live_packet_slots(result: SimulationResult) -> int:
    """Σ over packets of the slots each was live (arrival to departure)."""
    return sum(
        (packet.departure_slot if packet.departure_slot is not None else result.num_slots - 1)
        - packet.arrival_slot
        + 1
        for packet in result.packets
    )


@dataclass
class EngineCounts:
    """Work counts of the runs one engine produced."""

    live_packet_slots: int = 0
    accesses: int = 0
    lockstep_slots: int = 0
    cells: int = 0

    def add_group(self, results: list[SimulationResult], *, lockstep: bool) -> None:
        """Count one replication group (one lockstep unit on the vector engine)."""
        self.live_packet_slots += sum(live_packet_slots(result) for result in results)
        self.accesses += sum(
            packet.sends + packet.listens for result in results for packet in result.packets
        )
        if lockstep and results:
            slots = max(result.num_slots for result in results)
            capacity = max(len(result.packets) for result in results)
            self.lockstep_slots += slots
            self.cells += len(results) * capacity * slots


@dataclass
class Tally:
    """Checked totals of one invocation's runs."""

    attempted: int = 0
    failed: int = 0
    #: Runs that never produced a result because the call raised.
    lost_runs: int = 0
    packets: int = 0
    throughput_sum: float = 0.0
    checked_runs: int = 0
    engines: dict[str, EngineCounts] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)

    @property
    def live_packet_slots(self) -> int:
        return sum(counts.live_packet_slots for counts in self.engines.values())

    @property
    def accesses(self) -> int:
        return sum(counts.accesses for counts in self.engines.values())


#: One replication group: (engine, group label, results in seed order).
Group = tuple[str, Any, list[SimulationResult | None]]


def tally_groups(groups: Iterable[Group], *, must_drain: bool, lost_runs: int = 0) -> Tally:
    """Check every run and count the work of those that pass.

    ``groups`` may be a generator, so a caller reading results back from a
    store holds one group in memory at a time.  A ``None`` result (missing
    or unreadable artifact) counts as failed.
    """
    tally = Tally(attempted=lost_runs, failed=lost_runs, lost_runs=lost_runs)
    for engine, label, results in groups:
        passed = []
        for result in results:
            tally.attempted += 1
            violations = (
                ["result missing"]
                if result is None
                else check_result(result, must_drain=must_drain)
            )
            if violations:
                tally.failed += 1
                seed = getattr(result, "seed", None)
                tally.violations += [f"{engine} {label} seed {seed}: {v}" for v in violations]
                continue
            passed.append(result)
            tally.checked_runs += 1
            tally.packets += len(result.packets)
            tally.throughput_sum += result.throughput
        tally.engines.setdefault(engine, EngineCounts()).add_group(
            passed, lockstep=engine == "vector"
        )
    return tally


@dataclass
class Invocation:
    """One invocation's timed wall-clock and everything checked after it."""

    wall_s: float
    tally: Tally
    fingerprint: str | None = None
    backend: dict[str, Any] | None = None
    unit_seconds: list[float] = field(default_factory=list)
    store_bytes: int = 0


# -- Workloads -----------------------------------------------------------------

#: ``reference_work``'s usual time on the reference host (2-vCPU Xeon VM,
#: 2.0 GHz, numpy 2.4, Python 3.11): host-normalised times read in seconds
#: of that host.
REFERENCE_S = 0.0007

#: Seconds between the host-speed samples a ``Clock`` takes in its region.
SAMPLE_INTERVAL_S = 0.02

_THRESHOLDS = np.linspace(0.0, 1.0, 256)


def reference_work() -> float:
    """A fixed mix of the program's kinds of work; returns its wall-clock.

    Pure-Python integer and dict work, then small-array numpy draws and
    masks.  None of it calls the program, so a change to the program never
    moves it; only the host's speed does.
    """
    started = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(2400):
        total += (i * 7) % 13
        table[i & 255] = total
    rng = np.random.default_rng(12345)
    for _ in range(6):
        draws = rng.random((8, 256))
        mask = draws < _THRESHOLDS
        np.where(mask, draws, 0.0).sum(axis=1)
        np.flatnonzero(mask[0])
    return time.perf_counter() - started


def host_speed(samples: int) -> float:
    """Mean of ``samples`` runs of ``reference_work``, in seconds."""
    return statistics.fmean(reference_work() for _ in range(samples))


class Stopwatch:
    """A timed region on ``time.perf_counter`` alone: the untraced baseline
    of a traced run's overhead ratio."""

    seconds = 0.0

    def __enter__(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._started


class Clock:
    """The untraced timed region: wall-clock on ``time.perf_counter``,
    with the host's speed sampled all through it.

    The host's speed drifts by half or more within a second and between
    runs (shared cores), and CPU time drifts with it.  So a timer signal
    runs ``reference_work`` every ``SAMPLE_INTERVAL_S`` inside the region,
    in the same thread as the program, and once on each side of it.
    ``seconds`` is the region's wall-clock less the samples;
    ``reference_seconds`` rescales it by ``REFERENCE_S`` over the mean
    sample, which cancels the drift the program ran under.  On the reference
    host this cut the spread between the medians of 24-second runs from
    16-18% to 4-5% (lsb-batch, beb-batch); the sampler itself slows the
    program by about 5% beyond the samples it subtracts.
    """

    seconds = 0.0
    reference_seconds = 0.0

    def _sample(self, *_signal: object) -> None:
        took = reference_work()
        self.samples.append(took)
        self._paused += took

    def __enter__(self) -> "Clock":
        self.samples: list[float] = []
        self._paused = 0.0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        # Restart system calls the timer interrupts, as if it were not there.
        signal.siginterrupt(signal.SIGALRM, False)
        self._paused = 0.0
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.seconds = time.perf_counter() - self._started - self._paused
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        self.reference_seconds = self.seconds * REFERENCE_S / statistics.fmean(self.samples)


#: Context-manager factory around an invocation's timed region.  It yields an
#: object whose ``seconds`` attribute holds the region's wall-clock on exit.
TimedRegion = Callable[[], ContextManager[Any]]


def _report_exception(context: str) -> None:
    print(f"perfbench: {context} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass(frozen=True)
class BatchWorkload:
    """One batch of ``n`` packets, ``replications`` seeds, on the vector backend."""

    name: str
    protocol: str
    n: int
    replications: int
    why: str

    def inputs(self, seed: int, index: int, n: int | None = None) -> SweepPlan:
        """Invocation ``index``'s plan; each invocation draws fresh seeds."""
        plan = SweepPlan()
        plan.add_group(
            get_protocol(self.protocol),
            factory(CompositeAdversary, factory(BatchArrivals, n or self.n)),
            derive_seeds(f"{self.name}/{seed}/{index}", self.replications),
        )
        return plan

    def warm_up(self, workdir: Path) -> None:
        plan = SweepPlan()
        plan.add_group(
            get_protocol(self.protocol),
            factory(CompositeAdversary, factory(BatchArrivals, 16)),
            [1, 2],
        )
        plan.run(VectorBackend())

    def invoke(self, plan: SweepPlan, workdir: Path, timed: TimedRegion) -> Invocation:
        backend = VectorBackend()
        results: list[SimulationResult] | None = None
        with timed() as clock:
            try:
                results = plan.run(backend).results
            except Exception:
                _report_exception(f"{self.name} plan.run")
        if results is None:
            return Invocation(clock.seconds, tally_groups([], must_drain=True, lost_runs=len(plan)))
        groups = (
            ("vector", f"group {group.group_id}", [results[i] for i in group.spec_indices])
            for group in plan.groups
        )
        return Invocation(
            clock.seconds, tally_groups(groups, must_drain=True), backend=backend.describe()
        )


@dataclass(frozen=True)
class CatalogWorkload:
    """Every catalog scenario as a campaign into one fresh results store."""

    name: str
    backend_name: str
    replications: int
    why: str
    workers: int | None = None
    #: Campaign scale: "default" runs each scenario as declared.
    scale: str = "default"

    def inputs(self, seed: int, index: int = 0) -> list[tuple[Any, list[int]]]:
        """(scenario, seeds) pairs; every invocation reruns the same inputs,
        so their store fingerprints must agree."""
        return [
            (scenario, derive_seeds(f"{self.name}/{seed}/{scenario_id}", self.replications))
            for scenario_id, scenario in sorted(builtin_scenarios().items())
        ]

    def warm_up(self, workdir: Path) -> None:
        smoke = CatalogWorkload(
            self.name, self.backend_name, 1, self.why, self.workers, scale="smoke"
        )
        invocation = smoke.invoke(smoke.inputs(0)[:1], workdir, Stopwatch)
        if invocation.tally.failed:
            raise RuntimeError(f"{self.name} warm-up failed: {invocation.tally.violations}")

    def invoke(
        self, inputs: list[tuple[Any, list[int]]], workdir: Path, timed: TimedRegion
    ) -> Invocation:
        root = Path(tempfile.mkdtemp(prefix="store-", dir=workdir))
        store = ResultsStore(root)
        lost = 0
        campaign_ids = []
        try:
            with timed() as clock:
                for scenario, seeds in inputs:
                    try:
                        outcome = campaign_runner.start_campaign(
                            store,
                            scenario,
                            scale=self.scale,
                            seeds=seeds,
                            backend_name=self.backend_name,
                            workers=self.workers,
                        )
                        campaign_runner.campaign_report(store, outcome.campaign_id)
                        campaign_ids.append(outcome.campaign_id)
                    except Exception:
                        _report_exception(f"{self.name} campaign {scenario.scenario_id}")
                        lost += len(scenario.protocols) * len(seeds)
            layouts: dict[tuple[str, str], list[str]] = {}
            for run in store.iter_runs():
                engine = "vector" if run.backend_layout.startswith("vector:") else "scalar"
                label = run.backend_layout[:18] if engine == "vector" else str(run.protocol)
                layouts.setdefault((engine, label), []).append(run.artifact_hash)
            groups = (
                (engine, label, [store.load_artifact(artifact) for artifact in artifacts])
                for (engine, label), artifacts in layouts.items()
            )
            tally = tally_groups(groups, must_drain=False, lost_runs=lost)
            stats = store.stats()
            return Invocation(
                clock.seconds,
                tally,
                fingerprint=store.fingerprint(),
                unit_seconds=[
                    row["elapsed_seconds"]
                    for campaign_id in campaign_ids
                    for row in store.campaign_units(campaign_id)
                ],
                store_bytes=stats["artifact_bytes"] + stats["db_bytes"],
            )
        finally:
            store.close()
            shutil.rmtree(root, ignore_errors=True)


WORKLOADS: dict[str, BatchWorkload | CatalogWorkload] = {
    workload.name: workload
    for workload in (
        BatchWorkload(
            "lsb-batch",
            "low-sensing",
            n=2000,
            replications=8,
            why=(
                "LOW-SENSING batch N=2000 x8 seeds, VectorBackend, no store: the "
                "paper's protocol on the dense sensing kernel (live-cell ratio ~0.3)"
            ),
        ),
        BatchWorkload(
            "beb-batch",
            "binary-exponential",
            # N=250, not 1000: a batch's cost follows its slowest replicate's
            # heavy-tailed makespan (per-batch spread ~25% of the median), so
            # a run needs ~50 batches for a steady median.
            n=250,
            replications=8,
            why=(
                "binary exponential batch N=250 x8 seeds, VectorBackend, no store: "
                "send-only and access-sparse (live-cell ratio ~0.07), per-slot "
                "dispatch over departed columns dominates"
            ),
        ),
        CatalogWorkload(
            "catalog-vector",
            "vector",
            # Four seeds, not eight: a run then makes five or more invocations,
            # and the run's median needs them on a shared host.
            replications=4,
            why=(
                "12 catalog scenarios x4 seeds as vector campaigns into a fresh store, "
                "read back by campaign_report: many small heterogeneous lockstep units"
            ),
        ),
        CatalogWorkload(
            "catalog-pool",
            "processes",
            # Two seeds: each scenario group is then one campaign unit that
            # keeps both workers busy, and a run makes five or more invocations.
            replications=2,
            workers=2,
            why=(
                "12 catalog scenarios x2 seeds as campaigns on a 2-worker process pool "
                "into a fresh store: the scalar engine, pickling/IPC, pool start-up"
            ),
        ),
    )
}


def smoke_workload(name: str) -> BatchWorkload | CatalogWorkload:
    """A tiny variant of a workload for the benchmark's self-test."""
    workload = WORKLOADS[name]
    if isinstance(workload, BatchWorkload):
        return BatchWorkload(workload.name, workload.protocol, 48, 2, workload.why)
    return CatalogWorkload(
        workload.name,
        workload.backend_name,
        1,
        workload.why,
        workload.workers,
        scale="smoke",
    )
