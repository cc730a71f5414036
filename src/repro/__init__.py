"""repro — reproduction of "Fully Energy-Efficient Randomized Backoff" (PODC 2024).

The package implements the paper's LOW-SENSING BACKOFF algorithm, the shared
multiple-access channel model it runs on, the adaptive/reactive adversaries
it is analysed against, the baseline protocols it is compared with, and the
measurement and experiment machinery that reproduces the paper's claims.

Quickstart::

    from repro import run_simulation, LowSensingBackoff, BatchArrivals

    result = run_simulation(
        LowSensingBackoff(), arrivals=BatchArrivals(200), seed=1
    )
    print(result.throughput, result.energy_statistics().mean_accesses)

See README.md for an architecture overview and, in its Experiments
section, the paper-claim-by-claim index of the reproduction.
"""

from repro.adversary import (
    AdaptiveContentionJammer,
    AdversarialQueueingArrivals,
    BatchArrivals,
    BernoulliJamming,
    BudgetedRandomJamming,
    BurstJamming,
    CompositeAdversary,
    NoArrivals,
    NoJamming,
    PeriodicBurstArrivals,
    PeriodicJamming,
    PoissonArrivals,
    ReactiveSuccessJammer,
    ReactiveTargetedJammer,
    ScheduledArrivals,
    ScheduledJamming,
    TraceArrivals,
)
from repro.core import (
    LowSensingBackoff,
    LowSensingParameters,
    PotentialTracker,
)
from repro.protocols import (
    BinaryExponentialBackoff,
    FixedProbabilityProtocol,
    FullSensingMultiplicativeWeights,
    PolynomialBackoff,
    SawtoothBackoff,
    SlottedAloha,
    available_protocols,
    get_protocol,
)
from repro.exec import (
    ProcessPoolBackend,
    ResultCacheBackend,
    SerialBackend,
    VectorBackend,
    make_backend,
)
from repro.campaigns import resume_campaign, start_campaign
from repro.queueing import QueueingConstraint
from repro.scenarios.schedule import Phase, Schedule
from repro.sim import SimulationConfig, SimulationResult, Simulator, run_simulation
from repro.store import ResultsStore

__version__ = "1.0.0"

__all__ = [
    "AdaptiveContentionJammer",
    "AdversarialQueueingArrivals",
    "BatchArrivals",
    "BernoulliJamming",
    "BinaryExponentialBackoff",
    "BudgetedRandomJamming",
    "BurstJamming",
    "CompositeAdversary",
    "FixedProbabilityProtocol",
    "FullSensingMultiplicativeWeights",
    "LowSensingBackoff",
    "LowSensingParameters",
    "NoArrivals",
    "NoJamming",
    "PeriodicBurstArrivals",
    "PeriodicJamming",
    "Phase",
    "PoissonArrivals",
    "PolynomialBackoff",
    "PotentialTracker",
    "ProcessPoolBackend",
    "QueueingConstraint",
    "ResultCacheBackend",
    "ResultsStore",
    "Schedule",
    "ScheduledArrivals",
    "ScheduledJamming",
    "SerialBackend",
    "ReactiveSuccessJammer",
    "ReactiveTargetedJammer",
    "SawtoothBackoff",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "SlottedAloha",
    "TraceArrivals",
    "VectorBackend",
    "available_protocols",
    "get_protocol",
    "make_backend",
    "resume_campaign",
    "run_simulation",
    "start_campaign",
    "__version__",
]
