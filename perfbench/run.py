"""The repository benchmark: end-to-end and per-layer cost of the simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload lsb-batch --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures with telemetry off and prints the end-to-end metrics;
``--trace 1`` is a separate run that alternates untraced and traced
invocations of the same inputs and prints the per-layer metrics (see
``layers.py``).  Each run first sets up (imports, input generation, one
smoke-size warm-up call), then invokes the workload for about ``--seconds``
(stopping when the next invocation would end past them), checks every result, and prints a table followed by one JSON line::

    {"correct": true, "attempted": 16, "failed": 0, "metrics": {...}}

End-to-end metrics (medians over a run's invocations where per invocation):

* ``wall_s`` — timed region of one invocation (first call into the program
  to the last result returned or store commit), in reference-host seconds:
  rescaled by the mean time of a fixed calibration that a timer signal runs
  every 20 ms inside the region (``workloads.Clock``), because a shared
  host's speed drifts by half or more between and within runs;
* ``setup_s`` — median over five fresh processes (this one and four probe
  children started after the timed runs) of imports + inputs + warm-up,
  each rescaled to the reference host by calibrations made right after it;
* ``packet_slots_per_s`` — live packet-slots of an invocation over its wall;
* ``peak_rss_mb`` — ``ru_maxrss`` of this process; on ``catalog-pool`` the
  larger of this process and its largest child (pool workers; setup probes
  start only after the reading);
* ``channel_throughput`` — mean over runs of (successes + jammed) per active
  slot, the paper's Θ(1) quantity;
* ``accesses_per_packet`` — mean sends + listens per packet, the paper's
  energy quantity.

The table also prints the raw wall-clock and set-up time on this host.
``failed_run_share`` (runs that raised, broke an invariant, or — batch
workloads — did not drain, over runs attempted) is printed in the table and
carried by the JSON ``attempted``/``failed`` fields.  Any failed check, any
vector fallback on a batch workload, or any store fingerprint that differs
between invocations of the same inputs makes the run exit with status 1.

Batch workloads draw fresh replicate seeds for every invocation, so a run's
median averages over several batches; the catalog workloads rerun identical
inputs, which is what lets their store fingerprints be compared.  Every
input is derived from ``--seed``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up is timed from before the program's imports

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("lsb-batch", "beb-batch", "catalog-vector", "catalog-pool")

#: Invocations a run makes however short ``--seconds`` is; two are needed to
#: compare store fingerprints across invocations of the same inputs.
MIN_INVOCATIONS = 2
#: Fresh processes whose set-up time ``setup_s`` is the median of.
SETUP_SAMPLES = 5
#: Calibrations after a set-up whose mean rescales it to the reference host.
SETUP_CALIBRATIONS = 200

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "packet_slots_per_s": "packet-slots/s",
    "peak_rss_mb": "MB",
    "channel_throughput": "successes/slot",
    "accesses_per_packet": "accesses/packet",
}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or exit without a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), os.environ.get("PYTHONPATH")) if part
    )
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {SRC}")


def clear_program_caches() -> None:
    """Empty the program's ``functools`` caches before an invocation.

    Invocations share one process, but a user pays for memoisation afresh on
    every command; clearing the caches keeps the second invocation of the
    same inputs from being cheaper than the first.
    """
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _print_table(metrics: dict[str, tuple[float, str]]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>18.6g} {unit}")


def _command(args: argparse.Namespace, workload: str, *extra: str) -> list[str]:
    """This benchmark's command line for ``workload`` with ``args``'s seed and size."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
    command += ["--seed", str(args.seed), *extra]
    return command + (["--smoke"] if args.smoke else [])


def _probe_setup(args: argparse.Namespace) -> float:
    completed = subprocess.run(
        _command(args, args.workload, "--setup-only"),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


class Run:
    """One benchmark run of one workload."""

    def __init__(self, args: argparse.Namespace, workdir: Path) -> None:
        import workloads

        self.args = args
        self.workdir = workdir
        self.workload = (
            workloads.smoke_workload(args.workload)
            if args.smoke
            else workloads.WORKLOADS[args.workload]
        )
        self.is_batch = isinstance(self.workload, workloads.BatchWorkload)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprints: set[str] = set()

    def set_up(self) -> None:
        """Generate the first inputs and warm up; ``setup_s`` counts from start-up.

        ``setup_reference_s`` rescales it to the reference host by the
        mean of ``SETUP_CALIBRATIONS`` calibrations made just after it.
        """
        from workloads import REFERENCE_S, host_speed

        self.inputs = self.workload.inputs(self.args.seed, 0)
        self.workload.warm_up(self.workdir)
        self.setup_s = time.perf_counter() - _STARTED
        self.setup_reference_s = self.setup_s * REFERENCE_S / host_speed(SETUP_CALIBRATIONS)

    def invoke(self, inputs, timed):
        """One invocation, its results checked and counted."""
        clear_program_caches()
        invocation = self.workload.invoke(inputs, self.workdir, timed)
        self.attempted += invocation.tally.attempted
        self.failed += invocation.tally.failed
        for line in invocation.tally.violations[:20]:
            print(f"perfbench: check failed: {line}", file=sys.stderr)
        if invocation.fingerprint is not None:
            self.fingerprints.add(invocation.fingerprint)
        fallback = (invocation.backend or {}).get("fallback_jobs", 0)
        if self.is_batch and fallback:
            self.problems.append(f"{fallback} jobs fell back from the vector engine")
        return invocation

    def timed(self) -> dict[str, tuple[float, str]]:
        """End-to-end metrics; prints them with failed_run_share and work counts."""
        from workloads import Clock

        deadline = time.perf_counter() + self.args.seconds
        walls, raw_walls, rates, tallies = [], [], [], []
        index = 0
        step = 0.0
        while index < MIN_INVOCATIONS or time.perf_counter() + step / 2 < deadline:
            started = time.perf_counter()
            inputs = self.inputs if index == 0 else self.workload.inputs(self.args.seed, index)
            clock = Clock()
            invocation = self.invoke(inputs, lambda: clock)
            walls.append(clock.reference_seconds)
            raw_walls.append(invocation.wall_s)
            rates.append(invocation.tally.live_packet_slots / clock.reference_seconds)
            tallies.append(invocation.tally)
            index += 1
            # Release the results before the next invocation, so the
            # benchmark's own references never add to peak_rss_mb.
            del inputs, invocation
            step = time.perf_counter() - started
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.workload.name == "catalog-pool":
            rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        setups = [self.setup_reference_s]
        setups += [_probe_setup(self.args) for _ in range(SETUP_SAMPLES - 1)]
        runs = sum(tally.checked_runs for tally in tallies)
        packets = sum(tally.packets for tally in tallies)
        values = {
            "wall_s": _median(walls),
            "setup_s": _median(setups),
            "packet_slots_per_s": _median(rates),
            "peak_rss_mb": rss_kb / 1024,
            "channel_throughput": sum(t.throughput_sum for t in tallies) / runs if runs else 0.0,
            "accesses_per_packet": sum(t.accesses for t in tallies) / packets if packets else 0.0,
        }
        print(
            f"{self.workload.name}: {runs} checked runs; invocation walls "
            f"{[round(wall, 4) for wall in walls]} reference s, "
            f"{[round(wall, 4) for wall in raw_walls]} s on this host; set-up samples "
            f"{[round(setup, 4) for setup in setups]} reference s"
        )
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
        _print_table(
            {
                **metrics,
                "failed_run_share": (self.failed / self.attempted, "fraction"),
                "live_packet_slots_per_invocation": (
                    _median([t.live_packet_slots for t in tallies]),
                    "packet-slots",
                ),
                "accesses_per_invocation": (_median([t.accesses for t in tallies]), "accesses"),
                "wall_this_host_s": (_median(raw_walls), "s"),
                "setup_this_host_s": (self.setup_s, "s"),
            }
        )
        return metrics

    def traced(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from alternating untraced and traced invocations."""
        from layers import PER_LAYER_UNITS, TracedRegion, layer_metrics, vector_cost
        from workloads import Stopwatch

        deadline = time.perf_counter() + self.args.seconds
        plain, traced = [], []
        while not plain or time.perf_counter() + plain[-1] + traced[-1][0] / 2 < deadline:
            plain.append(self.invoke(self.inputs, Stopwatch).wall_s)
            region = TracedRegion()
            invocation = self.invoke(self.inputs, lambda: region)
            traced.append((region.seconds, region.trace, invocation))
        traced.sort(key=lambda item: item[0])
        wall, trace, invocation = traced[len(traced) // 2]
        values = layer_metrics(trace, invocation)
        values["trace.overhead_ratio"] = _median([item[0] for item in traced]) / _median(plain)
        # Scaling points: the batch workloads' engine cost at N/4 and N/2 too.
        points = {1: (trace, invocation.tally)}
        if self.is_batch:
            for divisor in (4, 2):
                inputs = self.workload.inputs(self.args.seed, 0, n=self.workload.n // divisor)
                region = TracedRegion()
                tally = self.invoke(inputs, lambda: region).tally
                points[divisor] = (region.trace, tally)
        for divisor in (4, 2, 1):
            cost = vector_cost(*points[divisor]) if divisor in points else {}
            for name in ("ns_per_packet_slot", "ns_per_access"):
                values[f"sim.vector.n_div{divisor}.{name}"] = cost.get(name, 0.0)
        print(
            f"{self.workload.name}: {len(plain)} untraced and {len(traced)} traced "
            f"invocations; layer self times + residual = {wall:.6f} s traced wall"
        )
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
        _print_table(metrics)
        return metrics


def run_one(args: argparse.Namespace) -> int:
    _import_program()
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(args, workdir)
        run.set_up()
        if args.setup_only:
            print(json.dumps({"setup_s": run.setup_reference_s}))
            return 0
        metrics = run.traced() if args.trace else run.timed()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still holds its own work directory
    if len(run.fingerprints) > 1:
        run.problems.append("store fingerprints differ between invocations of the same inputs")
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    correct = run.failed == 0 and not run.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process; one combined JSON line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        command = _command(args, name, "--seconds", str(args.seconds), "--trace", str(args.trace))
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        status = status or completed.returncode or (0 if result["correct"] else 1)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sizes, for the benchmark's self-test"
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
