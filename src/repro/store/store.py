"""The SQLite-backed results store.

Layout on disk (``root`` is the store directory)::

    root/
      store.db                     # run registry + campaign bookkeeping
      artifacts/ab/abcdef....pkl   # content-addressed SimulationResult pickles

Design rules that the rest of the system depends on:

* **Runs are identified by content, not by history.**  A run row is keyed
  by ``(spec_hash, seed, backend_layout)`` — the spec's content hash
  (:meth:`~repro.experiments.plan.RunSpec.cache_key`), its seed, and the
  identity namespace of the result layout
  (:data:`repro.exec.backends.SCALAR_LAYOUT` for the bit-identical
  serial/process engines, :data:`repro.sim.vector.RESULT_LAYOUT` for the
  vector engine, whose results are a function of (spec, seed) too).
  Writing the same run twice is a no-op, which is what makes
  interrupted-and-resumed campaigns converge to the same store as
  uninterrupted ones.
* **Artifacts are content-addressed.**  The full pickled
  :class:`~repro.sim.results.SimulationResult` is stored under the SHA-256
  of its bytes, written atomically (temp file + rename).  Identical
  results share one file; a crash mid-write never leaves a torn artifact
  under a final name; an orphaned artifact (crash between artifact write
  and registry commit) is harmless because a re-run re-produces the exact
  same bytes under the exact same name.
* **Provenance columns never leak into identity.**  ``created_at``,
  ``elapsed_seconds`` and ``version`` record when/how a row was produced;
  :meth:`ResultsStore.fingerprint` — the canonical "are these two stores
  the same science?" digest — covers identities, artifact hashes and
  metric columns only, so two stores produced at different times or speeds
  still fingerprint identically when their results match bit-for-bit.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import pickle
import sqlite3
import subprocess
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.sim.results import SimulationResult
from repro.telemetry import current as current_telemetry

#: Bump when the registry schema changes incompatibly.
STORE_SCHEMA_VERSION = 1


class StoreError(RuntimeError):
    """The store on disk cannot be used by this version of the code."""

#: Headline-metric columns copied from ``SimulationResult.summary()`` into
#: the registry so queries and diffs never need to unpickle artifacts.
METRIC_COLUMNS = (
    "throughput",
    "implicit_throughput",
    "mean_accesses",
    "max_accesses",
    "mean_sends",
    "mean_listens",
    "max_backlog",
    "makespan",
    "num_arrivals",
    "num_delivered",
    "num_slots",
    "drained",
)

_SCHEMA = f"""
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS runs (
    spec_hash TEXT NOT NULL,
    seed INTEGER NOT NULL,
    backend_layout TEXT NOT NULL,
    artifact_hash TEXT NOT NULL,
    scenario_hash TEXT,
    source TEXT NOT NULL DEFAULT 'cache',
    protocol TEXT,
    version TEXT,
    created_at TEXT NOT NULL,
    elapsed_seconds REAL,
    {", ".join(f"{column} REAL" for column in METRIC_COLUMNS)},
    PRIMARY KEY (spec_hash, seed, backend_layout)
);
CREATE INDEX IF NOT EXISTS runs_by_scenario ON runs (scenario_hash);
CREATE INDEX IF NOT EXISTS runs_by_artifact ON runs (artifact_hash);
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id TEXT PRIMARY KEY,
    scenario_id TEXT,
    scenario_hash TEXT,
    definition TEXT,
    scale TEXT,
    seeds TEXT,
    backend TEXT,
    status TEXT NOT NULL,
    total_runs INTEGER NOT NULL,
    created_at TEXT NOT NULL,
    completed_at TEXT,
    elapsed_seconds REAL NOT NULL DEFAULT 0.0
);
CREATE TABLE IF NOT EXISTS campaign_runs (
    campaign_id TEXT NOT NULL,
    position INTEGER NOT NULL,
    group_id INTEGER NOT NULL,
    protocol TEXT,
    spec_hash TEXT NOT NULL,
    seed INTEGER NOT NULL,
    backend_layout TEXT NOT NULL,
    PRIMARY KEY (campaign_id, position)
);
CREATE TABLE IF NOT EXISTS campaign_units (
    campaign_id TEXT NOT NULL,
    unit_index INTEGER NOT NULL,
    group_id INTEGER NOT NULL,
    protocol TEXT,
    backend_layout TEXT NOT NULL,
    runs INTEGER NOT NULL,
    started_at TEXT,
    elapsed_seconds REAL NOT NULL,
    PRIMARY KEY (campaign_id, unit_index)
);
CREATE TABLE IF NOT EXISTS trajectories (
    spec_hash TEXT NOT NULL,
    seed INTEGER NOT NULL,
    backend_layout TEXT NOT NULL,
    window INTEGER NOT NULL,
    num_slots INTEGER NOT NULL,
    protocol TEXT,
    artifact_hash TEXT NOT NULL,
    created_at TEXT NOT NULL,
    PRIMARY KEY (spec_hash, seed, backend_layout)
);
CREATE TABLE IF NOT EXISTS perf_samples (
    sample_id INTEGER PRIMARY KEY AUTOINCREMENT,
    spec_hash TEXT NOT NULL,
    backend_layout TEXT NOT NULL,
    host TEXT NOT NULL,
    label TEXT,
    runs INTEGER NOT NULL,
    slots INTEGER NOT NULL,
    seconds REAL NOT NULL,
    slots_per_second REAL,
    version TEXT,
    created_at TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS perf_samples_by_group
    ON perf_samples (spec_hash, backend_layout, host);
"""


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


_VERSION_CACHE: str | None = None


def describe_version() -> str:
    """A best-effort code-version string for provenance columns.

    ``git describe`` when the package lives in a checkout, otherwise the
    installed distribution version, otherwise ``"unknown"``.  Never raises.
    """
    global _VERSION_CACHE
    if _VERSION_CACHE is not None:
        return _VERSION_CACHE
    version = "unknown"
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if proc.returncode == 0 and proc.stdout.strip():
            version = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    if version == "unknown":
        try:
            import importlib.metadata

            version = importlib.metadata.version("repro")
        except Exception:
            pass
    _VERSION_CACHE = version
    return version


@dataclass(frozen=True)
class StoredRun:
    """One registry row (metrics included, artifact not loaded)."""

    spec_hash: str
    seed: int
    backend_layout: str
    artifact_hash: str
    scenario_hash: str | None
    source: str
    protocol: str | None
    version: str | None
    created_at: str
    elapsed_seconds: float | None
    metrics: dict[str, float]


class ResultsStore:
    """A durable run registry plus content-addressed result artifacts.

    Open it as a context manager (or call :meth:`close`); all writes are
    transactional, and :meth:`put_run` is idempotent by design.
    """

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.artifacts_dir = self.root / "artifacts"
        self.db_path = self.root / "store.db"
        self._connection = sqlite3.connect(self.db_path)
        self._connection.row_factory = sqlite3.Row
        with self._connection:
            self._connection.executescript(_SCHEMA)
            self._connection.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES ('schema', ?)",
                (str(STORE_SCHEMA_VERSION),),
            )
        recorded = self._connection.execute(
            "SELECT value FROM meta WHERE key = 'schema'"
        ).fetchone()[0]
        if recorded != str(STORE_SCHEMA_VERSION):
            self._connection.close()
            raise StoreError(
                f"results store {self.root} was written with schema "
                f"v{recorded}; this code expects v{STORE_SCHEMA_VERSION} — "
                "use a matching version or start a fresh store directory"
            )

    # -- Lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._connection.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- Artifacts ---------------------------------------------------------

    def _artifact_path(self, artifact_hash: str) -> Path:
        return self.artifacts_dir / artifact_hash[:2] / f"{artifact_hash}.pkl"

    def _write_artifact(self, result: SimulationResult) -> str:
        # Dynamics trajectories are observability, not results: they are
        # persisted as *separate* artifacts (see put_run), and the run
        # artifact is pickled with the field stripped so its bytes — and
        # therefore the store fingerprint — are identical whether or not
        # the run was executed with dynamics sampling on.
        dynamics = getattr(result, "dynamics", None)
        if dynamics is not None:
            result.dynamics = None
        try:
            return self._write_payload(result)
        finally:
            if dynamics is not None:
                result.dynamics = dynamics

    def _write_payload(self, payload_object: Any) -> str:
        # Canonicalise through one pickle round trip before hashing:
        # pickle's memo encodes *object identity* (interned/shared strings
        # become backrefs), so a freshly built result and the same result
        # after a process-pool round trip serialise to different bytes.
        # Repickling an unpickled object is stable and identical across
        # those histories, which is what makes artifact hashes a function
        # of result content rather than of which backend produced it.
        payload = pickle.dumps(
            pickle.loads(pickle.dumps(payload_object, protocol=pickle.HIGHEST_PROTOCOL)),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        artifact_hash = hashlib.sha256(payload).hexdigest()
        path = self._artifact_path(artifact_hash)
        # Always write, even when the path exists: the name is the content
        # hash, so an existing *valid* file is replaced by identical bytes
        # (harmless), while an existing *corrupt* file — truncated by a
        # crash or damaged on disk — is healed instead of trusted.
        path.parent.mkdir(parents=True, exist_ok=True)
        temporary = path.with_suffix(f".tmp.{os.getpid()}")
        temporary.write_bytes(payload)
        temporary.replace(path)
        return artifact_hash

    def load_artifact(self, artifact_hash: str) -> SimulationResult | None:
        """Unpickle one artifact, or ``None`` if missing/corrupt.

        Each miss emits one ``artifact_unreadable`` telemetry event naming
        the artifact and the exception type.
        """
        try:
            with self._artifact_path(artifact_hash).open("rb") as handle:
                return pickle.load(handle)
        except Exception as exc:
            # Missing files, corrupt bytes or classes that moved between
            # versions: treat as absent so callers re-run instead of crashing.
            current_telemetry().event(
                "artifact_unreadable",
                artifact_hash=artifact_hash,
                error=type(exc).__name__,
            )
            return None

    # -- Runs --------------------------------------------------------------

    def put_run(
        self,
        spec_hash: str,
        seed: int,
        backend_layout: str,
        result: SimulationResult,
        *,
        scenario_hash: str | None = None,
        source: str = "cache",
        elapsed_seconds: float | None = None,
    ) -> str:
        """Store one run (idempotent); returns the artifact hash.

        An existing row under the same key keeps its provenance (source,
        scenario hash, timestamps) — runs are deterministic functions of
        their key, so the stored row is already the right one.  If the
        existing row's artifact hash disagrees with the fresh result's
        (possible only if determinism was violated by an older code
        version), the row's artifact hash and metrics are repaired in
        place, atomically, so the registry never points at bytes that
        will not be re-produced.
        """
        artifact_hash = self._write_artifact(result)
        summary = result.summary()
        # METRIC_COLUMNS names RunSummary fields, so the schema has one
        # source of truth: adding a column there is the whole change.
        metrics = {
            column: float(getattr(summary, column)) for column in METRIC_COLUMNS
        }
        columns = ", ".join(METRIC_COLUMNS)
        placeholders = ", ".join("?" for _ in METRIC_COLUMNS)
        metric_values = [metrics[column] for column in METRIC_COLUMNS]
        with self._connection:
            cursor = self._connection.execute(
                f"INSERT OR IGNORE INTO runs "
                f"(spec_hash, seed, backend_layout, artifact_hash, scenario_hash, "
                f" source, protocol, version, created_at, elapsed_seconds, {columns}) "
                f"VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, {placeholders})",
                (
                    spec_hash,
                    seed,
                    backend_layout,
                    artifact_hash,
                    scenario_hash,
                    source,
                    summary.protocol,
                    describe_version(),
                    _utcnow(),
                    elapsed_seconds,
                    *metric_values,
                ),
            )
            if cursor.rowcount == 0:
                assignments = ", ".join(f"{column} = ?" for column in METRIC_COLUMNS)
                self._connection.execute(
                    f"UPDATE runs SET artifact_hash = ?, {assignments} "
                    f"WHERE spec_hash = ? AND seed = ? AND backend_layout = ? "
                    f"AND artifact_hash != ?",
                    (
                        artifact_hash,
                        *metric_values,
                        spec_hash,
                        seed,
                        backend_layout,
                        artifact_hash,
                    ),
                )
        dynamics = getattr(result, "dynamics", None)
        if dynamics is not None:
            self.put_trajectory(
                spec_hash,
                seed,
                backend_layout,
                dynamics,
                protocol=summary.protocol,
            )
        return artifact_hash

    def get_run(
        self, spec_hash: str, seed: int, backend_layout: str
    ) -> StoredRun | None:
        row = self._connection.execute(
            "SELECT * FROM runs WHERE spec_hash = ? AND seed = ? AND backend_layout = ?",
            (spec_hash, seed, backend_layout),
        ).fetchone()
        return self._stored_run(row) if row is not None else None

    def get_result(
        self, spec_hash: str, seed: int, backend_layout: str
    ) -> SimulationResult | None:
        """The full artifact of one run, or ``None`` if absent/corrupt."""
        run = self.get_run(spec_hash, seed, backend_layout)
        if run is None:
            return None
        return self.load_artifact(run.artifact_hash)

    def has_run(self, spec_hash: str, seed: int, backend_layout: str) -> bool:
        return self.get_run(spec_hash, seed, backend_layout) is not None

    def iter_runs(self, *, source: str | None = None) -> list[StoredRun]:
        query = "SELECT * FROM runs"
        params: tuple[Any, ...] = ()
        if source is not None:
            query += " WHERE source = ?"
            params = (source,)
        query += " ORDER BY spec_hash, seed, backend_layout"
        return [self._stored_run(row) for row in self._connection.execute(query, params)]

    def _stored_run(self, row: sqlite3.Row) -> StoredRun:
        return StoredRun(
            spec_hash=row["spec_hash"],
            seed=row["seed"],
            backend_layout=row["backend_layout"],
            artifact_hash=row["artifact_hash"],
            scenario_hash=row["scenario_hash"],
            source=row["source"],
            protocol=row["protocol"],
            version=row["version"],
            created_at=row["created_at"],
            elapsed_seconds=row["elapsed_seconds"],
            metrics={column: row[column] for column in METRIC_COLUMNS},
        )

    # -- Trajectories ------------------------------------------------------

    def put_trajectory(
        self,
        spec_hash: str,
        seed: int,
        backend_layout: str,
        trajectory: Any,
        *,
        protocol: str | None = None,
    ) -> str:
        """Persist one dynamics trajectory as a content-addressed artifact.

        Trajectories live in their own registry table and their own
        artifacts — :meth:`fingerprint` covers only ``runs`` and
        ``campaign_runs``, so storing (or re-storing) a trajectory can
        never move a store fingerprint.
        """
        artifact_hash = self._write_payload(trajectory)
        with self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO trajectories (spec_hash, seed, "
                "backend_layout, window, num_slots, protocol, artifact_hash, "
                "created_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    spec_hash,
                    seed,
                    backend_layout,
                    int(trajectory.window),
                    int(trajectory.num_slots),
                    protocol,
                    artifact_hash,
                    _utcnow(),
                ),
            )
        return artifact_hash

    def get_trajectory(
        self, spec_hash: str, seed: int, backend_layout: str
    ) -> Any | None:
        """The stored trajectory of one run, or ``None`` if absent/corrupt."""
        row = self._connection.execute(
            "SELECT artifact_hash FROM trajectories WHERE spec_hash = ? "
            "AND seed = ? AND backend_layout = ?",
            (spec_hash, seed, backend_layout),
        ).fetchone()
        if row is None:
            return None
        return self.load_artifact(row["artifact_hash"])

    def trajectory_rows(self, *, spec_prefix: str | None = None) -> list[dict[str, Any]]:
        """Trajectory registry rows, optionally filtered by spec-hash prefix."""
        query = "SELECT * FROM trajectories"
        params: tuple[Any, ...] = ()
        if spec_prefix:
            query += " WHERE spec_hash LIKE ?"
            params = (spec_prefix + "%",)
        query += " ORDER BY spec_hash, seed, backend_layout"
        return [dict(row) for row in self._connection.execute(query, params)]

    # -- Performance history -----------------------------------------------

    def put_perf_sample(
        self,
        *,
        spec_hash: str,
        backend_layout: str,
        host: str,
        seconds: float,
        runs: int = 0,
        slots: int = 0,
        slots_per_second: float | None = None,
        label: str | None = None,
    ) -> int:
        """Append one wall-clock sample to the performance history.

        Samples are keyed by (spec_hash, backend_layout, host) — drift
        detection only ever compares within one group.  The table is
        append-only provenance: it is excluded from :meth:`fingerprint`,
        so recording perf can never change what the store *means*.
        Returns the new sample's rowid.
        """
        with self._connection:
            cursor = self._connection.execute(
                "INSERT INTO perf_samples (spec_hash, backend_layout, host, "
                "label, runs, slots, seconds, slots_per_second, version, "
                "created_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    spec_hash,
                    backend_layout,
                    host,
                    label,
                    int(runs),
                    int(slots),
                    float(seconds),
                    float(slots_per_second) if slots_per_second is not None else None,
                    describe_version(),
                    _utcnow(),
                ),
            )
        return int(cursor.lastrowid or 0)

    def perf_sample_rows(
        self, *, spec_prefix: str | None = None
    ) -> list[dict[str, Any]]:
        """Perf history rows in recording order (oldest first).

        Recording order — not timestamp order — is the drift-detection
        contract: ``detect_drift`` windows a series by position.
        """
        query = "SELECT * FROM perf_samples"
        params: tuple[Any, ...] = ()
        if spec_prefix:
            query += " WHERE spec_hash LIKE ?"
            params = (spec_prefix + "%",)
        query += " ORDER BY sample_id"
        return [dict(row) for row in self._connection.execute(query, params)]

    # -- Campaigns ---------------------------------------------------------

    def create_campaign(
        self,
        campaign_id: str,
        *,
        scenario_id: str | None,
        scenario_hash: str | None,
        definition: Mapping[str, Any] | None,
        scale: str,
        seeds: Sequence[int],
        backend: str,
        total_runs: int,
    ) -> None:
        with self._connection:
            self._connection.execute(
                "INSERT INTO campaigns (campaign_id, scenario_id, scenario_hash, "
                "definition, scale, seeds, backend, status, total_runs, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, 'running', ?, ?)",
                (
                    campaign_id,
                    scenario_id,
                    scenario_hash,
                    json.dumps(definition, sort_keys=True) if definition else None,
                    scale,
                    json.dumps(list(seeds)),
                    backend,
                    total_runs,
                    _utcnow(),
                ),
            )

    def get_campaign(self, campaign_id: str) -> dict[str, Any] | None:
        row = self._connection.execute(
            "SELECT * FROM campaigns WHERE campaign_id = ?", (campaign_id,)
        ).fetchone()
        return dict(row) if row is not None else None

    def list_campaigns(self) -> list[dict[str, Any]]:
        rows = self._connection.execute(
            "SELECT * FROM campaigns ORDER BY created_at, campaign_id"
        ).fetchall()
        return [dict(row) for row in rows]

    def campaign_run_count(self, campaign_id: str) -> int:
        """Recorded runs of one campaign (constant memory; for progress)."""
        return self._connection.execute(
            "SELECT COUNT(*) FROM campaign_runs WHERE campaign_id = ?",
            (campaign_id,),
        ).fetchone()[0]

    def campaign_run_rows(self, campaign_id: str) -> list[dict[str, Any]]:
        rows = self._connection.execute(
            "SELECT * FROM campaign_runs WHERE campaign_id = ? ORDER BY position",
            (campaign_id,),
        ).fetchall()
        return [dict(row) for row in rows]

    def record_campaign_unit(
        self,
        campaign_id: str,
        entries: Iterable[tuple[int, int, str, str, int, str]],
        *,
        elapsed_seconds: float,
        unit_index: int | None = None,
        started_at: str | None = None,
    ) -> None:
        """Commit one completed campaign unit.

        ``entries`` are ``(position, group_id, protocol, spec_hash, seed,
        backend_layout)`` tuples.  One transaction per unit is the
        checkpoint granularity: after this returns, a kill loses at most
        the unit in flight.

        When ``unit_index`` is given, a per-unit wall-clock span is also
        persisted in ``campaign_units`` (in the same transaction), which
        is what backs ``campaign status``'s elapsed/ETA display.  Unit
        spans are provenance, not science: :meth:`fingerprint` covers only
        ``runs`` and ``campaign_runs``, so recording them — always, with
        telemetry on or off — cannot move a fingerprint.
        """
        entries = list(entries)
        with self._connection:
            self._connection.executemany(
                "INSERT OR REPLACE INTO campaign_runs "
                "(campaign_id, position, group_id, protocol, spec_hash, seed, "
                " backend_layout) VALUES (?, ?, ?, ?, ?, ?, ?)",
                [(campaign_id, *entry) for entry in entries],
            )
            self._connection.execute(
                "UPDATE campaigns SET elapsed_seconds = elapsed_seconds + ? "
                "WHERE campaign_id = ?",
                (elapsed_seconds, campaign_id),
            )
            if unit_index is not None and entries:
                self._connection.execute(
                    "INSERT OR REPLACE INTO campaign_units (campaign_id, "
                    "unit_index, group_id, protocol, backend_layout, runs, "
                    "started_at, elapsed_seconds) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        campaign_id,
                        unit_index,
                        entries[0][1],
                        entries[0][2],
                        entries[0][5],
                        len(entries),
                        started_at,
                        elapsed_seconds,
                    ),
                )

    def campaign_units(self, campaign_id: str) -> list[dict[str, Any]]:
        """Persisted per-unit wall-clock spans, in unit order."""
        rows = self._connection.execute(
            "SELECT * FROM campaign_units WHERE campaign_id = ? ORDER BY unit_index",
            (campaign_id,),
        ).fetchall()
        return [dict(row) for row in rows]

    def finish_campaign(self, campaign_id: str) -> None:
        with self._connection:
            self._connection.execute(
                "UPDATE campaigns SET status = 'complete', completed_at = ? "
                "WHERE campaign_id = ?",
                (_utcnow(), campaign_id),
            )

    # -- Identity ----------------------------------------------------------

    def fingerprint(self) -> str:
        """Canonical SHA-256 over the store's *scientific* content.

        Covers every run row's identity, artifact hash and metric columns,
        plus the campaign run-membership tables — and deliberately excludes
        timestamps, versions, elapsed times and campaign status, so an
        interrupted-then-resumed campaign fingerprints identically to an
        uninterrupted one.  Artifacts are content-addressed, so equal
        fingerprints imply byte-identical artifact payloads.
        """
        # source and scenario_hash are provenance (how the row got here),
        # not science: a run first stored by `--cache-dir` and later
        # adopted by a campaign must fingerprint the same as one the
        # campaign executed itself.
        runs = [
            [
                run.spec_hash,
                run.seed,
                run.backend_layout,
                run.artifact_hash,
                run.protocol,
                [repr(run.metrics[column]) for column in METRIC_COLUMNS],
            ]
            for run in self.iter_runs()
        ]
        memberships = sorted(
            (
                row["campaign_id"],
                row["position"],
                row["group_id"],
                row["protocol"],
                row["spec_hash"],
                row["seed"],
                row["backend_layout"],
            )
            for row in self._connection.execute("SELECT * FROM campaign_runs")
        )
        payload = json.dumps(
            {"runs": runs, "campaign_runs": memberships},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # -- Maintenance -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Entry counts and on-disk sizes (for ``cache stats``)."""
        run_count = self._connection.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
        by_source = dict(
            self._connection.execute(
                "SELECT source, COUNT(*) FROM runs GROUP BY source"
            ).fetchall()
        )
        by_layout = dict(
            self._connection.execute(
                "SELECT backend_layout, COUNT(*) FROM runs GROUP BY backend_layout"
            ).fetchall()
        )
        campaign_count = self._connection.execute(
            "SELECT COUNT(*) FROM campaigns"
        ).fetchone()[0]
        trajectory_count = self._connection.execute(
            "SELECT COUNT(*) FROM trajectories"
        ).fetchone()[0]
        perf_sample_count = self._connection.execute(
            "SELECT COUNT(*) FROM perf_samples"
        ).fetchone()[0]
        artifact_files = list(self.artifacts_dir.rglob("*.pkl"))
        artifact_bytes = sum(path.stat().st_size for path in artifact_files)
        return {
            "root": str(self.root),
            "runs": run_count,
            "runs_by_source": by_source,
            "runs_by_layout": by_layout,
            "campaigns": campaign_count,
            "trajectories": trajectory_count,
            "perf_samples": perf_sample_count,
            "artifacts": len(artifact_files),
            "artifact_bytes": artifact_bytes,
            "db_bytes": self.db_path.stat().st_size if self.db_path.exists() else 0,
        }

    def prune(
        self,
        *,
        older_than_days: float | None = None,
        max_bytes: int | None = None,
        dry_run: bool = False,
    ) -> dict[str, Any]:
        """Prune cache-sourced runs by age and/or total artifact size.

        Only rows not referenced by any campaign are candidates (campaign
        stores are the durable record ``campaign diff`` compares against).
        ``older_than_days`` drops candidates older than the cutoff;
        ``max_bytes`` then drops oldest-first until the store's artifact
        payload fits.  Orphaned artifacts (referenced by no remaining row)
        are deleted last.  Returns a summary of what was (or would be,
        with ``dry_run``) removed.
        """
        candidates = [
            ((spec_hash, seed, layout), created_at)
            for spec_hash, seed, layout, created_at in self._connection.execute(
                "SELECT spec_hash, seed, backend_layout, created_at "
                "FROM runs WHERE NOT EXISTS ("
                "  SELECT 1 FROM campaign_runs c WHERE c.spec_hash = runs.spec_hash "
                "  AND c.seed = runs.seed AND c.backend_layout = runs.backend_layout"
                ") ORDER BY created_at, spec_hash"
            )
        ]
        # One read of every artifact reference.  Trajectory rows share the
        # run key space and die with their run, so a doomed key releases its
        # run artifact and its trajectory artifact; an artifact's bytes are
        # freed when its last reference goes.
        references: Counter[str] = Counter()
        artifacts_of: dict[tuple, list[str]] = {}
        for table in ("runs", "trajectories"):
            for spec_hash, seed, layout, artifact_hash in self._connection.execute(
                f"SELECT spec_hash, seed, backend_layout, artifact_hash FROM {table}"
            ):
                references[artifact_hash] += 1
                artifacts_of.setdefault((spec_hash, seed, layout), []).append(
                    artifact_hash
                )
        sizes = {
            path.stem: path.stat().st_size
            for path in self.artifacts_dir.rglob("*.pkl")
        }
        doomed: list[tuple] = []

        def doom(key: tuple) -> int:
            """Drop ``key``'s references; returns the bytes that frees."""
            doomed.append(key)
            freed = 0
            for artifact_hash in artifacts_of.pop(key, ()):
                references[artifact_hash] -= 1
                if not references[artifact_hash]:
                    freed += sizes.get(artifact_hash, 0)
            return freed

        if older_than_days is not None:
            cutoff = (
                datetime.datetime.now(datetime.timezone.utc)
                - datetime.timedelta(days=older_than_days)
            ).isoformat(timespec="seconds")
            for key, created_at in candidates:
                if created_at < cutoff:
                    doom(key)
        if max_bytes is not None:
            # Size after this prune = artifacts some surviving row still
            # references (orphans are swept regardless); oldest go first,
            # skipping keys the age cut already doomed.
            total = sum(size for stem, size in sizes.items() if references[stem])
            for key, _ in candidates:
                if total <= max_bytes:
                    break
                if key in artifacts_of:
                    total -= doom(key)
        if not dry_run:
            with self._connection:
                self._connection.executemany(
                    "DELETE FROM runs WHERE spec_hash = ? AND seed = ? "
                    "AND backend_layout = ?",
                    doomed,
                )
                # A trajectory without its run row is dead weight; dropping
                # it here lets the orphan sweep reclaim its artifact too.
                self._connection.executemany(
                    "DELETE FROM trajectories WHERE spec_hash = ? AND seed = ? "
                    "AND backend_layout = ?",
                    doomed,
                )
            removed_files, removed_bytes = self._sweep_orphan_artifacts()
        else:
            orphans = [size for stem, size in sizes.items() if not references[stem]]
            removed_files, removed_bytes = len(orphans), sum(orphans)
        return {
            "removed_runs": len(doomed),
            "removed_artifacts": removed_files,
            "removed_bytes": removed_bytes,
            "dry_run": dry_run,
        }

    def _referenced_hashes(self) -> set[str]:
        return {
            row[0]
            for row in self._connection.execute("SELECT artifact_hash FROM runs")
        } | {
            row[0]
            for row in self._connection.execute(
                "SELECT artifact_hash FROM trajectories"
            )
        }

    def _sweep_orphan_artifacts(self) -> tuple[int, int]:
        referenced = self._referenced_hashes()
        removed_files = 0
        removed_bytes = 0
        for path in self.artifacts_dir.rglob("*.pkl"):
            if path.stem not in referenced:
                removed_bytes += path.stat().st_size
                path.unlink()
                removed_files += 1
        # Temp files orphaned by a kill mid-write (the crash mode campaigns
        # are built to survive) would otherwise be invisible to every
        # *.pkl glob forever.  A minute of age keeps a concurrent writer's
        # in-flight temp safe.
        import time

        cutoff = time.time() - 60.0
        for path in self.artifacts_dir.rglob("*.tmp.*"):
            try:
                if path.stat().st_mtime < cutoff:
                    removed_bytes += path.stat().st_size
                    path.unlink()
                    removed_files += 1
            except OSError:
                pass
        return removed_files, removed_bytes
