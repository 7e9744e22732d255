"""The three closed-loop workloads and the oracle that checks them.

Every workload has the same shape.  ``build`` makes a deployment and is
timed: the first build is the one the run uses, and the rest of the
``setups`` builds are spread over the window (between units, outside
every timed operation) and torn down again, so ``setup_s`` -- their
median -- does not hang on one moment of the host.  ``prepare`` loads the
starting log untimed.  In the measured window ``step`` runs one
unit of closed-loop work -- the next unit starts only when the previous
one has returned -- until the window has lasted ``--seconds`` and at least
``min_units`` units have run.  Each call into the program is one timed
operation of kind ``query``, ``ingest`` or ``integrity``, and every kind
recurs in every unit or every few units, so a workload's samples of each
kind spread over the whole window.  Each answer is checked against the
centralized oracle after the clock has stopped.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import dataclass, field

from gen import Inputs
from group14 import group14_prime, verified_group14_prime
from repro.baseline.centralized import CentralizedAuditor
from repro.cache.lru import cache_stats_snapshot
from repro.core.service import ConfidentialAuditingService
from repro.crypto import DeterministicRng
from repro.errors import ReproError
from repro.logstore import paper_fragment_plan, paper_table1_schema
from repro.logstore.records import LogRecord
from repro.shard import ShardedAuditingService

FAILED = object()

#: Rows per ingest epoch on audit-2048 and fanout-64, dealt from a deck.
#: Sizes within about 2x of each other, so the epoch latencies of the
#: host's fast and slow spells overlap and their median moves smoothly.
BURST_SIZES = (3, 4, 5, 6, 7)

#: Criteria per ``query_many`` call on fanout-64.
FANOUT_BATCH = 8


class WrongAnswer(Exception):
    """The program's output disagrees with the oracle: no measurement."""


@dataclass(frozen=True)
class Scale:
    """Workload sizes; the benchmark's own runs use :data:`FULL`."""

    audit_rows: int = 12
    audit_min_rounds: int = 7
    audit_bursts: int = 3  # on each side of a request
    audit_setups: int = 9
    fanout_rows: int = 400
    fanout_min_batches: int = 100
    fanout_integrity_every: int = 5
    fanout_setups: int = 25
    ingest_prepop: int = 1024
    ingest_epoch: int = 64
    ingest_min_epochs: int = 80
    ingest_integrity_every: int = 10
    ingest_window: int = 256
    ingest_setups: int = 5


FULL = Scale()
TINY = Scale(
    audit_rows=4,
    audit_min_rounds=1,
    audit_bursts=1,
    audit_setups=1,
    fanout_rows=48,
    fanout_min_batches=2,
    fanout_integrity_every=1,
    fanout_setups=1,
    ingest_prepop=32,
    ingest_epoch=16,
    ingest_min_epochs=2,
    ingest_integrity_every=1,
    ingest_window=16,
    ingest_setups=1,
)


class Oracle:
    """The centralized auditor (paper Figure 1) over the same rows."""

    def __init__(self, schema) -> None:
        self.central = CentralizedAuditor(schema)

    def add(self, glsns, rows) -> None:
        for glsn, values in zip(glsns, rows, strict=True):
            self.central.ingest(LogRecord(glsn=glsn, values=values))

    def matches(self, criterion: str) -> list[int]:
        return sorted(self.central.execute(criterion))

    def check_query(self, criterion: str, glsns) -> None:
        want = self.matches(criterion)
        if sorted(glsns) != want:
            raise WrongAnswer(
                f"{criterion!r}: program returned {len(glsns)} glsns, "
                f"oracle {len(want)}"
            )

    def check_aggregate(self, op, attribute, criterion, value) -> None:
        want = self.central.aggregate(op, attribute, criterion)
        if value != want:
            raise WrongAnswer(f"{op}({attribute}) where {criterion!r}: {value} != {want}")

    def check_integrity(self, reports) -> None:
        rows = len(self.central.records)
        if len(reports) != rows:
            raise WrongAnswer(f"integrity round covered {len(reports)} of {rows} rows")
        bad = [r.glsn for r in reports if not (r.verified and r.ok)]
        if bad:
            raise WrongAnswer(f"integrity round did not verify glsns {bad[:5]}")


class Recorder:
    """Timed operations of one run, grouped by kind."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.samples: dict[str, list[tuple[float, int]]] = {
            "query": [],
            "ingest": [],
            "integrity": [],
        }
        self.attempted = 0
        self.failed = 0

    def op(self, kind: str, fn, units: int = 1):
        """Run ``fn`` as one operation; typed program errors count as failed."""
        self.attempted += 1
        with self.tracer.request(kind):
            start = time.perf_counter()
            try:
                result = fn()
            except ReproError:
                self.failed += 1
                return FAILED
            elapsed = time.perf_counter() - start
        self.samples[kind].append((elapsed, units))
        return result


def _start_worker_pool(engine) -> None:
    """Fork the exponentiation engine's worker processes before the window.

    A deployment pays that once per process, not per operation; a job
    this large always goes to the pool when the host has more than one
    core.
    """
    p = group14_prime()
    engine.pow_many([2, 3], p - 2, p)


def _service_rng(label: str) -> DeterministicRng:
    """The deployment's own keys and parameters: the same for every seed,
    so set-up does the same work whatever the inputs are."""
    return DeterministicRng(f"perfbench:{label}".encode())


def _crypto_ledgers(services) -> dict:
    out = {"modexp": 0, "offline": 0, "integrity": 0, "pool_hits": 0, "pool_misses": 0}
    for svc in services:
        ops = svc.ctx.crypto_ops.snapshot()
        out["modexp"] += ops.get("total.modexp", 0)
        out["offline"] += ops.get("offline.modexp", 0)
        integrity = getattr(svc, "integrity_ops", None)  # None: shard coordinator
        if integrity is None:
            continue
        out["integrity"] += integrity.snapshot().get("total.modexp", 0)
        for row in svc.precompute.pool_snapshot().values():
            out["pool_hits"] += row["hits"]
            out["pool_misses"] += row["misses"]
    return out


def _cache_ledgers() -> dict:
    out = {}
    for name, row in cache_stats_snapshot().items():
        for level in ("scan", "projection"):
            if name.endswith(f".{level}"):
                hits, misses = out.get(level, (0, 0))
                out[level] = (hits + row["hits"], misses + row["misses"])
    return out


@dataclass
class Workload:
    """Shared plumbing; subclasses fill in build/prepare/step."""

    inputs: Inputs
    scale: Scale
    workdir: str
    schema: object = field(default_factory=paper_table1_schema)
    service: object = None
    user_bytes: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        self.plan = paper_fragment_plan(self.schema)
        self.oracle = Oracle(self.schema)

    def before_build(self):
        """Untimed work before each timed :meth:`build`; its result is
        passed to ``build``."""
        return None

    def discard(self, deployment) -> None:
        """Tear down a deployment built only to time set-up."""
        deployment.close()

    def prepare(self) -> None:
        """Untimed work after the first build, before the window opens."""

    def _ingest_burst(self, rec: Recorder) -> None:
        """One ingest epoch of routing-only rows through ``self._append``."""
        rows = self.inputs.routing_rows(BURST_SIZES)
        receipts = rec.op("ingest", lambda: self._append(rows), units=len(rows))
        if receipts is not FAILED:
            self.oracle.add([r.glsn for r in receipts], rows)
        self._count_user_bytes(rows)

    def finish(self) -> None:
        """Checks that need the whole run (standing-query deltas)."""

    def _count_user_bytes(self, rows) -> None:
        self.user_bytes += sum(len(json.dumps(row)) for row in rows)

    def _integrity(self, rec: Recorder) -> None:
        reports = rec.op(
            "integrity",
            self.service.check_integrity,
            units=len(self.oracle.central.records),
        )
        if reports is not FAILED:
            if isinstance(reports, dict):  # sharded: one list per ring
                reports = [r for ring in reports.values() for r in ring]
            self.oracle.check_integrity(reports)

    def services(self) -> list:
        return [self.service]

    def ledgers(self) -> dict:
        return {"crypto": _crypto_ledgers(self.services()), "cache": _cache_ledgers()}

    def close(self) -> None:
        if self.service is not None:
            self.discard(self.service)
            self.service = None


class Audit2048(Workload):
    """Serial auditor on an in-memory service at the RFC 3526 2048-bit prime."""

    name = "audit-2048"

    def __post_init__(self) -> None:
        super().__post_init__()
        # Built and Miller-Rabin checked once, outside setup_s.
        self.prime = verified_group14_prime()
        self.mix = self.inputs.audit_mix()
        self.setups = self.scale.audit_setups
        self.min_units = self.scale.audit_min_rounds
        self.min_samples = {
            "query": self.scale.audit_min_rounds * len(self.mix),
            "ingest": (
                self.scale.audit_min_rounds * len(self.mix) * 2 * self.scale.audit_bursts
            ),
        }
        self.description = (
            f"prime=RFC3526-group14 ({self.prime.bit_length()} bits, verified); "
            f"{self.scale.audit_rows} audited rows; {self.scale.audit_bursts} bursts of "
            f"{BURST_SIZES} routing-only rows before and after each request; "
            f"mix={[kind for kind, _ in self.mix]}"
        )

    def build(self, _arg) -> ConfidentialAuditingService:
        service = ConfidentialAuditingService(
            self.schema,
            self.plan,
            prime=self.prime,
            rng=_service_rng("audit"),
        )
        service.warm_pools()
        return service

    def prepare(self) -> None:
        self.ticket = self.service.register_user("perfbench-app")
        rows = self.inputs.rows(self.scale.audit_rows)
        receipts = self.service.append_stream(rows, self.ticket)
        self.oracle.add([r.glsn for r in receipts], rows)
        _start_worker_pool(self.service.ctx.engine)

    def _append(self, rows):
        return self.service.append_stream(rows, self.ticket, batch_size=len(rows))

    def step(self, rec: Recorder, index: int) -> None:
        service = self.service
        for kind, arg in self.mix:
            # Ingest epochs and integrity rounds interleave with the
            # requests, so their samples spread over the whole window.
            # Several short bursts on each side of a request give the
            # epoch-latency median enough samples to settle.
            for _ in range(self.scale.audit_bursts):
                self._ingest_burst(rec)
            if kind == "query":
                result = rec.op("query", lambda: service.query(arg))
                if result is not FAILED:
                    self.oracle.check_query(arg, result.glsns)
            elif kind == "aggregate":
                result = rec.op("query", lambda: service.aggregate(*arg))
                if result is not FAILED:
                    self.oracle.check_aggregate(*arg, result.value)
            else:
                report = rec.op("query", lambda: service.audited_query(arg))
                if report is not FAILED:
                    if not service.verify_report(report):
                        raise WrongAnswer(f"signed report for {arg!r} fails verification")
                    self.oracle.check_query(arg, report.glsns)
            for _ in range(self.scale.audit_bursts):
                self._ingest_burst(rec)
            self._integrity(rec)


class Fanout64(Workload):
    """Batched scatter-gather over the default two rings, 64-bit toy prime."""

    name = "fanout-64"

    def __post_init__(self) -> None:
        super().__post_init__()
        self.previous: list[str] = []
        self.setups = self.scale.fanout_setups
        self.min_units = self.scale.fanout_min_batches
        self.min_samples = {
            "query": self.scale.fanout_min_batches,
            "ingest": self.scale.fanout_min_batches,
        }
        self.description = (
            "prime=64-bit toy prime (framework overhead only); "
            f"{self.scale.fanout_rows} rows; a burst of {BURST_SIZES} routing-only "
            "rows before each batch; "
            f"query_many batches of {FANOUT_BATCH}"
        )

    def build(self, _arg) -> ShardedAuditingService:
        # ShardedAuditingService has no prime= argument and the library's
        # safe-prime table stops at 512 bits, so this stays at 64 bits.
        return ShardedAuditingService(
            self.schema,
            self.plan,
            prime_bits=64,
            rng=_service_rng("fanout"),
        )

    def prepare(self) -> None:
        self.ticket = self.service.register_user("perfbench-app")
        rows = self.inputs.rows(self.scale.fanout_rows)
        receipts = [self.service.log_event(row, self.ticket) for row in rows]
        self.oracle.add([r.glsn for r in receipts], rows)
        _start_worker_pool(self.service.shards[0].ctx.engine)

    def services(self) -> list:
        return [*self.service.shards, self.service]

    def discard(self, deployment) -> None:
        deployment.shutdown()

    def _append(self, rows):
        return [self.service.log_event(row, self.ticket) for row in rows]

    def step(self, rec: Recorder, index: int) -> None:
        self._ingest_burst(rec)
        batch = self.inputs.fanout_batch(self.previous, FANOUT_BATCH)
        results = rec.op("query", lambda: self.service.query_many(batch), units=len(batch))
        if results is not FAILED:
            for criterion, result in zip(batch, results, strict=True):
                self.oracle.check_query(criterion, result.glsns)
        self.previous = batch
        if (index + 1) % self.scale.fanout_integrity_every == 0:
            self._integrity(rec)


class IngestDurable(Workload):
    """Streaming ingest into a reopened durable store, standing queries on."""

    name = "ingest-durable"

    def __post_init__(self) -> None:
        super().__post_init__()
        self.standing = self.inputs.standing_criteria()
        self.setups = self.scale.ingest_setups
        self.min_units = self.scale.ingest_min_epochs
        self.min_samples = {
            "query": self.scale.ingest_min_epochs,
            "ingest": self.scale.ingest_min_epochs,
        }
        self.template = os.path.join(self.workdir, "template")
        self._stores = 0
        self._build_template()
        self.description = (
            f"durable store reopened over {self.scale.ingest_prepop} rows; "
            f"{self.scale.ingest_epoch}-row epochs; "
            f"fsync={self.service_fsync()}; standing={self.standing}"
        )

    def service_fsync(self) -> str:
        from repro.store import StoreConfig

        return StoreConfig.from_env().fsync

    def _new_service(self, directory: str) -> ConfidentialAuditingService:
        return ConfidentialAuditingService(
            self.schema,
            self.plan,
            rng=_service_rng("ingest"),
            store_dir=directory,
        )

    def _build_template(self) -> None:
        rows = self.inputs.rows(self.scale.ingest_prepop)
        service = self._new_service(self.template)
        try:
            ticket = service.register_user("perfbench-app")
            receipts = service.append_stream(rows, ticket, batch_size=self.scale.ingest_epoch)
        finally:
            service.close()
        self.oracle.add([r.glsn for r in receipts], rows)

    def before_build(self) -> str:
        self._stores += 1
        store_dir = os.path.join(self.workdir, f"store{self._stores}")
        shutil.copytree(self.template, store_dir)
        return store_dir

    def build(self, store_dir: str) -> ConfidentialAuditingService:
        # WAL replay plus checkpoint load of the pre-populated copy.
        return self._new_service(store_dir)

    def prepare(self) -> None:
        if not self.service.last_recovery.audit_ok:
            raise WrongAnswer(f"recovery audit failed: {self.service.last_recovery}")
        self.ticket = self.service.register_user("perfbench-app")
        _start_worker_pool(self.service.ctx.engine)
        self.seen = {criterion: set() for criterion in self.standing}
        for criterion in self.standing:
            self.service.register_standing_query(
                criterion, on_delta=lambda d, c=criterion: self._apply_delta(c, d)
            )

    def _apply_delta(self, criterion: str, delta) -> None:
        seen = self.seen[criterion]
        seen.difference_update(delta.removed)
        seen.update(delta.added)

    def step(self, rec: Recorder, index: int) -> None:
        rows = self.inputs.rows(self.scale.ingest_epoch)
        receipts = rec.op(
            "ingest",
            lambda: self.service.append_stream(rows, self.ticket, batch_size=len(rows)),
            units=len(rows),
        )
        if receipts is not FAILED:
            self.oracle.add([r.glsn for r in receipts], rows)
        self._count_user_bytes(rows)
        criterion = self.inputs.adhoc_criterion(self.scale.ingest_window)
        result = rec.op("query", lambda: self.service.query(criterion))
        if result is not FAILED:
            self.oracle.check_query(criterion, result.glsns)
        if (index + 1) % self.scale.ingest_integrity_every == 0:
            self._integrity(rec)

    def finish(self) -> None:
        for criterion, seen in self.seen.items():
            want = self.oracle.matches(criterion)
            if sorted(seen) != want:
                raise WrongAnswer(
                    f"standing {criterion!r}: deltas add up to {len(seen)} glsns, "
                    f"oracle {len(want)}"
                )


WORKLOADS = {cls.name: cls for cls in (Audit2048, Fanout64, IngestDurable)}
