"""Span recorder installed around the program's layer boundaries.

Nothing under ``src/`` is edited: :func:`install` replaces public methods
and the module-level bindings callers actually look up (for example the
SMC drivers imported by name into ``repro.audit.executor``) with thin
wrappers that record a span per call while :attr:`Tracer.enabled` is set.

A span is ``(id, parent, name, start, end, request, phase)``.  The parent
and request ids travel in a :mod:`contextvars` variable, so they follow a
query into the scheduler's event-loop thread: ``run_coroutine_threadsafe``
copies the submitting thread's context into the task it creates.  Spans
stay in memory and are written out by :meth:`Tracer.write`.

Self time of a span is its duration minus the part of its interval that
its direct children cover.  The process-pool engine's ``pow_many`` is a
leaf span whose self time is the caller's wait on the worker processes,
so it is reported as ``perf.pool.wait_s`` and is never folded into the
self time of the SMC or network code that called it.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (span id, request id) of the innermost open span of this context.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=(0, 0)
)

# Span-name prefix -> the repro module (layer) it times.
LAYERS = {
    "perf": "repro.perf",
    "precompute": "repro.precompute",
    "smc": "repro.smc",
    "net": "repro.net",
    "audit": "repro.audit",
    "aio": "repro.aio",
    "shard": "repro.shard",
    "logstore": "repro.logstore",
    "store": "repro.store",
    "standing": "repro.sched",
}

SMC_DRIVERS = (
    "intersection",
    "compare",
    "compare_batch",
    "union",
    "sum",
    "ranking",
    "equality",
)


class Tracer:
    """In-memory span store plus the counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.enabled = False
        #: "setup" while the timed set-ups run, "run" inside the measured
        #: window, "other" around them; counters only count in "run".
        self.phase = "other"
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.handles: list = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._inflight = 0
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, n: int = 1) -> None:
        if self.phase != "run":
            return
        with self._lock:
            self.counts[key] += n

    def _open(self):
        parent, request = _CURRENT.get()
        sid = next(self._ids)
        token = _CURRENT.set((sid, request))
        return sid, parent, request, token

    def _close(self, sid, parent, request, token, name, start) -> None:
        end = time.perf_counter()
        _CURRENT.reset(token)
        self.spans.append((sid, parent, name, start, end, request, self.phase))

    @contextmanager
    def request(self, kind: str):
        """Root span of one closed-loop operation, with a fresh request id."""
        if not self.enabled:
            yield
            return
        sid = next(self._ids)
        token = _CURRENT.set((sid, sid))
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, 0, sid, token, f"request.{kind}", start)

    def inflight_delta(self, step: int) -> None:
        if self.phase != "run":
            return
        with self._lock:
            self._inflight += step
            peak = self.counts["aio.inflight_peak"]
            if self._inflight > peak:
                self.counts["aio.inflight_peak"] = self._inflight

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(args, kwargs, result)`` records counts for the call; it
        runs outside the span so its cost is not charged to the layer.
        """
        original = (
            inspect.getattr_static(owner, attr)
            if isinstance(owner, type)
            else getattr(owner, attr)
        )
        tracer = self

        if inspect.iscoroutinefunction(original):

            @functools.wraps(original)
            async def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return await original(*args, **kwargs)
                sid, parent, request, token = tracer._open()
                start = time.perf_counter()
                try:
                    result = await original(*args, **kwargs)
                finally:
                    tracer._close(sid, parent, request, token, name, start)
                if after is not None:
                    after(args, kwargs, result)
                return result

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if not tracer.enabled:
                    return original(*args, **kwargs)
                sid, parent, request, token = tracer._open()
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._close(sid, parent, request, token, name, start)
                if after is not None:
                    after(args, kwargs, result)
                return result

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering how :meth:`uninstall` restores it."""
        static = inspect.getattr_static(owner, attr)
        self._patches.append((owner, attr, static, attr in vars(owner)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, static, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, static)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- roll-up -----------------------------------------------------------

    def run_spans(self) -> list[tuple]:
        return [s for s in self.spans if s[6] == "run"]

    def self_times(self, spans) -> dict[int, float]:
        children = defaultdict(list)
        for sid, parent, _n, start, end, _r, _p in spans:
            children[parent].append((start, end))
        return {
            sid: (end - start) - _covered(children[sid], start, end)
            for sid, _parent, _n, start, end, _r, _p in spans
        }

    def coverage(self, spans) -> tuple[float, float]:
        """``(request wall, wall not covered by any layer span)`` in seconds.

        A request's coverage is the union of all its descendants'
        intervals clipped to the request, so work done for it on the
        scheduler's loop threads counts while the caller waits.
        """
        by_request = defaultdict(list)
        roots = []
        for sid, parent, _n, start, end, request, _p in spans:
            if parent == 0 and sid == request:
                roots.append((sid, start, end))
            elif request:
                by_request[request].append((start, end))
        wall = sum(end - start for _sid, start, end in roots)
        uncovered = sum(
            (end - start) - _covered(by_request[sid], start, end)
            for sid, start, end in roots
        )
        return wall, uncovered

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end, request, phase in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "request": request,
                            "phase": phase,
                        }
                    )
                    + "\n"
                )


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are taken at."""
    import repro.aio.scheduler as aio_scheduler
    import repro.audit.executor as executor
    import repro.core.service as core_service
    import repro.net.simnet as simnet
    import repro.shard.merge as shard_merge
    import repro.shard.service as shard_service
    import repro.smc.equality as equality
    import repro.store.wal as wal
    from repro.aio.simnet import AsyncChannel, AsyncSimNetwork
    from repro.audit.executor import QueryExecutor
    from repro.core.service import ConfidentialAuditingService
    from repro.logstore.store import DistributedLogStore
    from repro.perf.engine import ProcessPoolEngine, SerialEngine
    from repro.sched.channel import Channel
    from repro.sched.standing import StandingQueryRegistry
    from repro.shard.service import ShardedAuditingService
    from repro.store.cluster import DurableDistributedLogStore

    add = tracer.add

    def counted(key: str):
        return lambda _a, _k, _r: add(key)

    def pow_elements(key: str):
        def after(args, _kwargs, _result):
            add(f"{key}.calls")
            add(f"{key}.elements", len(args[1]))

        return after

    tracer.wrap(SerialEngine, "pow_many", "perf.serial", pow_elements("perf.serial"))
    tracer.wrap(ProcessPoolEngine, "pow_many", "perf.pool", pow_elements("perf.pool"))
    tracer.wrap(ConfidentialAuditingService, "warm_pools", "precompute.warm")

    for attr, driver in (
        ("secure_set_intersection", "intersection"),
        ("secure_set_intersection_async", "intersection"),
        ("secure_compare", "compare"),
        ("secure_compare_async", "compare"),
        ("secure_compare_batch", "compare_batch"),
        ("secure_compare_batch_async", "compare_batch"),
        ("secure_set_union", "union"),
        ("secure_set_union_async", "union"),
        ("secure_sum", "sum"),
        ("secure_ranking", "ranking"),
    ):
        tracer.wrap(executor, attr, f"smc.{driver}", counted(f"smc.{driver}.calls"))
    tracer.wrap(equality, "secure_equality", "smc.equality", counted("smc.equality.calls"))

    def union_in_merge(_a, _k, _r):
        add("smc.union.calls")
        add("shard.merge.unions")

    tracer.wrap(shard_merge, "secure_set_union", "smc.union", union_in_merge)

    def message(_args, _kwargs, size):
        add("net.messages")
        add("net.bytes", size)

    tracer.wrap(simnet, "encoded_size", "net.codec", message)
    tracer.wrap(simnet.SimNetwork, "run", "net.run")
    tracer.wrap(Channel, "run", "net.run")
    tracer.wrap(AsyncSimNetwork, "drain", "net.run")
    tracer.wrap(AsyncChannel, "drain", "net.run")

    for module in (executor, core_service, aio_scheduler, shard_service):
        tracer.wrap(module, "plan_query", "audit.plan")
    for attr in ("execute", "execute_async", "aggregate"):
        tracer.wrap(QueryExecutor, attr, "audit.execute")

    def submitted(_args, _kwargs, handle):
        if tracer.phase == "run":
            with tracer._lock:
                tracer.handles.append(handle)

    tracer.wrap(aio_scheduler.AsyncQueryScheduler, "submit", "aio.submit", submitted)
    original_execute = inspect.getattr_static(
        aio_scheduler.AsyncQueryScheduler, "_execute"
    )

    async def tracked_execute(self, handle, qplan):
        if not tracer.enabled:
            return await original_execute(self, handle, qplan)
        tracer.inflight_delta(+1)
        try:
            return await original_execute(self, handle, qplan)
        finally:
            tracer.inflight_delta(-1)

    tracer.patch(aio_scheduler.AsyncQueryScheduler, "_execute", tracked_execute)
    tracer.wrap(aio_scheduler.AsyncQueryScheduler, "_execute", "aio.execute")

    tracer.wrap(ShardedAuditingService, "scatter", "shard.scatter")
    tracer.wrap(ShardedAuditingService, "_merge", "shard.merge")
    tracer.wrap(shard_service, "merge_shard_glsns", "shard.merge_glsns",
                counted("shard.merge.calls"))

    tracer.wrap(DistributedLogStore, "append", "logstore.append")
    tracer.wrap(DurableDistributedLogStore, "append_batch", "logstore.append")

    def integrity_rows(_args, _kwargs, reports):
        add("logstore.integrity.rows", len(reports))

    tracer.wrap(core_service, "run_batched_integrity_round", "logstore.integrity",
                integrity_rows)

    original_flush = inspect.getattr_static(wal.WriteAheadLog, "_flush_locked")

    def flush_locked(self):
        add("store.wal.bytes", self._buffer_bytes)
        add("store.wal.records", len(self._buffer))
        return original_flush(self)

    tracer.patch(wal.WriteAheadLog, "_flush_locked", flush_locked)
    tracer.wrap(wal.WriteAheadLog, "sync", "store.wal.sync")
    tracer.wrap(os, "fsync", "store.fsync", counted("store.fsync.count"))
    tracer.wrap(DurableDistributedLogStore, "checkpoint", "store.checkpoint",
                counted("store.checkpoint.count"))
    tracer.wrap(core_service, "open_durable_store", "store.recovery")

    def deltas(_args, _kwargs, result):
        add("standing.deltas", sum(1 for d in result if not d.empty))

    tracer.wrap(StandingQueryRegistry, "evaluate_epoch", "standing.evaluate", deltas)
