"""End-to-end benchmark of the confidential auditing service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload audit-2048 --seed 1 --seconds 1 --trace 0

Workloads: ``audit-2048``, ``fanout-64``, ``ingest-durable`` (see
``perfbench/README.md``).  With ``--trace 0`` the run is untraced and the
last stdout line is a JSON object carrying every end-to-end metric.  With
``--trace 1`` the workload first runs untraced, then again with the layer
wrappers of ``perfbench/layertrace.py`` installed for the same number of
closed-loop units; the JSON line then carries the per-layer metrics, and
the spans plus a self-time table are written under ``.perfbench/``.

Every answer is checked against the centralized oracle; a wrong answer
exits with status 1 and prints no result.  Any ``REPRO_*`` variable in the
environment is dropped first, so the program runs its shipped defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from gen import Inputs  # noqa: E402
from layertrace import LAYERS, SMC_DRIVERS, Tracer, install  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "query_p50_s": "s",
    "query_tail_s": "s",
    "queries_per_s": "1/s",
    "ingest_rows_per_s": "rows/s",
    "ingest_batch_p50_s": "s",
    "ingest_batch_tail_s": "s",
    "integrity_ms_per_row": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "perf.serial.calls": "count",
    "perf.serial.elements": "count",
    "perf.serial.self_s": "s",
    "perf.pool.calls": "count",
    "perf.pool.elements": "count",
    "perf.pool.wait_s": "s",
    "crypto.modexp_counted": "count",
    "crypto.modexp_online": "count",
    "crypto.modexp_offline": "count",
    "crypto.integrity_modexp_counted": "count",
    "precompute.hit_rate": "ratio",
    "precompute.warm_s": "s",
    **{f"smc.{d}.calls": "count" for d in SMC_DRIVERS},
    **{f"smc.{d}.self_s": "s" for d in SMC_DRIVERS},
    "net.messages": "count",
    "net.bytes": "bytes",
    "net.run.self_s": "s",
    "net.codec.self_s": "s",
    "audit.plan.self_s": "s",
    "audit.execute.self_s": "s",
    "cache.scan.hit_ratio": "ratio",
    "cache.projection.hit_ratio": "ratio",
    "aio.admit_wait_p50_s": "s",
    "aio.coalesced_ratio": "ratio",
    "aio.inflight_peak": "count",
    "shard.scatter.self_s": "s",
    "shard.merge.self_s": "s",
    "shard.concat_ratio": "ratio",
    "logstore.append.self_s": "s",
    "logstore.integrity.self_s": "s",
    "logstore.integrity.rows": "count",
    "store.wal.records": "count",
    "store.wal.bytes_per_user_byte": "ratio",
    "store.fsync.count": "count",
    "store.fsync.self_s": "s",
    "store.checkpoint.count": "count",
    "store.checkpoint.self_s": "s",
    "store.recovery.self_s": "s",
    "standing.evaluate.self_s": "s",
    "standing.deltas": "count",
    "trace.coverage_ratio": "ratio",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def info(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def tail_percentile(min_samples: int) -> int:
    """Highest whole percentile leaving >= 10 of ``min_samples`` beyond it.

    Fixed from the workload's guaranteed sample count, so every run of a
    workload reports the same percentile.  Below 20 samples (the tiny
    self-test sizes) it falls back to the median.
    """
    return max(50, math.floor(100 * (1 - 10 / min_samples)))


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile (``pct`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct * len(ordered) / 100)) - 1]


def rate(samples) -> float:
    """Work done ÷ time spent over all samples ``(seconds, units)``."""
    return sum(n for _t, n in samples) / sum(t for t, _n in samples)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Run:
    """Outcome of one pass of a workload."""

    def __init__(self, workload, rec, setup_s, before, after, units) -> None:
        self.workload = workload
        self.rec = rec
        self.setup_s = setup_s
        self.before = before
        self.after = after
        self.units = units

    def op_wall(self) -> float:
        return sum(t for samples in self.rec.samples.values() for t, _n in samples)


def execute(name, seed, seconds, scale, tracer, workdir, units=None) -> Run:
    """One pass: timed setups, then the closed loop for the window."""
    from workloads import WORKLOADS, Recorder

    tracer.phase = "other"
    wl = WORKLOADS[name](Inputs(seed), scale, workdir)
    setups: list[float] = []

    def timed_build():
        arg = wl.before_build()
        phase, tracer.phase = tracer.phase, "setup"
        start = time.perf_counter()
        deployment = wl.build(arg)
        setups.append(time.perf_counter() - start)
        tracer.phase = phase
        return deployment

    # Builds after the first are spread evenly over the minimum units; a
    # unit boundary takes several when there are more builds than units.
    spare_at = [(k * wl.min_units) // wl.setups for k in range(1, wl.setups)]
    try:
        wl.service = timed_build()
        wl.prepare()
        rec = Recorder(tracer)
        before = wl.ledgers()
        tracer.phase = "run"
        start = time.perf_counter()
        done = 0
        while True:
            if units is not None:
                if done >= units:
                    break
            elif done >= wl.min_units and time.perf_counter() - start >= seconds:
                break
            for _ in range(spare_at.count(done)):
                wl.discard(timed_build())
            wl.step(rec, done)
            done += 1
        tracer.phase = "other"
        wl.finish()
        return Run(wl, rec, setups, before, wl.ledgers(), done)
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    wl, samples = run.workload, run.rec.samples
    notes = []
    values = {"setup_s": statistics.median(run.setup_s)}

    queries = [t for t, _n in samples["query"]]
    pct = tail_percentile(wl.min_samples["query"])
    values["query_p50_s"] = statistics.median(queries)
    values["query_tail_s"] = percentile(queries, pct)
    values["queries_per_s"] = rate(samples["query"])
    notes.append(f"query_tail_s = p{pct}; {len(queries)} query samples")

    batches = [t for t, _n in samples["ingest"]]
    pct = tail_percentile(wl.min_samples["ingest"])
    values["ingest_rows_per_s"] = rate(samples["ingest"])
    values["ingest_batch_p50_s"] = statistics.median(batches)
    values["ingest_batch_tail_s"] = percentile(batches, pct)
    notes.append(f"ingest_batch_tail_s = p{pct}; {len(batches)} ingest batches")

    values["integrity_ms_per_row"] = 1000 / rate(samples["integrity"])
    notes.append(f"integrity_ms_per_row over {len(samples['integrity'])} integrity rounds")
    notes.append(f"setup_s = median of {len(run.setup_s)} setups")
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return values, notes


def per_layer(traced: Run, untraced: Run, tracer) -> tuple[dict, list[str]]:
    spans = tracer.run_spans()
    selfs = tracer.self_times(spans)
    self_by_name: dict[str, float] = {}
    count_by_name: dict[str, int] = {}
    for span in spans:
        self_by_name[span[2]] = self_by_name.get(span[2], 0.0) + selfs[span[0]]
        count_by_name[span[2]] = count_by_name.get(span[2], 0) + 1
    setup_durations: dict[str, list[float]] = {}
    for _sid, _p, name, start, end, _r, phase in tracer.spans:
        if phase == "setup":
            setup_durations.setdefault(name, []).append(end - start)

    def self_s(*names):
        return sum(self_by_name.get(n, 0.0) for n in names)

    def setup_median(name):
        durations = setup_durations.get(name)
        return statistics.median(durations) if durations else 0.0

    c = tracer.counts
    crypto = {k: traced.after["crypto"][k] - traced.before["crypto"][k]
              for k in traced.after["crypto"]}
    m = {
        "perf.serial.calls": c["perf.serial.calls"],
        "perf.serial.elements": c["perf.serial.elements"],
        "perf.serial.self_s": self_s("perf.serial"),
        "perf.pool.calls": c["perf.pool.calls"],
        "perf.pool.elements": c["perf.pool.elements"],
        "perf.pool.wait_s": self_s("perf.pool"),
        "crypto.modexp_counted": crypto["modexp"],
        "crypto.modexp_online": crypto["modexp"] - crypto["offline"],
        "crypto.modexp_offline": crypto["offline"],
        "crypto.integrity_modexp_counted": crypto["integrity"],
        "precompute.hit_rate": _ratio(
            crypto["pool_hits"], crypto["pool_hits"] + crypto["pool_misses"]
        ),
        "precompute.warm_s": setup_median("precompute.warm"),
    }
    for driver in SMC_DRIVERS:
        m[f"smc.{driver}.calls"] = c[f"smc.{driver}.calls"]
        m[f"smc.{driver}.self_s"] = self_s(f"smc.{driver}")
    for level in ("scan", "projection"):
        hits0, misses0 = traced.before["cache"].get(level, (0, 0))
        hits1, misses1 = traced.after["cache"].get(level, (0, 0))
        m[f"cache.{level}.hit_ratio"] = _ratio(
            hits1 - hits0, (hits1 - hits0) + (misses1 - misses0)
        )
    handles = [h for h in tracer.handles if h.started_at is not None]
    wall, uncovered = tracer.coverage(spans)
    m.update(
        {
            "net.messages": c["net.messages"],
            "net.bytes": c["net.bytes"],
            "net.run.self_s": self_s("net.run"),
            "net.codec.self_s": self_s("net.codec"),
            "audit.plan.self_s": self_s("audit.plan"),
            "audit.execute.self_s": self_s("audit.execute"),
            "aio.admit_wait_p50_s": statistics.median(
                [h.started_at - h.submitted_at for h in handles]
            ) if handles else 0.0,
            "aio.coalesced_ratio": _ratio(
                sum(1 for h in tracer.handles if h.coalesced), len(tracer.handles)
            ),
            "aio.inflight_peak": c["aio.inflight_peak"],
            "shard.scatter.self_s": self_s("shard.scatter"),
            "shard.merge.self_s": self_s("shard.merge", "shard.merge_glsns"),
            "shard.concat_ratio": _ratio(
                c["shard.merge.calls"] - c["shard.merge.unions"], c["shard.merge.calls"]
            ),
            "logstore.append.self_s": self_s("logstore.append"),
            "logstore.integrity.self_s": self_s("logstore.integrity"),
            "logstore.integrity.rows": c["logstore.integrity.rows"],
            "store.wal.records": c["store.wal.records"],
            "store.wal.bytes_per_user_byte": _ratio(
                c["store.wal.bytes"], traced.workload.user_bytes
            ),
            "store.fsync.count": c["store.fsync.count"],
            "store.fsync.self_s": self_s("store.fsync"),
            "store.checkpoint.count": c["store.checkpoint.count"],
            "store.checkpoint.self_s": self_s("store.checkpoint"),
            "store.recovery.self_s": setup_median("store.recovery"),
            "standing.evaluate.self_s": self_s("standing.evaluate"),
            "standing.deltas": c["standing.deltas"],
            "trace.coverage_ratio": 1 - _ratio(uncovered, wall),
            "trace.unattributed_s": uncovered,
            "trace.overhead_ratio": _ratio(traced.op_wall(), untraced.op_wall()),
        }
    )

    table = [f"{'layer':<18} {'self s':>10} {'share':>7} {'spans':>8}"]
    layers: dict[str, list] = {}
    for name, seconds in self_by_name.items():
        prefix = name.split(".")[0]
        if prefix == "request":
            continue
        row = layers.setdefault(LAYERS.get(prefix, prefix), [0.0, 0])
        row[0] += seconds
        row[1] += count_by_name[name]
    for layer, (seconds, count) in sorted(layers.items(), key=lambda kv: -kv[1][0]):
        table.append(f"{layer:<18} {seconds:>10.4f} {_ratio(seconds, wall):>7.1%} {count:>8}")
    table.append(f"{'unattributed':<18} {uncovered:>10.4f} {_ratio(uncovered, wall):>7.1%} {'-':>8}")
    table.append(f"{'request wall':<18} {wall:>10.4f} {'100.0%':>7} "
                 f"{sum(len(s) for s in traced.rec.samples.values()):>8}")
    return m, table


def main(argv=None, scale=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        info(f"perfbench: no repro sources under {src}")
        return 2
    if src not in sys.path:
        sys.path.insert(0, src)

    from repro.perf.engine import shutdown_shared_pool
    from workloads import FULL, WORKLOADS, WrongAnswer

    if args.workload not in WORKLOADS:
        info(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        return 2
    scale = scale or FULL
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    try:
        untraced = execute(args.workload, args.seed, args.seconds, scale, Tracer(), workdir)
        info(f"{args.workload}: {untraced.workload.description}")
        if args.trace:
            tracer = Tracer()
            install(tracer)
            tracer.enabled = True
            try:
                run = execute(args.workload, args.seed, args.seconds, scale, tracer,
                              workdir, units=untraced.units)
            finally:
                tracer.enabled = False
                tracer.uninstall()
            metrics, table = per_layer(run, untraced, tracer)
            units = PER_LAYER
            stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}")
            tracer.write(stem + ".spans.jsonl")
            with open(stem + ".layers.txt", "w", encoding="utf-8") as handle:
                handle.write("\n".join(table) + "\n")
            for line in table:
                info(line)
            info(f"spans: {stem}.spans.jsonl")
        else:
            run = untraced
            metrics, notes = end_to_end(run)
            units = END_TO_END
            for line in notes:
                info(line)
    except WrongAnswer as exc:
        info(f"perfbench: WRONG ANSWER, run discarded: {exc}")
        return 1
    finally:
        shutdown_shared_pool()
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        json.dumps(
            {
                "correct": True,
                "attempted": run.rec.attempted,
                "failed": run.rec.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
