"""The traced run: benchmark-side wrappers on the layers' public functions.

Nothing in ``repro`` is edited.  While a :class:`LayerTrace` is installed,
its wrappers replace public methods and functions of the layers:

* coarse calls get spans (``workload -> chunk -> simulation | batch ->
  cache / journal / flight call``), each with name, start, end and parent,
  all sharing one workload id; they stay in memory until the run ends;
* hot calls (``MessageBus.publish``, ``CANBus.send``, the attack engine's
  output hook, the driver update, ``PlanStage.run``) only get counts and
  summed time.

A ``Telemetry(TelemetryConfig(sample_every=1))`` handed to the entry point
supplies the per-stage and per-cycle histograms.  :func:`layer_metrics`
folds the spans, counters and histograms into the per-layer metrics.
"""

import contextlib
import functools
import itertools
import threading
from time import perf_counter_ns
from typing import Any, Dict, List, Optional, Tuple

STAGES = ("sense", "perceive", "plan", "inject", "drive", "actuate", "detect", "record")

#: Span categories that count as covered time for ``executor.self_share``.
COVERING = ("simulation", "batch", "cache", "journal", "flight")

#: Per-layer metrics: name -> (unit, better).  The ``(=)`` counts are in
#: :data:`EXACT_COUNTS`.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    **{f"kernel.{stage}.ns_per_step": ("ns", "lower") for stage in STAGES},
    "kernel.batch.dense_share": ("ratio", "higher"),
    "kernel.batch.cycle_us": ("us", "lower"),
    "kernel.batch.rows_per_cycle": ("rows", "higher"),
    "messaging.publish_per_step": ("1/step", "lower"),
    "messaging.publish_ns": ("ns", "lower"),
    "can.send_per_step": ("1/step", "lower"),
    "can.send_ns": ("ns", "lower"),
    "can.tampered_per_step": ("1/step", "lower"),
    "core.output_hook_per_step": ("1/step", "lower"),
    "core.output_hook_ns": ("ns", "lower"),
    "driver.update_ns": ("ns", "lower"),
    "executor.self_share": ("ratio", "lower"),
    "service.cache.hit_ratio": ("ratio", "higher"),
    "service.cache.get_us": ("us", "lower"),
    "service.cache.put_us": ("us", "lower"),
    "service.fingerprint_us": ("us", "lower"),
    "service.queue_wait_ms": ("ms", "lower"),
    "obs.journal.records": ("count", "lower"),
    "obs.journal.emit_us": ("us", "lower"),
    "obs.flight.flushes": ("count", "lower"),
    "obs.flight.finalize_ms": ("ms", "lower"),
    "analysis.seed_hazard_gap_pp": ("pp", "lower"),
    "failed_share": ("ratio", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}

#: Raw counts that must repeat exactly across two traced runs of one seed.
EXACT_COUNTS = (
    "row_steps",
    "dense_rows",
    "plan_calls",
    "publish_calls",
    "send_calls",
    "tampered",
    "hook_calls",
    "cache_gets",
    "cache_hits",
    "journal_records",
    "flight_flushes",
)


class _Hot:
    """Count and summed nanoseconds of one hot call site."""

    __slots__ = ("calls", "ns", "extra")

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.extra = 0

    def mean_ns(self) -> float:
        return self.ns / self.calls if self.calls else 0.0


class LayerTrace:
    """Spans and counters of one traced workload repeat.

    Use as a context manager around the timed call; on exit every wrapper
    is removed again, so untraced repeats run the unmodified code.
    """

    def __init__(self, workload_id: str):
        self.workload_id = workload_id
        self.spans: List[Tuple[int, int, str, str, int, int, Optional[str]]] = []
        self.hot = {name: _Hot() for name in ("publish", "send", "hook", "driver", "plan")}
        self.row_steps = 0
        self.dense_rows = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []
        self.root_id = 0
        self.root_start = self.root_end = 0
        self.telemetry = None

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _spanned(self, fn, name: str, category: str, label=None):
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = trace._stack()
            parent = stack[-1] if stack else trace.root_id
            span_id = next(trace._ids)
            stack.append(span_id)
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                note = label(args, kwargs, result) if label is not None else None
                trace.spans.append((span_id, parent, name, category, start, end, note))

        return wrapper

    def _timed(self, fn, stat: _Hot):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            result = fn(*args, **kwargs)
            stat.ns += perf_counter_ns() - start
            stat.calls += 1
            return result

        return wrapper

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    # -- install / remove ---------------------------------------------------

    def __enter__(self) -> "LayerTrace":
        import repro.injection.engine as engine
        import repro.injection.executor as executor
        import repro.kernel.batch as batch
        from repro.can.bus import CANBus
        from repro.core.attack_engine import AttackEngine
        from repro.driver.reaction import DriverReactionSimulator
        from repro.kernel.stages import PlanStage
        from repro.messaging.bus import MessageBus
        from repro.obs.journal import EventJournal
        from repro.obs.recorder import FlightRecorder
        from repro.service.cache import RunCache

        hot = self.hot
        trace = self
        self._patch(MessageBus, "publish", self._timed(MessageBus.publish, hot["publish"]))
        self._patch(AttackEngine, "output_hook", self._timed(AttackEngine.output_hook, hot["hook"]))
        self._patch(
            DriverReactionSimulator,
            "update",
            self._timed(DriverReactionSimulator.update, hot["driver"]),
        )

        send, send_stat = CANBus.send, hot["send"]

        def counted_send(bus, frame):
            start = perf_counter_ns()
            out = send(bus, frame)
            send_stat.ns += perf_counter_ns() - start
            send_stat.calls += 1
            if out is not frame:
                send_stat.extra += 1
            return out

        self._patch(CANBus, "send", functools.wraps(send)(counted_send))

        # Independent count of dense row-steps: the rows the SoA planner
        # columns advance each cycle (cross-checked against ``plan_calls``).
        long_columns = batch.update_long_columns

        def counted_long_columns(state, n):
            trace.dense_rows += n
            return long_columns(state, n)

        self._patch(
            batch, "update_long_columns", functools.wraps(long_columns)(counted_long_columns)
        )

        plan_run, plan_stat = PlanStage.run, hot["plan"]

        def counted_plan(stage, ctx):
            plan_stat.calls += 1
            return plan_run(stage, ctx)

        self._patch(PlanStage, "run", functools.wraps(plan_run)(counted_plan))

        finalize = engine.Simulation.finalize

        def counted_finalize(sim, *args, **kwargs):
            trace.row_steps += sim.world.step_count
            return finalize(sim, *args, **kwargs)

        self._patch(engine.Simulation, "finalize", functools.wraps(finalize)(counted_finalize))

        simulation = engine.Simulation
        self._patch(
            simulation, "run", self._spanned(simulation.run, "Simulation.run", "simulation")
        )
        self._patch(
            batch.BatchRunner,
            "run_tasks",
            self._spanned(batch.BatchRunner.run_tasks, "BatchRunner.run_tasks", "batch"),
        )
        self._patch(
            executor,
            "run_simulations",
            self._spanned(executor.run_simulations, "run_simulations", "chunk"),
        )
        self._patch(
            RunCache,
            "get",
            self._spanned(
                RunCache.get,
                "RunCache.get",
                "cache",
                lambda args, kwargs, hit: "hit" if hit is not None else "miss",
            ),
        )
        self._patch(RunCache, "put", self._spanned(RunCache.put, "RunCache.put", "cache"))
        self._patch(
            RunCache,
            "fingerprint",
            self._spanned(RunCache.fingerprint, "RunCache.fingerprint", "cache"),
        )
        self._patch(
            EventJournal,
            "emit",
            self._spanned(EventJournal.emit, "EventJournal.emit", "journal", _journal_kind),
        )
        self._patch(
            FlightRecorder,
            "finalize",
            self._spanned(
                FlightRecorder.finalize,
                "FlightRecorder.finalize",
                "flight",
                lambda args, kwargs, path: "flushed" if path is not None else None,
            ),
        )

        # The scalar path below the service does not forward the service's
        # telemetry handle to each run, so the traced run hands it over at
        # the public per-run entry point to get the per-stage histograms.
        run_simulation = engine.run_simulation

        def probed_run_simulation(config, strategy=None, telemetry=None, recorder=None):
            if telemetry is None:
                telemetry = trace.telemetry
            return run_simulation(config, strategy, telemetry=telemetry, recorder=recorder)

        self._patch(
            engine, "run_simulation", functools.wraps(run_simulation)(probed_run_simulation)
        )
        return self

    def __exit__(self, *exc_info) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- the workload span --------------------------------------------------

    @contextlib.contextmanager
    def workload(self, telemetry):
        """The root span around the timed call; ``telemetry`` is the handle
        the call receives, also handed to scalar runs below the service."""
        self.telemetry = telemetry
        self.root_id = next(self._ids)
        self.root_start = perf_counter_ns()
        try:
            yield self
        finally:
            self.root_end = perf_counter_ns()

    # -- folding -------------------------------------------------------------

    def span_records(self) -> List[dict]:
        """Every span (root first) with its self time, for the trace file."""
        rows = [(self.root_id, None, "workload", "workload", self.root_start, self.root_end, None)]
        rows.extend(sorted(self.spans, key=lambda span: span[4]))
        children: Dict[int, List[Tuple[int, int]]] = {}
        for span_id, parent, _name, _category, start, end, _note in rows[1:]:
            children.setdefault(parent, []).append((start, end))
        records = []
        for span_id, parent, name, category, start, end, note in rows:
            covered = _union_ns(children.get(span_id, []), start, end)
            record = {
                "workload_id": self.workload_id,
                "id": span_id,
                "parent": parent,
                "name": name,
                "category": category,
                "start_ns": start,
                "end_ns": end,
                "self_ns": (end - start) - covered,
            }
            if note is not None:
                record["note"] = note
            records.append(record)
        return records

    def counts(self) -> Dict[str, int]:
        """The raw exact counts (see :data:`EXACT_COUNTS`)."""
        gets = [span for span in self.spans if span[2] == "RunCache.get"]
        return {
            "row_steps": self.row_steps,
            "dense_rows": self.dense_rows,
            "plan_calls": self.hot["plan"].calls,
            "publish_calls": self.hot["publish"].calls,
            "send_calls": self.hot["send"].calls,
            "tampered": self.hot["send"].extra,
            "hook_calls": self.hot["hook"].calls,
            "cache_gets": len(gets),
            "cache_hits": sum(1 for span in gets if span[6] == "hit"),
            "journal_records": sum(1 for span in self.spans if span[3] == "journal"),
            "flight_flushes": sum(1 for span in self.spans if span[6] == "flushed"),
        }


def _journal_kind(args, kwargs, seq) -> Optional[str]:
    return args[1] if len(args) > 1 else kwargs.get("kind")


def _union_ns(intervals: List[Tuple[int, int]], lo: int, hi: int) -> int:
    """Total length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(trace: LayerTrace, telemetry) -> Dict[str, float]:
    """Per-layer metrics of one traced repeat (all but the run-level ones)."""
    from repro.telemetry import STAGE_METRIC

    counts = trace.counts()
    steps = counts["row_steps"]

    def per_step(value: int) -> float:
        return value / steps if steps else 0.0

    metrics: Dict[str, float] = {}
    registry = telemetry.metrics
    stage_sums = {}
    for stage in STAGES:
        histogram = registry.get(STAGE_METRIC.format(name=stage))
        stage_sums[stage] = (histogram.sum, histogram.count) if histogram is not None else (0.0, 0)
    cycle = registry.get("perf.batch.cycle_ns")
    cycle_rows = registry.get("perf.batch.cycle_rows")
    batched = cycle is not None and cycle.count > 0
    if batched:
        # Batched columns time a whole cycle's rows per sample: split the
        # cost of one row-step by each stage's share of the column time.
        row_step_ns = cycle.sum / cycle_rows.value
        stage_total = sum(total for total, _ in stage_sums.values())
        for stage, (total, _) in stage_sums.items():
            share = total / stage_total if stage_total else 0.0
            metrics[f"kernel.{stage}.ns_per_step"] = share * row_step_ns
        metrics["kernel.batch.cycle_us"] = cycle.mean / 1000.0
        metrics["kernel.batch.rows_per_cycle"] = cycle_rows.value / cycle.count
    else:
        for stage, (total, count) in stage_sums.items():
            metrics[f"kernel.{stage}.ns_per_step"] = total / count if count else 0.0
        metrics["kernel.batch.cycle_us"] = 0.0
        metrics["kernel.batch.rows_per_cycle"] = 0.0
    metrics["kernel.batch.dense_share"] = 1.0 - per_step(counts["plan_calls"]) if steps else 0.0

    hot = trace.hot
    metrics["messaging.publish_per_step"] = per_step(counts["publish_calls"])
    metrics["messaging.publish_ns"] = hot["publish"].mean_ns()
    metrics["can.send_per_step"] = per_step(counts["send_calls"])
    metrics["can.send_ns"] = hot["send"].mean_ns()
    metrics["can.tampered_per_step"] = per_step(counts["tampered"])
    metrics["core.output_hook_per_step"] = per_step(counts["hook_calls"])
    metrics["core.output_hook_ns"] = hot["hook"].mean_ns()
    metrics["driver.update_ns"] = hot["driver"].mean_ns()

    wall = trace.root_end - trace.root_start
    covered = _union_ns(
        [(span[4], span[5]) for span in trace.spans if span[3] in COVERING],
        trace.root_start,
        trace.root_end,
    )
    metrics["executor.self_share"] = (wall - covered) / wall if wall else 0.0

    def span_us(name: str) -> float:
        return _mean([(span[5] - span[4]) / 1e3 for span in trace.spans if span[2] == name])

    gets = counts["cache_gets"]
    metrics["service.cache.hit_ratio"] = counts["cache_hits"] / gets if gets else 0.0
    metrics["service.cache.get_us"] = span_us("RunCache.get")
    metrics["service.cache.put_us"] = span_us("RunCache.put")
    metrics["service.fingerprint_us"] = span_us("RunCache.fingerprint")
    emitted = {span[6]: span[4] for span in reversed(trace.spans) if span[3] == "journal"}
    queued, started = emitted.get("job.queued"), emitted.get("job.started")
    metrics["service.queue_wait_ms"] = (
        (started - queued) / 1e6 if queued is not None and started is not None else 0.0
    )
    metrics["obs.journal.records"] = counts["journal_records"]
    metrics["obs.journal.emit_us"] = span_us("EventJournal.emit")
    metrics["obs.flight.flushes"] = counts["flight_flushes"]
    metrics["obs.flight.finalize_ms"] = _mean(
        [(span[5] - span[4]) / 1e6 for span in trace.spans if span[6] == "flushed"]
    )
    return metrics


def cache_share(trace: LayerTrace) -> float:
    """Share of the workload's wall time spent inside ``RunCache`` calls."""
    wall = trace.root_end - trace.root_start
    spans = [(span[4], span[5]) for span in trace.spans if span[3] == "cache"]
    return _union_ns(spans, trace.root_start, trace.root_end) / wall if wall else 0.0
