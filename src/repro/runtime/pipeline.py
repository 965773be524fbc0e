"""The unified replay pipeline: Source → Router → engines → Merger → Sinks.

:class:`Pipeline` is the one offline entry point for running IPD over a
flow stream.  It generalizes the old ``OfflineDriver`` replay loop (which
is now a thin façade over it) across engine shapes:

* ``shards=1, executor="serial"`` — a single plain
  :class:`~repro.core.algorithm.IPD`; zero coordination overhead, the
  exact seed behaviour.
* anything else — a :class:`~repro.runtime.sharding.ShardedIPD`
  coordinator routing flows over ``shards`` address-space shards driven
  by the chosen executor (``serial`` / ``mp``).  Merged
  snapshots are byte-identical to the single-engine ones by design (the
  equivalence suite in ``tests/runtime`` pins this).

Event-driven replay semantics are unchanged: sweeps fire exactly at
``t``-second boundaries of the trace clock, snapshots every
``snapshot_seconds``, and a batch spanning a boundary is cut at the
boundary so "all ingest before each sweep tick" holds exactly.

With a checkpoint store attached, the pipeline also saves the engine
state at sweep ticks (every ``checkpoint_every`` trace seconds): each
checkpoint is a consistent post-sweep image plus the replay cursor, so
:meth:`Pipeline.resume` continues an interrupted run — and when the flow
source is re-openable (a zero-argument callable), a crashed mp worker is
recovered *inside* :meth:`run` by rebuilding the engine from the last
checkpoint and replaying forward, instead of failing the run.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from ..core.admission import AdmissionConfig
from ..core.algorithm import IPD, SweepReport
from ..core.output import IPDRecord
from ..core.params import IPDParams
from ..core.snapshot import Snapshot
from ..netflow.records import FlowBatch, FlowRecord
from .checkpoint import Checkpoint, CheckpointStore
from .executors import EXECUTOR_KINDS, WorkerCrashError
from .faulthook import FaultHookLike
from .result import RunResult
from .sharding import ShardedIPD
from .sinks import Sink

__all__ = ["Pipeline"]


@dataclass
class _ResumeState:
    """Replay cursor restored from a checkpoint (consumed by one run)."""

    flows_processed: int
    next_sweep: float
    next_snapshot: Optional[float]

#: engines a Pipeline can drive (anything with ingest/ingest_batch/
#: sweep/snapshot/state_size)
Engine = Union[IPD, ShardedIPD]


class Pipeline:
    """Deterministic offline replay over a single or sharded IPD engine."""

    def __init__(
        self,
        params: IPDParams | None = None,
        shards: int = 1,
        executor: str = "serial",
        workers: Optional[int] = None,
        transport: str = "pickle",
        snapshot_seconds: float = 300.0,
        include_unclassified: bool = False,
        on_sweep: Optional[Callable[[SweepReport, Engine], None]] = None,
        sinks: Optional[Sequence[Sink]] = None,
        engine: Optional[Engine] = None,
        checkpoint_store: "CheckpointStore | str | Path | None" = None,
        checkpoint_every: Optional[float] = None,
        fault_hook: Optional[FaultHookLike] = None,
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
        if snapshot_seconds <= 0:
            raise ValueError("snapshot_seconds must be positive")
        if executor not in EXECUTOR_KINDS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTOR_KINDS}"
            )
        if engine is not None:
            self.engine: Engine = engine
            #: topology to rebuild after a worker crash; None means the
            #: engine is caller-owned and recovery must re-raise
            self._rebuild: Optional[
                tuple[int, str, Optional[int], str, Optional[AdmissionConfig]]
            ] = None
        elif shards == 1 and executor == "serial":
            # The degenerate topology needs no router or merger: run the
            # plain engine and the pipeline adds zero per-flow overhead.
            self.engine = IPD(params, admission=admission)
            self._rebuild = (1, "serial", None, "pickle", admission)
        else:
            self.engine = ShardedIPD(
                params,
                shards=shards,
                executor=executor,
                workers=workers,
                transport=transport,
                admission=admission,
            )
            self._rebuild = (shards, executor, workers, transport, admission)
        self.snapshot_seconds = snapshot_seconds
        self.include_unclassified = include_unclassified
        self.on_sweep = on_sweep
        self.sinks: list[Sink] = list(sinks) if sinks is not None else []
        #: emission counter: each emitted Snapshot gets the next epoch
        #: number, strictly increasing for the life of this pipeline
        self._epoch = 0
        #: exactly-once guard for sink teardown (close() is re-entrant)
        self._sinks_closed = False
        if checkpoint_store is not None and not isinstance(
            checkpoint_store, CheckpointStore
        ):
            checkpoint_store = CheckpointStore(checkpoint_store)
        self.checkpoint_store = checkpoint_store
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError("checkpoint_every must be positive")
        self.checkpoint_every = (
            checkpoint_every if checkpoint_every is not None else snapshot_seconds
        )
        #: testkit chaos seam (:class:`~repro.testkit.faults.FaultPlan`):
        #: consulted before sweeps (worker-crash site) and before sink
        #: writes (sink-error site), and propagated to the executor's
        #: own feed/tick sites — including across crash recoveries,
        #: which rebuild the engine.  ``None`` (the default) is a no-op.
        self.fault_hook: Optional[FaultHookLike] = fault_hook
        self._attach_fault_hook()
        self._resume: Optional[_ResumeState] = None
        #: teardown failures swallowed during crash recovery — the dead
        #: engine's state is unrecoverable either way, but the failures
        #: stay inspectable here (and each one raises a RuntimeWarning)
        self.teardown_errors: list[Exception] = []

    def _attach_fault_hook(self) -> None:
        if self.fault_hook is None:
            return
        executor = getattr(self.engine, "_executor", None)
        if executor is not None:
            executor.fault_hook = self.fault_hook

    @property
    def params(self) -> IPDParams:
        return self.engine.params

    # ------------------------------------------------------------------ resume

    @classmethod
    def resume(
        cls,
        checkpoint_store: "CheckpointStore | str | Path",
        checkpoint: Optional[Checkpoint] = None,
        params: IPDParams | None = None,
        shards: int = 1,
        executor: str = "serial",
        workers: Optional[int] = None,
        transport: str = "pickle",
        admission: Optional[AdmissionConfig] = None,
        **kwargs: object,
    ) -> "Pipeline":
        """Continue from a checkpoint (the latest one, unless given).

        The restored pipeline expects :meth:`run` to be fed the *same*
        flow stream the checkpointing run consumed, from the beginning —
        the replay cursor skips everything the checkpoint already
        covers.  ``shards``/``executor`` may differ from the original
        run's topology: the checkpoint holds the merged single-engine
        image, re-carved at this deployment's split depth.

        ``params`` is only required when the original run used a custom
        (non-serializable) decay function.  ``admission`` only matters
        when the checkpoint carries no admission section of its own (a
        blob-embedded section always wins).
        """
        if not isinstance(checkpoint_store, CheckpointStore):
            checkpoint_store = CheckpointStore(checkpoint_store)
        if checkpoint is None:
            checkpoint = checkpoint_store.latest()
        if checkpoint is None:
            raise FileNotFoundError(
                f"no checkpoint found in {checkpoint_store.directory}"
            )
        engine = checkpoint_store.restore_engine(
            checkpoint,
            params=params,
            shards=shards,
            executor=executor,
            workers=workers,
            transport=transport,
            admission=admission,
        )
        pipeline = cls(
            engine=engine, checkpoint_store=checkpoint_store, **kwargs
        )
        pipeline._rebuild = (shards, executor, workers, transport, admission)
        pipeline._resume = _ResumeState(
            flows_processed=checkpoint.flows_processed,
            next_sweep=checkpoint.next_sweep,
            next_snapshot=checkpoint.next_snapshot,
        )
        return pipeline

    # ------------------------------------------------------------------ replay

    def run(
        self,
        flows: "Iterable[FlowRecord | FlowBatch] | Callable[[], Iterable[FlowRecord | FlowBatch]]",
    ) -> RunResult:
        """Replay *flows* (non-decreasing timestamps) to completion.

        *flows* may also be a zero-argument callable returning the
        stream (e.g. a function re-opening a CSV).  With a checkpoint
        store attached and a pipeline-owned engine, a re-openable source
        enables crash recovery: if a shard worker process dies mid-run,
        the engine is rebuilt from the last checkpoint and the stream is
        replayed forward instead of the run failing.
        """
        if callable(flows) and not isinstance(flows, Iterable):
            if self.checkpoint_store is not None and self._rebuild is not None:
                return self._run_with_recovery(flows)
            flows = flows()
        result = RunResult()
        for __ in self.run_incremental(flows, result):
            pass
        return result

    def _run_with_recovery(
        self,
        flow_source: Callable[[], "Iterable[Union[FlowRecord, FlowBatch]]"],
        max_recoveries: int = 3,
    ) -> RunResult:
        result = RunResult()
        recoveries = 0
        while True:
            try:
                for __ in self.run_incremental(flow_source(), result):
                    pass
                return result
            except WorkerCrashError:
                recoveries += 1
                if recoveries > max_recoveries:
                    raise
                self._recover(result)

    def _recover(self, result: RunResult) -> None:
        """Rebuild the engine from the last checkpoint after a crash."""
        assert self._rebuild is not None
        params = self.engine.params
        close = getattr(self.engine, "close", None)
        if close is not None:
            try:
                close()
            except (OSError, RuntimeError, ValueError) as exc:
                # The dead executor may fail teardown; the engine state is
                # gone either way, so recovery proceeds — but the failure
                # stays visible instead of vanishing.
                self.teardown_errors.append(exc)
                warnings.warn(
                    f"engine teardown failed during crash recovery: {exc!r}",
                    RuntimeWarning,
                    stacklevel=2,
                )
        shards, executor, workers, transport, admission = self._rebuild
        # latest_valid: a corrupt newest checkpoint only costs extra
        # replay (recovery falls back to an older intact image, or to a
        # from-scratch replay), never a failed or wrong run
        checkpoint = (
            self.checkpoint_store.latest_valid() if self.checkpoint_store else None
        )
        if checkpoint is None:
            # crashed before the first (intact) checkpoint: restart fresh
            if shards == 1 and executor == "serial":
                self.engine = IPD(params, admission=admission)
            else:
                self.engine = ShardedIPD(
                    params,
                    shards=shards,
                    executor=executor,
                    workers=workers,
                    transport=transport,
                    admission=admission,
                )
            self._attach_fault_hook()
            result.sweeps.clear()
            result.snapshots.clear()
            result.flows_processed = 0
            self._resume = None
            return
        self.engine = self.checkpoint_store.restore_engine(
            checkpoint,
            params=params,
            shards=shards,
            executor=executor,
            workers=workers,
            transport=transport,
            admission=admission,
        )
        self._attach_fault_hook()
        # roll the result back to the checkpoint: later sweeps/snapshots
        # will be reproduced exactly by the replay
        del result.sweeps[checkpoint.sweep_count:]
        for when in [ts for ts in result.snapshots if ts > checkpoint.when]:
            del result.snapshots[when]
        result.flows_processed = checkpoint.flows_processed
        self._resume = _ResumeState(
            flows_processed=checkpoint.flows_processed,
            next_sweep=checkpoint.next_sweep,
            next_snapshot=checkpoint.next_snapshot,
        )

    def run_incremental(
        self,
        flows: "Iterable[Union[FlowRecord, FlowBatch]]",
        result: RunResult | None = None,
    ) -> Iterator[tuple[float, list[IPDRecord]]]:
        """Like :meth:`run` but yields ``(time, records)`` per snapshot.

        The stream may mix :class:`FlowRecord` items and columnar
        :class:`FlowBatch` runs; timestamps must be non-decreasing
        across and within items.  A batch spanning a sweep boundary is
        cut at the boundary (binary search on its timestamp column) so
        "all ingest before each sweep tick" holds exactly as in the
        per-flow replay.

        When this pipeline was built by :meth:`resume` (or is replaying
        after crash recovery), the restored cursor takes over: the first
        ``flows_processed`` rows of the stream are skipped and the
        sweep/snapshot grids continue where the checkpoint left them.
        """
        engine = self.engine
        t = engine.params.t
        every = self.checkpoint_every
        store = self.checkpoint_store
        result = result if result is not None else RunResult()
        next_sweep: float | None = None
        next_snapshot: float | None = None
        next_checkpoint: float | None = None
        last_time: float | None = None
        resume, self._resume = self._resume, None
        skip = 0
        if resume is not None:
            skip = resume.flows_processed
            next_sweep = resume.next_sweep
            next_snapshot = resume.next_snapshot
            result.flows_processed = resume.flows_processed
            if store is not None:
                # the checkpointed tick was next_sweep - t; continue the
                # grid strictly after it (that tick is already on disk)
                next_checkpoint = (int((resume.next_sweep - t) // every) + 1) * every

        def _boundary(when: float) -> Iterator[tuple[float, list[IPDRecord]]]:
            # advance sweep/snapshot/checkpoint grids up to `when`
            nonlocal next_sweep, next_snapshot, next_checkpoint
            # callers align the grids at the first flow before boundaries
            assert next_sweep is not None
            sweep_at = next_sweep
            while when >= sweep_at:
                self._tick(sweep_at, result)
                if next_snapshot is not None and sweep_at >= next_snapshot:
                    emitted = self._emit(sweep_at, result)
                    yield emitted.when, emitted.records
                    next_snapshot += self.snapshot_seconds
                if next_checkpoint is not None and sweep_at >= next_checkpoint:
                    # post-sweep barrier: the image is consistent (all
                    # ingest before the tick applied, the sweep settled)
                    self._save_checkpoint(
                        sweep_at, result, sweep_at + t, next_snapshot
                    )
                    while next_checkpoint <= sweep_at:
                        next_checkpoint += every
                sweep_at += t
                next_sweep = sweep_at

        for item in flows:
            if isinstance(item, FlowBatch):
                timestamps = item.timestamps
                if not timestamps:
                    continue
                if skip:
                    rows = len(timestamps)
                    if rows <= skip:
                        skip -= rows
                        continue
                    item = item.slice(skip, rows)
                    timestamps = item.timestamps
                    skip = 0
                first_time = timestamps[0]
                if last_time is not None and first_time < last_time - 1e-9:
                    raise ValueError(
                        "flow stream is not time-ordered: "
                        f"{first_time} after {last_time}"
                    )
                if any(
                    timestamps[i] > timestamps[i + 1]
                    for i in range(len(timestamps) - 1)
                ):
                    raise ValueError("FlowBatch is not time-ordered internally")
                last_time = timestamps[-1]
                if next_sweep is None:
                    next_sweep = (int(first_time // t) + 1) * t
                    next_snapshot = (
                        int(first_time // self.snapshot_seconds) + 1
                    ) * self.snapshot_seconds
                    if store is not None:
                        next_checkpoint = (int(first_time // every) + 1) * every
                start = 0
                total = len(timestamps)
                while start < total:
                    yield from _boundary(timestamps[start])
                    end = bisect_left(timestamps, next_sweep, start)
                    if start == 0 and end == total:
                        engine.ingest_batch(item)
                    else:
                        engine.ingest_batch(item.slice(start, end))
                    result.flows_processed += end - start
                    start = end
                continue
            flow = item
            if skip:
                skip -= 1
                continue
            if last_time is not None and flow.timestamp < last_time - 1e-9:
                raise ValueError(
                    "flow stream is not time-ordered: "
                    f"{flow.timestamp} after {last_time}"
                )
            last_time = flow.timestamp
            if next_sweep is None:
                # Align sweep/snapshot grids to the trace start.
                next_sweep = (int(flow.timestamp // t) + 1) * t
                next_snapshot = (
                    int(flow.timestamp // self.snapshot_seconds) + 1
                ) * self.snapshot_seconds
                if store is not None:
                    next_checkpoint = (int(flow.timestamp // every) + 1) * every
            yield from _boundary(flow.timestamp)
            engine.ingest(flow)
            result.flows_processed += 1

        if last_time is not None and next_sweep is not None:
            # Close the final bucket.
            self._tick(next_sweep, result)
            final = self._emit(next_sweep, result)
            yield final.when, final.records
            if store is not None:
                self._save_checkpoint(
                    next_sweep, result, next_sweep + t, next_snapshot
                )
        elif resume is not None:
            # The checkpoint already covers the entire stream (it was
            # saved at the closing tick): nothing to replay, but the
            # resumed run still yields the final mapping.  No sweep —
            # the checkpointed image is already post-final-sweep.
            replayed = self._emit(resume.next_sweep - t, result)
            yield replayed.when, replayed.records

    def _tick(self, when: float, result: RunResult) -> None:
        if self.fault_hook is not None:
            # the sketch-saturate site is engine-level, so the pipeline
            # fires it for every topology (the engine fans it out to its
            # shards itself); a no-op for engines without admission
            self.fault_hook.before_sweep(self.engine, when)
            if getattr(self.engine, "_executor", None) is None:
                # a sharded engine's executor consults the hook itself at
                # tick_begin; cover the executor-less plain engine here so
                # the worker-crash site exists for every topology
                self.fault_hook.before_tick(None, when)
        report = self.engine.sweep(when)
        result.sweeps.append(report)
        if self.on_sweep is not None:
            self.on_sweep(report, self.engine)

    def _save_checkpoint(
        self,
        when: float,
        result: RunResult,
        next_sweep: float,
        next_snapshot: Optional[float],
    ) -> None:
        assert self.checkpoint_store is not None
        self.checkpoint_store.save(
            Checkpoint(
                when=when,
                flows_processed=result.flows_processed,
                next_sweep=next_sweep,
                next_snapshot=next_snapshot,
                sweep_count=len(result.sweeps),
                engine_blob=self.engine.to_bytes(),
            )
        )

    def _emit(self, when: float, result: RunResult) -> Snapshot:
        records = self.engine.snapshot(
            when, include_unclassified=self.include_unclassified
        )
        result.snapshots[when] = records
        self._epoch += 1
        snapshot = Snapshot(when, records, epoch=self._epoch, source="pipeline")
        if self.fault_hook is not None:
            self.fault_hook.on_sink_emit(when)
        for sink in self.sinks:
            sink.emit(snapshot)
        return snapshot

    # ------------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Flush sinks and shut down executor workers (idempotent).

        Sinks are closed exactly once per pipeline, whichever path gets
        here first — normal teardown, the context-manager exit, or an
        explicit close after crash recovery; :meth:`Sink.close` is
        itself idempotent as a second line of defense.
        """
        if not self._sinks_closed:
            self._sinks_closed = True
            for sink in self.sinks:
                sink.close()
        close = getattr(self.engine, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "Pipeline":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
