"""Interchangeable executors for the sharded runtime.

The coordinator (:class:`~repro.runtime.sharding.ShardedIPD`) speaks one
small protocol — ``feed`` batches to a shard, ``tick`` all shards,
``apply`` seed/reset ops, ``snapshot``, ``metrics``, ``close`` — and the
two executors implement it with different parallelism:

* :class:`SerialExecutor` — everything in the calling thread, fully
  deterministic; the reference implementation the equivalence suite
  pins the other against.
* :class:`MultiprocessExecutor` — one worker process per slot.  The
  control plane (tick/snapshot/metrics/export and their replies) is a
  duplex pipe; the data plane is selected by ``transport``:
  ``"pickle"`` ships :class:`~repro.netflow.records.FlowBatch` columns
  and shard ops pickled over the same pipe (the legacy transport),
  ``"shm"`` encodes them with the binary wire codec
  (:mod:`repro.netflow.wirecodec`) straight into a per-slot
  shared-memory ring (:mod:`repro.runtime.shmring`) — written once by
  the router, read once by the worker, no pickling in between.  This
  is the executor that actually multiplies single-core ingest
  throughput.

Every executor carries a ``fault_hook`` attribute (default ``None``)
— the testkit's chaos seam.  When set to a
:class:`~repro.testkit.faults.FaultPlan`, the hook is consulted at
named injection sites: ``feed`` (a batch may be dropped or delivered
twice), ``tick_begin`` (a worker crash may be injected), and — shm
transport only — ``shm_feed`` (a forced backpressure stall or a
corrupted frame).  Unset, each site costs a single identity check on
paths that are already dominated by queue/pipe traffic, so production
behaviour is unchanged.

Shard *index* → worker *slot* is a fixed ``index % workers`` mapping,
and each worker handles its commands strictly in order (FIFO per pipe),
so no acknowledgement round-trips are needed for ``feed`` and
``apply``: a later ``tick``/``snapshot``/``metrics`` reply implies every
earlier command was applied.  Tick replies are a barrier; state
evolution is therefore identical across executors — only wall-clock
interleaving differs.  The shm transport keeps the same contract: feeds
and shard ops travel the ring in commit order, and every control-plane
command carries the ring's committed-frame watermark, which the worker
drains up to before executing the command.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Iterable, Optional, Union

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

from ..core.admission import AdmissionConfig, AdmissionImage
from ..core.output import IPDRecord
from ..core.params import IPDParams
from ..netflow.records import FlowBatch
from ..netflow.wirecodec import FlowBatchDecoder, FlowBatchEncoder, WireCodecError
from .faulthook import FaultHookLike
from .shards import ShardEngine, ShardMetrics, ShardTickResult
from .shmring import FRAME_FEED, FRAME_OPS, ShmRing, ShmRingError

__all__ = [
    "SerialExecutor",
    "MultiprocessExecutor",
    "WorkerCrashError",
    "make_executor",
    "EXECUTOR_KINDS",
    "TRANSPORT_KINDS",
]

EXECUTOR_KINDS = ("serial", "mp")
TRANSPORT_KINDS = ("pickle", "shm")

#: ring bytes per worker slot; a single frame (one encoded batch or one
#: shard-handoff blob) must fit — router batches top out around 0.5 MiB
#: at the 8192-row flush threshold, so 4 MiB leaves generous headroom
_RING_CAPACITY = 1 << 22

#: forced-full probes injected by a chaos ``shm_ring_full`` fault
_FAULT_STALL_CHECKS = 5

#: producer stall iterations between worker liveness checks (~10 ms)
_LIVENESS_EVERY = 50

#: seconds the shm worker waits on the pipe before re-polling the ring
_SHM_IDLE_POLL_SECONDS = 0.001

_U32 = struct.Struct("<I")
#: shm op-frame prefix: op tag, shard index, address-family version
#: (version is 0 for admission ops, which are family-agnostic)
_OP_HEADER = struct.Struct("<BIB")
_OP_SEED = 1
_OP_RESET = 2
_OP_ADMISSION = 3
_OP_SATURATE = 4


class WorkerCrashError(RuntimeError):
    """A shard worker process died mid-run (pipe broken or closed).

    Raised by :class:`MultiprocessExecutor` instead of the raw OS-level
    error so the pipeline's recovery path can catch one well-known type,
    tear the executor down, and rebuild the engine from its last
    checkpoint.
    """


class ShardWorker:
    """The engines owned by one worker slot, plus the command dispatcher.

    Shared verbatim by both executors: the serial executor calls
    :meth:`handle` inline, the multiprocessing executor inside a worker
    process.
    """

    def __init__(
        self,
        params: IPDParams,
        depth: int,
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
        self.params = params
        self.depth = depth
        self.admission = admission
        self.engines: dict[int, ShardEngine] = {}

    def engine(self, index: int) -> ShardEngine:
        engine = self.engines.get(index)
        if engine is None:
            engine = self.engines[index] = ShardEngine(
                self.params, self.depth, index, admission=self.admission
            )
        return engine

    def handle(self, cmd: tuple) -> object:
        """Process one command; returns the reply or ``None`` (no reply)."""
        kind = cmd[0]
        if kind == "feed":
            self.engine(cmd[1]).ingest_batch(cmd[2])
            return None
        if kind == "ops":
            for op in cmd[1]:
                self.engine(op[1]).apply_op(op)
            return None
        if kind == "tick":
            now = cmd[1]
            return {
                index: engine.tick(now)
                for index, engine in sorted(self.engines.items())
            }
        if kind == "snapshot":
            records: list[IPDRecord] = []
            for __, engine in sorted(self.engines.items()):
                records.extend(engine.snapshot(cmd[1], cmd[2]))
            return records
        if kind == "metrics":
            metrics = ShardMetrics()
            for engine in self.engines.values():
                metrics.add(engine.metrics())
            return metrics
        if kind == "export":
            return {
                index: engine.export()
                for index, engine in sorted(self.engines.items())
            }
        if kind == "admission_export":
            return {
                index: engine.admission_image()
                for index, engine in sorted(self.engines.items())
            }
        raise ValueError(f"unknown executor command: {kind!r}")


class SerialExecutor:
    """All shards in the calling thread — the deterministic reference."""

    kind = "serial"

    def __init__(
        self,
        params: IPDParams,
        depth: int,
        workers: int = 1,
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
        self._worker = ShardWorker(params, depth, admission=admission)
        self._tick_results: Optional[dict[int, ShardTickResult]] = None
        self.fault_hook: Optional[FaultHookLike] = None

    def feed(self, index: int, batch: FlowBatch) -> None:
        if self.fault_hook is not None:
            action = self.fault_hook.on_feed(index, batch)
            if action == "drop":
                return
            if action == "duplicate":
                self._worker.handle(("feed", index, batch))
        self._worker.handle(("feed", index, batch))

    def apply(self, ops: Iterable[tuple]) -> None:
        self._worker.handle(("ops", list(ops)))

    def tick_begin(self, now: float) -> None:
        if self.fault_hook is not None:
            self.fault_hook.before_tick(self, now)
        self._tick_results = self._worker.handle(("tick", now))

    def tick_collect(self) -> dict[int, ShardTickResult]:
        results, self._tick_results = self._tick_results, None
        assert results is not None
        return results

    def snapshot(self, now: float, include_unclassified: bool) -> list[IPDRecord]:
        return self._worker.handle(("snapshot", now, include_unclassified))

    def metrics(self) -> ShardMetrics:
        return self._worker.handle(("metrics",))

    def export(self) -> dict[int, dict[int, bytes]]:
        return self._worker.handle(("export",))

    def admission_export(self) -> dict[int, Optional[AdmissionImage]]:
        return self._worker.handle(("admission_export",))

    def close(self) -> None:
        pass


def _mp_worker_main(
    conn: "Connection",
    params: IPDParams,
    depth: int,
    admission: Optional[AdmissionConfig] = None,
) -> None:
    """Pickle-transport worker entry (module-level: must be picklable)."""
    worker = ShardWorker(params, depth, admission=admission)
    while True:
        try:
            cmd = conn.recv()
        except EOFError:
            return
        if cmd[0] == "stop":
            conn.close()
            return
        reply = worker.handle(cmd)
        if reply is not None:
            conn.send(reply)


def _apply_shm_frame(
    worker: ShardWorker,
    decoder: FlowBatchDecoder,
    kind: int,
    payload: memoryview,
) -> None:
    """Decode one ring frame and apply it — straight off shared memory."""
    if kind == FRAME_FEED:
        (index,) = _U32.unpack_from(payload, 0)
        worker.handle(("feed", index, decoder.decode_from(payload[4:])))
    elif kind == FRAME_OPS:
        tag, index, version = _OP_HEADER.unpack_from(payload, 0)
        if tag == _OP_SEED:
            (length,) = _U32.unpack_from(payload, _OP_HEADER.size)
            start = _OP_HEADER.size + 4
            blob = payload[start:start + length]
            worker.handle(("ops", [("seed", index, version, blob)]))
        elif tag == _OP_RESET:
            worker.handle(("ops", [("reset", index, version)]))
        elif tag == _OP_ADMISSION:
            (length,) = _U32.unpack_from(payload, _OP_HEADER.size)
            start = _OP_HEADER.size + 4
            blob = payload[start:start + length]
            worker.handle(("ops", [("admission", index, 0, blob)]))
        elif tag == _OP_SATURATE:
            worker.handle(("ops", [("saturate", index, 0)]))
        else:
            raise ShmRingError(f"unknown shard-op tag {tag}")
    else:
        raise ShmRingError(f"unexpected frame kind {kind}")


def _mp_worker_shm_main(
    conn: "Connection",
    ring_name: str,
    params: IPDParams,
    depth: int,
    admission: Optional[AdmissionConfig] = None,
) -> None:
    """Shm-transport worker entry: drain the ring, obey pipe barriers.

    Ring frames (feeds and shard ops) are applied as they arrive; a
    pipe command carries the producer's committed-frame watermark and
    executes only once the ring has been drained that far, which is
    what preserves the feed-before-barrier ordering contract.  Any
    transport damage — a CRC failure, an undecodable frame — exits the
    process, so the parent's next barrier raises
    :class:`WorkerCrashError` and checkpoint recovery takes over.
    """
    ring = ShmRing(name=ring_name)
    worker = ShardWorker(params, depth, admission=admission)
    decoder = FlowBatchDecoder()
    consumed = 0
    try:
        while True:
            frame = ring.try_recv()
            if frame is not None:
                seq, kind, payload = frame
                _apply_shm_frame(worker, decoder, kind, payload)
                consumed = seq
                continue
            if not conn.poll(_SHM_IDLE_POLL_SECONDS):
                continue
            try:
                cmd = conn.recv()
            except EOFError:
                return
            watermark = cmd[-1]
            while consumed < watermark:
                seq, kind, payload = ring.recv()
                _apply_shm_frame(worker, decoder, kind, payload)
                consumed = seq
            if cmd[0] == "stop":
                conn.close()
                return
            reply = worker.handle(cmd[:-1])
            if reply is not None:
                conn.send(reply)
    except (ShmRingError, WireCodecError):
        # transport damage: die quietly — the parent's next barrier
        # turns the closed pipe into a WorkerCrashError and recovery
        # rebuilds this worker from the last checkpoint
        return
    finally:
        ring.close()


class MultiprocessExecutor:
    """One worker process per slot; pipe control plane, selectable data plane."""

    kind = "mp"

    def __init__(
        self,
        params: IPDParams,
        depth: int,
        workers: int = 2,
        transport: str = "pickle",
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
        import multiprocessing

        if transport not in TRANSPORT_KINDS:
            raise ValueError(
                f"unknown transport {transport!r}; expected one of "
                f"{TRANSPORT_KINDS}"
            )
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context()
        self.workers = max(1, workers)
        self.transport = transport
        self._conns = []
        self._processes = []
        self._rings: list[ShmRing] = []
        self._encoders: list[FlowBatchEncoder] = []
        for slot in range(self.workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            if transport == "shm":
                ring = ShmRing(capacity=_RING_CAPACITY)
                self._rings.append(ring)
                self._encoders.append(FlowBatchEncoder())
                process = ctx.Process(
                    target=_mp_worker_shm_main,
                    args=(child_conn, ring.name, params, depth, admission),
                    name=f"ipd-shard-{slot}",
                    daemon=True,
                )
            else:
                process = ctx.Process(
                    target=_mp_worker_main,
                    args=(child_conn, params, depth, admission),
                    name=f"ipd-shard-{slot}",
                    daemon=True,
                )
            process.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._processes.append(process)
        self._closed = False
        self.fault_hook: Optional[FaultHookLike] = None

    def _slot(self, index: int) -> int:
        return index % self.workers

    def _send(self, slot: int, cmd: tuple) -> None:
        try:
            self._conns[slot].send(cmd)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise WorkerCrashError(
                f"shard worker {slot} is gone ({exc!r})"
            ) from exc

    def _recv(self, slot: int) -> object:
        try:
            return self._conns[slot].recv()
        except (EOFError, ConnectionResetError, OSError) as exc:
            raise WorkerCrashError(
                f"shard worker {slot} died before replying ({exc!r})"
            ) from exc

    def _barrier_send(self, slot: int, cmd: tuple) -> None:
        """Send a control-plane command, stamped with the ring watermark."""
        if self.transport == "shm":
            cmd = cmd + (self._rings[slot].sequence,)
        self._send(slot, cmd)

    def _reserve(self, slot: int, kind: int, size: int) -> memoryview:
        """Ring reservation that notices a dead worker during backpressure."""
        process = self._processes[slot]

        def on_stall(spins: int) -> None:
            if spins % _LIVENESS_EVERY == 0 and not process.is_alive():
                raise WorkerCrashError(
                    f"shard worker {slot} died while its ring was full"
                )

        return self._rings[slot].reserve(kind, size, on_stall=on_stall)

    def feed(self, index: int, batch: FlowBatch) -> None:
        if self.fault_hook is not None:
            action = self.fault_hook.on_feed(index, batch)
            if action == "drop":
                return
            if action == "duplicate":
                self._feed_once(index, batch)
        self._feed_once(index, batch)

    def _feed_once(self, index: int, batch: FlowBatch) -> None:
        if self.transport != "shm":
            self._send(self._slot(index), ("feed", index, batch))
            return
        slot = self._slot(index)
        corrupt = False
        if self.fault_hook is not None:
            action = self.fault_hook.on_shm_feed(slot)
            if action == "stall":
                self._rings[slot].force_stall(_FAULT_STALL_CHECKS)
            elif action == "corrupt":
                corrupt = True
        encoder = self._encoders[slot]
        view = self._reserve(slot, FRAME_FEED, 4 + encoder.measure(batch))
        try:
            _U32.pack_into(view, 0, index)
            encoder.encode_into(batch, view[4:])
        except Exception:
            self._rings[slot].abort(view)
            raise
        self._rings[slot].commit(view, corrupt=corrupt)

    def apply(self, ops: Iterable[tuple]) -> None:
        if self.transport == "shm":
            for op in ops:
                self._apply_shm_op(op)
            return
        by_slot: dict[int, list[tuple]] = {}
        for op in ops:
            by_slot.setdefault(self._slot(op[1]), []).append(op)
        for slot, slot_ops in by_slot.items():
            self._send(slot, ("ops", slot_ops))

    def _apply_shm_op(self, op: tuple) -> None:
        slot = self._slot(op[1])
        if op[0] == "seed":
            payload = op[3]
            size = _OP_HEADER.size + 4 + len(payload)
            view = self._reserve(slot, FRAME_OPS, size)
            try:
                _OP_HEADER.pack_into(view, 0, _OP_SEED, op[1], op[2])
                _U32.pack_into(view, _OP_HEADER.size, len(payload))
                view[_OP_HEADER.size + 4:] = payload
            except Exception:
                self._rings[slot].abort(view)
                raise
        elif op[0] == "reset":
            view = self._reserve(slot, FRAME_OPS, _OP_HEADER.size)
            try:
                _OP_HEADER.pack_into(view, 0, _OP_RESET, op[1], op[2])
            except Exception:
                self._rings[slot].abort(view)
                raise
        elif op[0] == "admission":
            payload = op[3]
            size = _OP_HEADER.size + 4 + len(payload)
            view = self._reserve(slot, FRAME_OPS, size)
            try:
                _OP_HEADER.pack_into(view, 0, _OP_ADMISSION, op[1], 0)
                _U32.pack_into(view, _OP_HEADER.size, len(payload))
                view[_OP_HEADER.size + 4:] = payload
            except Exception:
                self._rings[slot].abort(view)
                raise
        elif op[0] == "saturate":
            view = self._reserve(slot, FRAME_OPS, _OP_HEADER.size)
            try:
                _OP_HEADER.pack_into(view, 0, _OP_SATURATE, op[1], 0)
            except Exception:
                self._rings[slot].abort(view)
                raise
        else:
            raise ValueError(f"unknown shard op: {op[0]!r}")
        self._rings[slot].commit(view)

    def tick_begin(self, now: float) -> None:
        if self.fault_hook is not None:
            self.fault_hook.before_tick(self, now)
        for slot in range(self.workers):
            self._barrier_send(slot, ("tick", now))

    def tick_collect(self) -> dict[int, ShardTickResult]:
        results: dict[int, ShardTickResult] = {}
        for slot in range(self.workers):
            results.update(self._recv(slot))
        return results

    def snapshot(self, now: float, include_unclassified: bool) -> list[IPDRecord]:
        for slot in range(self.workers):
            self._barrier_send(slot, ("snapshot", now, include_unclassified))
        records: list[IPDRecord] = []
        for slot in range(self.workers):
            records.extend(self._recv(slot))
        return records

    def metrics(self) -> ShardMetrics:
        for slot in range(self.workers):
            self._barrier_send(slot, ("metrics",))
        metrics = ShardMetrics()
        for slot in range(self.workers):
            metrics.add(self._recv(slot))
        return metrics

    def export(self) -> dict[int, dict[int, bytes]]:
        for slot in range(self.workers):
            self._barrier_send(slot, ("export",))
        exports: dict[int, dict[int, bytes]] = {}
        for slot in range(self.workers):
            exports.update(self._recv(slot))
        return exports

    def admission_export(self) -> dict[int, Optional[AdmissionImage]]:
        for slot in range(self.workers):
            self._barrier_send(slot, ("admission_export",))
        images: dict[int, Optional[AdmissionImage]] = {}
        for slot in range(self.workers):
            images.update(self._recv(slot))
        return images

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for slot, conn in enumerate(self._conns):
            cmd: tuple = ("stop",)
            if self.transport == "shm":
                cmd = ("stop", self._rings[slot].sequence)
            try:
                conn.send(cmd)
            except (BrokenPipeError, OSError):  # worker already gone
                pass
        for process in self._processes:
            process.join(timeout=10.0)
            if process.is_alive():  # pragma: no cover - defensive
                process.terminate()
        for conn in self._conns:
            conn.close()
        for ring in self._rings:
            ring.close()
            ring.unlink()


def make_executor(
    kind: str,
    params: IPDParams,
    depth: int,
    workers: Optional[int] = None,
    transport: str = "pickle",
    admission: Optional[AdmissionConfig] = None,
) -> "Union[SerialExecutor, MultiprocessExecutor]":
    """Build an executor by name (``serial`` / ``mp``)."""
    if transport not in TRANSPORT_KINDS:
        raise ValueError(
            f"unknown transport {transport!r}; expected one of "
            f"{TRANSPORT_KINDS}"
        )
    if kind != "mp" and transport != "pickle":
        raise ValueError(
            f"transport {transport!r} applies only to the mp executor"
        )
    if kind == "serial":
        return SerialExecutor(params, depth, admission=admission)
    if kind == "mp":
        if workers is None:
            import os

            workers = min(4, os.cpu_count() or 1)
        return MultiprocessExecutor(
            params, depth, workers, transport, admission=admission
        )
    raise ValueError(
        f"unknown executor {kind!r}; expected one of {EXECUTOR_KINDS}"
    )
