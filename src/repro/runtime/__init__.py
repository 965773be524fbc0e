"""The pipeline runtime: Source → Router → engine shards → Merger → Sinks.

One execution surface for every way of running IPD:

* :class:`~repro.runtime.pipeline.Pipeline` — deterministic offline
  replay (simulated time), single-engine or address-space-sharded.
* :class:`~repro.runtime.live.LivePipeline` — the deployment's
  wall-clock two-thread layout over the same engines.
* :class:`~repro.runtime.sharding.ShardedIPD` — the shard coordinator
  itself, usable directly wherever an :class:`~repro.core.algorithm.IPD`
  is expected.
* executors (``serial`` / ``mp``) — interchangeable
  backends driving the shard engines.  The mp executor's data plane is
  selectable: ``transport="pickle"`` (pipes) or ``transport="shm"``
  (zero-copy shared-memory rings, :mod:`repro.runtime.shmring`).

``repro.core.driver``'s ``OfflineDriver`` and ``ThreadedIPD`` are thin
façades over this package, kept for compatibility.
"""

from .checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointCorruptError,
    CheckpointStore,
    restore_engine,
)
from .executors import (
    EXECUTOR_KINDS,
    TRANSPORT_KINDS,
    MultiprocessExecutor,
    SerialExecutor,
    WorkerCrashError,
    make_executor,
)
from .faulthook import FaultHookLike
from .live import LivePipeline, PipelineStateError
from ..core.snapshot import Snapshot
from .pipeline import Pipeline
from .result import RunResult
from .sharding import ShardedIPD
from .shards import ShardEngine
from .shmring import ShmFrameError, ShmRing, ShmRingError
from .sinks import CallbackSink, CSVSink, MemorySink, ServiceSink, Sink

__all__ = [
    "Pipeline",
    "LivePipeline",
    "PipelineStateError",
    "FaultHookLike",
    "ShardedIPD",
    "ShardEngine",
    "RunResult",
    "Checkpoint",
    "CheckpointCorruptError",
    "CheckpointStore",
    "CHECKPOINT_VERSION",
    "restore_engine",
    "Sink",
    "Snapshot",
    "MemorySink",
    "CallbackSink",
    "CSVSink",
    "ServiceSink",
    "SerialExecutor",
    "MultiprocessExecutor",
    "WorkerCrashError",
    "make_executor",
    "EXECUTOR_KINDS",
    "TRANSPORT_KINDS",
    "ShmRing",
    "ShmRingError",
    "ShmFrameError",
]
