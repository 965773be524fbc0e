"""Compatibility façades over the pipeline runtime.

The replay and deployment loops moved to :mod:`repro.runtime`:

* :class:`OfflineDriver` is now a thin façade over
  :class:`~repro.runtime.pipeline.Pipeline` — same constructor, same
  ``run`` / ``run_incremental`` semantics, same event-driven grid
  (sweeps at ``t``-second boundaries of the trace clock, snapshots every
  ``snapshot_seconds``).  New code should construct a ``Pipeline``
  directly; it adds address-space sharding (``shards=N``) and a choice
  of executors (``serial`` / ``mp``).
* :class:`ThreadedIPD` is a deprecated alias of
  :class:`~repro.runtime.live.LivePipeline`, the deployment's two-thread
  layout (§3.2, §5.7).  It additionally gained the queue-drain guarantee
  on ``stop()``: no submitted flow is lost to the stop race.
* :class:`RunResult` is re-exported from :mod:`repro.runtime.result`.
"""

from __future__ import annotations

import warnings
from typing import Callable, Optional

from ..runtime.live import LivePipeline
from ..runtime.pipeline import Pipeline
from ..runtime.result import RunResult
from .algorithm import IPD, SweepReport
from .params import IPDParams

__all__ = ["OfflineDriver", "RunResult", "ThreadedIPD"]


class OfflineDriver(Pipeline):
    """Single-engine offline replay (façade over :class:`Pipeline`).

    Kept with its original constructor signature; ``driver.ipd`` still
    names the engine.  Equivalent to
    ``Pipeline(params, shards=1, executor="serial", ...)``.
    """

    def __init__(
        self,
        params: IPDParams | None = None,
        snapshot_seconds: float = 300.0,
        include_unclassified: bool = False,
        on_sweep: Optional[Callable[[SweepReport, IPD], None]] = None,
    ) -> None:
        super().__init__(
            params=params,
            snapshot_seconds=snapshot_seconds,
            include_unclassified=include_unclassified,
            on_sweep=on_sweep,
        )

    @property
    def ipd(self) -> IPD:
        """The underlying engine (compatibility alias for ``engine``)."""
        return self.engine


class ThreadedIPD(LivePipeline):
    """Deprecated alias of :class:`~repro.runtime.live.LivePipeline`.

    The two-thread deployment layout lives in the runtime package now;
    this name is kept so existing imports and subclasses keep working.
    Use ``LivePipeline`` in new code — it accepts the same arguments
    plus the ``shards`` / ``executor`` / ``workers`` knobs.
    """

    def __init__(
        self,
        params: IPDParams | None = None,
        sweep_interval: float = 1.0,
        clock: Callable[[], float] | None = None,
    ) -> None:
        warnings.warn(
            "ThreadedIPD is deprecated; use repro.runtime.LivePipeline",
            DeprecationWarning,
            stacklevel=2,
        )
        super().__init__(params=params, sweep_interval=sweep_interval, clock=clock)
