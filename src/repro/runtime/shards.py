"""The engine side of address-space sharding.

One :class:`ShardEngine` owns the depth-``k`` subtree at its shard
index: a full :class:`~repro.core.algorithm.IPD` whose per-family tries
are *rooted* at the shard's ``/k`` prefix instead of ``/0``.  A tree
whose root carries a :class:`~repro.core.state.DelegatedState` is
*inactive* — the aggregator still owns that range as a coarse leaf.
The coordinator activates a shard by shipping the aggregator leaf's
observation state down (a ``seed`` op) and deactivates it when a
cross-boundary join or prune pulls the range back up (a ``reset`` op).

Everything in this module is executor-agnostic: the serial executor
calls it in-process and the multiprocessing executor inside worker
processes (all types here are picklable for that reason).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..core.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionImage,
    decode_admission,
)
from ..core.algorithm import IPD, SweepReport
from ..core.iputil import IPV4, IPV6, Prefix
from ..core.params import IPDParams
from ..core.state import ClassifiedState, DelegatedState, UnclassifiedState
from ..core.statecodec import (
    StateCodecError,
    decode_subtree,
    encode_subtree,
    plant_image,
    subtree_to_image,
)
from ..netflow.records import FlowBatch
from ..topology.elements import IngressPoint

if TYPE_CHECKING:
    from ..core.output import IPDRecord
    from ..core.rangetree import RangeTree

__all__ = ["ShardEngine", "ShardTickResult", "RootSummary", "ShardMetrics"]

#: shard-op tuples exchanged between coordinator and executors:
#: ``("seed", index, version, payload)`` activates a shard's family tree
#: by planting an encoded subtree blob (a handed-down aggregator leaf,
#: or a whole carved subtree on checkpoint resume); ``("reset", index,
#: version)`` deactivates it after a cross-boundary join/prune;
#: ``("admission", index, 0, payload)`` restores the shard's admission
#: controller from an encoded admission section (checkpoint resume);
#: ``("saturate", index, 0)`` forces its sketch to the saturation
#: ceiling (the ``sketch_saturate`` fault site).
ShardOp = tuple


@dataclass
class RootSummary:
    """What the coordinator needs to know about one shard-family root.

    ``kind`` is one of:

    * ``"inactive"``   — the root is delegated (aggregator owns the range)
    * ``"busy"``       — the shard holds structure or samples under it
    * ``"empty"``      — single empty unclassified leaf (prunable)
    * ``"classified"`` — single classified leaf (joinable with its sibling)
    """

    kind: str
    ingress: Optional[IngressPoint] = None
    counters: Optional[dict[IngressPoint, float]] = None
    last_seen: float = 0.0
    classified_at: float = 0.0
    total: float = 0.0

    def as_classified_state(self) -> ClassifiedState:
        assert self.kind == "classified"
        assert self.ingress is not None and self.counters is not None
        return ClassifiedState(
            ingress=self.ingress,
            counters=dict(self.counters),
            last_seen=self.last_seen,
            classified_at=self.classified_at,
        )


@dataclass
class ShardTickResult:
    """One shard engine's contribution to a coordinated sweep tick."""

    index: int
    report: SweepReport
    #: family version -> post-sweep root summary
    roots: dict[int, RootSummary] = field(default_factory=dict)


@dataclass
class ShardMetrics:
    """Exact post-hoc counters for one or more shard engines."""

    state_size: int = 0
    leaves_by_version: dict[int, int] = field(default_factory=dict)
    classified_by_version: dict[int, int] = field(default_factory=dict)

    def add(self, other: "ShardMetrics") -> None:
        self.state_size += other.state_size
        for version, count in other.leaves_by_version.items():
            self.leaves_by_version[version] = (
                self.leaves_by_version.get(version, 0) + count
            )
        for version, count in other.classified_by_version.items():
            self.classified_by_version[version] = (
                self.classified_by_version.get(version, 0) + count
            )

    def leaf_count(self) -> int:
        return sum(self.leaves_by_version.values())


class ShardEngine:
    """One depth-``k`` subtree of the address space, run as a full IPD."""

    def __init__(
        self,
        params: IPDParams,
        depth: int,
        index: int,
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
        self.index = index
        self.depth = depth
        roots = {
            version: Prefix(index << (Prefix.root(version).bits - depth),
                            depth, version)
            for version in (IPV4, IPV6)
        }
        # each shard builds its own controller from the shared config:
        # same seed and geometry, so shard sketches stay cellwise-
        # mergeable into the engine-wide admission image
        self.ipd = IPD(params, roots=roots, admission=admission)
        # Both family trees start inactive: the aggregator owns the whole
        # space until its split cascade reaches the shard depth.
        for tree in self.ipd.trees.values():
            tree.root.state = DelegatedState()

    # -- ops ----------------------------------------------------------------

    def apply_op(self, op: ShardOp) -> None:
        kind = op[0]
        if kind == "seed":
            self.seed(op[2], op[3])
        elif kind == "reset":
            self.reset(op[2])
        elif kind == "admission":
            section = decode_admission(op[3])
            # the coordinator only ships sections it encoded itself
            assert isinstance(section, AdmissionImage)
            self.ipd.admission = AdmissionController.from_image(section)
        elif kind == "saturate":
            self.ipd.saturate_admission()
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown shard op: {op[0]!r}")

    def seed(self, version: int, payload: "bytes | memoryview") -> None:
        """Activate one family tree by planting an encoded subtree blob.

        The blob is either a single handed-down aggregator leaf (the
        per-sweep handoff) or a whole subtree carved out of a merged
        checkpoint image on resume.  Planting through the state codec
        rebuilds the tree's dirty/expiry bookkeeping, so the shard's
        next sweep behaves exactly as the source engine's would have.
        """
        image = decode_subtree(payload)
        tree = self.ipd.trees[version]
        root = tree.root
        assert root.left is None and isinstance(root._state, DelegatedState)
        if image.version != version or image.prefix != root.prefix:
            raise StateCodecError(
                f"seed for {image.prefix} (IPv{image.version}) does not "
                f"match shard root {root.prefix} (IPv{version})"
            )
        plant_image(tree, root, image.root)
        tree.split_count += image.split_count
        tree.join_count += image.join_count

    def reset(self, version: int) -> None:
        """Deactivate one family tree (range pulled back into the aggregator)."""
        root = self.ipd.trees[version].root
        assert root.left is None
        root.state = DelegatedState()

    def export(self) -> dict[int, bytes]:
        """Serialize every *active* family tree as a subtree blob.

        Inactive trees (root still delegated — the aggregator owns the
        range) are omitted.  The coordinator grafts these blobs into its
        aggregator image to form the merged single-engine-equivalent
        checkpoint.
        """
        payloads: dict[int, bytes] = {}
        for version, tree in self.ipd.trees.items():
            root = tree.root
            if root.left is None and isinstance(root._state, DelegatedState):
                continue
            payloads[version] = encode_subtree(
                root.prefix,
                version,
                subtree_to_image(tree, root),
                tree.split_count,
                tree.join_count,
            )
        return payloads

    # -- data path ----------------------------------------------------------

    def ingest_batch(self, batch: FlowBatch) -> int:
        return self.ipd.ingest_batch(batch)

    def tick(self, now: float) -> ShardTickResult:
        """Sweep and summarize the roots for boundary reconciliation."""
        report = self.ipd.sweep(now)
        return ShardTickResult(
            index=self.index,
            report=report,
            roots={
                version: self._summarize_root(tree)
                for version, tree in self.ipd.trees.items()
            },
        )

    @staticmethod
    def _summarize_root(tree: "RangeTree") -> RootSummary:
        root = tree.root
        state = root._state
        if isinstance(state, DelegatedState):
            return RootSummary("inactive")
        if root.left is not None:
            return RootSummary("busy")
        if isinstance(state, ClassifiedState):
            return RootSummary(
                "classified",
                ingress=state.ingress,
                counters=dict(state.counters),
                last_seen=state.last_seen,
                classified_at=state.classified_at,
                total=state.total,
            )
        assert isinstance(state, UnclassifiedState)
        return RootSummary("empty" if state.is_empty() else "busy")

    def admission_image(self) -> Optional[AdmissionImage]:
        """The shard controller's state image (``None`` when admission is off)."""
        if self.ipd.admission is None:
            return None
        return self.ipd.admission.to_image()

    def snapshot(
        self, now: float, include_unclassified: bool = False
    ) -> "list[IPDRecord]":
        return self.ipd.snapshot(now, include_unclassified=include_unclassified)

    def metrics(self) -> ShardMetrics:
        return ShardMetrics(
            state_size=self.ipd.state_size(),
            leaves_by_version={
                version: tree.leaf_count()
                for version, tree in self.ipd.trees.items()
            },
            classified_by_version={
                version: tree.classified_count()
                for version, tree in self.ipd.trees.items()
            },
        )
