"""Address-space-sharded IPD: the coordinator.

:class:`ShardedIPD` presents the single-engine surface — ``ingest``,
``ingest_batch``, ``sweep``, ``snapshot``, ``state_size`` — while the
work is split across ``2^k`` shard engines (one per depth-``k`` subtree,
routed on the masked source's top ``k`` bits) plus a small *aggregator*
engine that owns every range coarser than ``/k``.

The design invariant is **byte-identical output**: the visible leaves of
aggregator + shards partition the address space exactly like one
engine's trie, and every Stage-2 decision is made by the same code on
the same per-range state.  Three properties make that hold:

* *Stable routing between ticks.*  Trie shape only changes inside
  :meth:`sweep`, so the delegation map (which depth-``k`` subtrees are
  shard-owned) is frozen while flows are routed; a flow lands in the
  same leaf state a single engine would have put it in.
* *Pure per-leaf decisions.*  Classification, split, expiry and decay
  depend only on (leaf state, ``now``, params) — never on other leaves —
  so running them inside a shard is indistinguishable from running them
  inside one big trie.
* *Confluent closures.*  Joins and prunes are applied to pairwise-
  independent sibling pairs and cascaded; the sharded sweep performs the
  shard-local pairs, then the cross-boundary pairs at ``/k`` (both shard
  roots reduced to a single agreeing leaf), then cascades upward through
  the aggregator — reaching the same fixed point as the single engine's
  one-pass closure.

Handoffs move ranges across the ``/k`` boundary: after each sweep the
aggregator delegates any visible unclassified leaf that reached depth
``k`` down to its shard (a ``seed`` op carrying the observation state),
and the reconciliation above pulls ranges back up (``reset`` ops).  Both
sides mark the vacated leaf with a
:class:`~repro.core.state.DelegatedState` so exactly one engine owns any
address at any time.

The §5.8 load-balance detector needs full-trie walks and is not
supported in sharded mode — attach it to a plain :class:`IPD`.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from ..core.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionImage,
    RetiredExactSection,
    decode_admission,
    encode_admission,
    merge_admission_images,
)
from ..core.algorithm import IPD, SweepReport, _is_empty_unclassified
from ..core.iputil import IPV4, IPV6, Prefix
from ..core.output import IPDRecord
from ..core.params import DEFAULT_PARAMS, IPDParams
from ..core.rangetree import RangeNode
from ..core.state import UnclassifiedState
from ..core.statecodec import (
    EngineImage,
    NodeImage,
    decode_engine_span,
    decode_subtree,
    encode_engine,
    encode_subtree,
    plant_image,
    tree_to_image,
    unclassified_image,
)
from ..netflow.records import FlowBatch, FlowRecord, iter_flow_batches
from .executors import make_executor
from .shards import ShardTickResult

__all__ = ["ShardedIPD"]

#: buffered per-flow rows are flushed to the executor at this many rows
_PENDING_FLUSH_ROWS = 8192


class ShardedIPD:
    """A drop-in IPD engine that fans ingest out over ``2^k`` shards."""

    def __init__(
        self,
        params: IPDParams | None = None,
        shards: int = 4,
        executor: str = "serial",
        workers: Optional[int] = None,
        transport: str = "pickle",
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
        params = params or DEFAULT_PARAMS
        if shards < 1 or shards & (shards - 1):
            raise ValueError(f"shards must be a power of two, got {shards}")
        depth = shards.bit_length() - 1
        max_depth = min(params.cidr_max(IPV4), params.cidr_max(IPV6))
        if depth > max_depth:
            raise ValueError(
                f"split depth {depth} (shards={shards}) exceeds "
                f"cidr_max {max_depth}"
            )
        self.params = params
        self.shards = shards
        self.split_depth = depth
        self.executor_kind = executor
        self.transport = transport
        # the *config* (not a controller) is what crosses process
        # boundaries: each engine builds its own controller from it, and
        # identical seeds/geometry keep the shard sketches mergeable
        self.admission_config = admission
        #: ranges coarser than /k live here, in a plain single engine
        self.aggregator = IPD(params, admission=admission)
        self._executor = make_executor(
            executor, params, depth, workers, transport, admission=admission
        )
        #: family version -> shard indices currently delegated down
        self._delegated: dict[int, set[int]] = {IPV4: set(), IPV6: set()}
        #: family version -> shard index -> the aggregator's placeholder leaf
        self._portals: dict[int, dict[int, RangeNode]] = {IPV4: {}, IPV6: {}}
        self._shifts = {
            version: Prefix.root(version).bits - depth
            for version in (IPV4, IPV6)
        }
        #: (version, index) -> FlowBatch accumulating per-flow submissions
        self._pending: dict[tuple[int, int], FlowBatch] = {}
        self._pending_rows = 0
        self.flows_ingested = 0
        self.bytes_ingested = 0
        self.last_sweep_at: float | None = None
        self._closed = False
        if depth == 0:
            # A single shard owns the whole space; the aggregator is a
            # permanently inert /0 placeholder per family.
            ops: list[tuple] = []
            for version, tree in self.aggregator.trees.items():
                self._delegate(version, tree.root, ops)
            self._executor.apply(ops)

    # ------------------------------------------------------------------ stage 1

    def ingest(self, flow: FlowRecord) -> None:
        """Route one flow to its owning engine (buffered for shards)."""
        version = flow.version
        if self.split_depth and (
            flow.src_ip >> self._shifts[version]
        ) not in self._delegated[version]:
            self.aggregator.ingest(flow)
        else:
            index = (
                flow.src_ip >> self._shifts[version] if self.split_depth else 0
            )
            pending = self._pending.get((version, index))
            if pending is None:
                pending = self._pending[(version, index)] = FlowBatch(version)
            pending.append(flow)
            self._pending_rows += 1
            if self._pending_rows >= _PENDING_FLUSH_ROWS:
                self._flush_pending()
        self.flows_ingested += 1
        self.bytes_ingested += flow.bytes

    def ingest_batch(self, batch: FlowBatch) -> int:
        """Route a columnar batch: aggregator rows inline, shard rows fed out."""
        count = len(batch.timestamps)
        if count == 0:
            return 0
        self.flows_ingested += count
        self.bytes_ingested += sum(batch.byte_counts)
        version = batch.version
        if self.split_depth == 0:
            self._executor.feed(0, batch)
            return count
        delegated = self._delegated[version]
        if not delegated:
            self.aggregator.ingest_batch(batch)
            return count
        shift = self._shifts[version]
        src_ips = batch.src_ips
        buckets: dict[int, list[int]] = {}
        if len(delegated) == self.shards:
            aggregator_rows: list[int] = []
            for row, src in enumerate(src_ips):
                index = src >> shift
                rows = buckets.get(index)
                if rows is None:
                    buckets[index] = [row]
                else:
                    rows.append(row)
        else:
            aggregator_rows = []
            for row, src in enumerate(src_ips):
                index = src >> shift
                if index in delegated:
                    rows = buckets.get(index)
                    if rows is None:
                        buckets[index] = [row]
                    else:
                        rows.append(row)
                else:
                    aggregator_rows.append(row)
        if aggregator_rows:
            self.aggregator.ingest_batch(batch.select(aggregator_rows))
        for index, rows in buckets.items():
            self._executor.feed(index, batch.select(rows))
        return count

    def ingest_many(self, flows: "Iterable[FlowRecord] | FlowBatch") -> int:
        """Batched routing for an iterable of flows."""
        if isinstance(flows, FlowBatch):
            return self.ingest_batch(flows)
        count = 0
        for batch in iter_flow_batches(flows):
            count += self.ingest_batch(batch)
        return count

    def _flush_pending(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, {}
        self._pending_rows = 0
        for (__, index), batch in pending.items():
            self._executor.feed(index, batch)

    # ------------------------------------------------------------------ stage 2

    def sweep(self, now: float) -> SweepReport:
        """One coordinated Stage-2 tick across aggregator and shards."""
        started = time.perf_counter()
        self._flush_pending()
        # Shards sweep concurrently with the aggregator (disjoint state).
        self._executor.tick_begin(now)
        aggregator_report = self.aggregator.sweep(now)
        results = self._executor.tick_collect()

        ops: list[tuple] = []
        boundary_joins, boundary_prunes = self._reconcile(results, ops)
        self._handoff(ops)
        if ops:
            self._executor.apply(ops)

        report = self._merge_reports(
            now, aggregator_report, results, boundary_joins, boundary_prunes
        )
        report.duration_seconds = time.perf_counter() - started
        self.last_sweep_at = now
        return report

    def _reconcile(
        self, results: dict[int, ShardTickResult], ops: list[tuple]
    ) -> tuple[int, int]:
        """Cross-boundary closure: joins and prunes spanning the /k cut.

        A sibling pair of shard roots that a single engine would have
        merged (both single classified leaves, same ingress, combined
        samples above the parent's ``n_cidr``) is joined into the
        aggregator's parent leaf, and the join cascade continues upward
        exactly as in :meth:`IPD._join_pass`.  Likewise a pair of empty
        roots collapses back into an (unclassified, empty) aggregator
        leaf and cascades through ``prune_upward``.  Joins run before
        prunes, matching the single engine's per-sweep order.
        """
        if self.split_depth == 0:
            return 0, 0
        joins = 0
        prunes = 0
        params = self.params
        for version in (IPV4, IPV6):
            tree = self.aggregator.trees[version]
            delegated = self._delegated[version]
            portals = self._portals[version]
            new_classified: list[RangeNode] = []
            new_empty: list[RangeNode] = []
            for index in sorted(delegated):
                if index & 1 or (index + 1) not in delegated:
                    continue
                sibling = index + 1
                left = results[index].roots[version]
                right = results[sibling].roots[version]
                if left.kind == "classified" and right.kind == "classified":
                    if left.ingress != right.ingress:
                        continue
                    parent = portals[index].parent
                    assert parent is not None
                    threshold = params.n_cidr(parent.prefix.masklen, version)
                    if left.total + right.total < threshold:
                        continue
                    merged = left.as_classified_state().merged_with(
                        right.as_classified_state()
                    )
                    tree.join(parent, merged)
                    joins += 1
                    self._undelegate(version, index, ops)
                    self._undelegate(version, sibling, ops)
                    new_classified.append(parent)
                elif left.kind == "empty" and right.kind == "empty":
                    parent = portals[index].parent
                    assert parent is not None
                    tree.collapse(parent)
                    prunes += 1
                    self._undelegate(version, index, ops)
                    self._undelegate(version, sibling, ops)
                    new_empty.append(parent)
            for leaf in new_classified:
                if not leaf.dead:
                    joins += self.aggregator._join_cascade(tree, leaf)
            prunes += tree.prune_upward(
                new_empty,
                _is_empty_unclassified,
                on_remove=self.aggregator._forget_prefix,
            )
        return joins, prunes

    def _handoff(self, ops: list[tuple]) -> None:
        """Delegate aggregator leaves that reached the shard depth.

        The aggregator's split cascade descends one level per sweep;
        any visible unclassified leaf now sitting exactly at depth
        ``k`` is handed to its shard, so between ticks the aggregator
        only ever owns ranges coarser than ``/k``.  The walk is over
        the aggregator trie only — at most ``2^(k+1)`` nodes.
        """
        depth = self.split_depth
        if depth == 0:
            return
        for version, tree in self.aggregator.trees.items():
            for leaf in list(tree.leaves()):
                if leaf.prefix.masklen == depth and isinstance(
                    leaf._state, UnclassifiedState
                ):
                    self._delegate(version, leaf, ops)

    def _delegate(
        self, version: int, leaf: RangeNode, ops: list[tuple]
    ) -> None:
        tree = self.aggregator.trees[version]
        was_dirty = leaf in tree.dirty
        state = tree.delegate(leaf)
        index = (
            leaf.prefix.value >> self._shifts[version]
            if self.split_depth
            else 0
        )
        self._delegated[version].add(index)
        self._portals[version][index] = leaf
        # Handoff is state *transfer*, not state sharing: the leaf's
        # observation state crosses the boundary as an encoded subtree
        # blob (exactly what checkpoint resume sends), so aggregator and
        # shard never alias one state object even in-process.
        payload = encode_subtree(
            leaf.prefix, version, unclassified_image(state, was_dirty)
        )
        ops.append(("seed", index, version, payload))

    def _undelegate(self, version: int, index: int, ops: list[tuple]) -> None:
        self._delegated[version].discard(index)
        self._portals[version].pop(index, None)
        ops.append(("reset", index, version))

    def _merge_reports(
        self,
        now: float,
        aggregator_report: SweepReport,
        results: dict[int, ShardTickResult],
        boundary_joins: int,
        boundary_prunes: int,
    ) -> SweepReport:
        report = SweepReport(timestamp=now)
        for part in [aggregator_report] + [r.report for r in results.values()]:
            report.classifications += part.classifications
            report.splits += part.splits
            report.joins += part.joins
            report.drops += part.drops
            report.prunes += part.prunes
            report.expired_sources += part.expired_sources
            report.decayed_ranges += part.decayed_ranges
            report.visited += part.visited
            report.cache_size += part.cache_size
            report.cache_hits += part.cache_hits
            report.cache_misses += part.cache_misses
            report.cache_evictions += part.cache_evictions
            report.admission_admitted += part.admission_admitted
            report.admission_dropped += part.admission_dropped
            report.admission_promoted += part.admission_promoted
            report.admission_saturated = (
                report.admission_saturated or part.admission_saturated
            )
        report.joins += boundary_joins
        report.prunes += boundary_prunes
        # Leaf/classified totals reflect the post-reconcile state (the
        # single engine likewise counts after its join/prune passes).
        metrics = self._executor.metrics()
        for version, tree in self.aggregator.trees.items():
            report.leaves_by_version[version] = tree.leaf_count() + (
                metrics.leaves_by_version.get(version, 0)
            )
        report.leaves = sum(report.leaves_by_version.values())
        report.classified = sum(
            tree.classified_count() for tree in self.aggregator.trees.values()
        ) + sum(metrics.classified_by_version.values())
        return report

    # ------------------------------------------------------------------ admission

    def saturate_admission(self) -> None:
        """Force every engine's sketch to the saturation ceiling.

        The ``sketch_saturate`` chaos site: from the next filtered group
        on, aggregator and shards alike degrade to admit-everything.
        No-op when admission is off.
        """
        if self.admission_config is None:
            return
        self.aggregator.saturate_admission()
        self._executor.apply(
            [("saturate", index, 0) for index in range(self.shards)]
        )

    def _admission_image(self) -> Optional[AdmissionImage]:
        """The deployment-wide merged admission image (``None`` when off)."""
        if self.aggregator.admission is None:
            return None
        images: list[Optional[AdmissionImage]] = [
            self.aggregator.admission.to_image()
        ]
        images.extend(self._executor.admission_export().values())
        return merge_admission_images(images)

    def _restore_admission(self, image: AdmissionImage) -> None:
        """Distribute a checkpointed admission image across the engines.

        Sketch counts, the elephant herd, the age boundary and the
        saturation flag are broadcast whole — a shard seeing the full
        deployment's counts can only over-admit, which is always safe.
        """
        self.aggregator.admission = AdmissionController.from_image(image)
        payload = encode_admission(image)
        self._executor.apply(
            [("admission", index, 0, payload) for index in range(self.shards)]
        )

    # ------------------------------------------------------------------ state io

    def to_image(self) -> EngineImage:
        """The merged single-engine-equivalent image of the whole deployment.

        Shard engines export their active subtrees as encoded blobs;
        each is grafted into the aggregator trie at its portal (the
        delegated placeholder leaf), and shard split/join counts fold
        into the per-family totals.  The result contains no delegated
        nodes: it is exactly the image a plain :class:`IPD` holding the
        same state would produce, which is what makes a checkpoint
        restorable at *any* legal shard count.
        """
        self._flush_pending()
        exports = self._executor.export()
        trees = {}
        for version, tree in self.aggregator.trees.items():
            grafts: dict[Prefix, NodeImage] = {}
            shard_splits = 0
            shard_joins = 0
            for index in sorted(exports):
                payload = exports[index].get(version)
                if payload is None:
                    continue
                subtree = decode_subtree(payload)
                grafts[subtree.prefix] = subtree.root
                shard_splits += subtree.split_count
                shard_joins += subtree.join_count
            image = tree_to_image(tree, grafts)
            image.split_count += shard_splits
            image.join_count += shard_joins
            trees[version] = image
        return EngineImage(
            params=self.params,
            flows_ingested=self.flows_ingested,
            bytes_ingested=self.bytes_ingested,
            last_sweep_at=self.last_sweep_at,
            cidrmax_failures=dict(self.aggregator._cidrmax_failures),
            trees=trees,
        )

    def to_bytes(self) -> bytes:
        """Serialize the merged deployment state to one engine blob.

        With admission on, the merged admission section (cellwise-summed
        sketches, elephant union) is appended after the engine section,
        exactly as :meth:`IPD.to_bytes` appends its own controller's —
        so the blob restores on any topology.
        """
        blob = encode_engine(self.to_image())
        merged = self._admission_image()
        if merged is not None:
            blob += encode_admission(merged)
        return blob

    @classmethod
    def from_image(
        cls,
        image: EngineImage,
        shards: int = 4,
        executor: str = "serial",
        workers: Optional[int] = None,
        transport: str = "pickle",
        admission: Optional[AdmissionConfig] = None,
    ) -> "ShardedIPD":
        """Rebuild a sharded deployment from a merged engine image.

        The image need not come from the same shard count — it is the
        merged single-engine view, so it is re-carved at this
        deployment's split depth: every node at exactly depth ``k``
        becomes a shard seed (subtree blob), everything coarser stays in
        the aggregator, and the carved positions become delegated
        portals.  Resuming a 4-shard checkpoint on 16 shards (or on a
        plain engine via :meth:`IPD.from_image`) is therefore legal and
        produces identical future behavior.
        """
        engine = cls(
            params=image.params,
            shards=shards,
            executor=executor,
            workers=workers,
            transport=transport,
            admission=admission,
        )
        depth = engine.split_depth
        ops: list[tuple] = []
        for version, tree_image in image.trees.items():
            tree = engine.aggregator.trees[version]
            if depth == 0:
                # The constructor already delegated the /0 root and
                # seeded the single shard with an empty tree; replace
                # that seed with the checkpointed one wholesale.
                ops.append(("reset", 0, version))
                ops.append(
                    (
                        "seed",
                        0,
                        version,
                        encode_subtree(
                            tree.root.prefix,
                            version,
                            tree_image.root,
                            tree_image.split_count,
                            tree_image.join_count,
                        ),
                    )
                )
                continue
            seeds: list[tuple[Prefix, NodeImage]] = []
            aggregator_root = _carve(
                tree_image.root, tree.root.prefix, depth, seeds
            )
            plant_image(tree, tree.root, aggregator_root)
            # the aggregator's merged counters carry the whole family's
            # totals; seeds ship zero so the sum is preserved
            tree.split_count = tree_image.split_count
            tree.join_count = tree_image.join_count
            for prefix, node_image in seeds:
                index = prefix.value >> engine._shifts[version]
                leaf = tree.lookup_leaf(prefix.value)
                assert leaf.prefix == prefix
                engine._delegated[version].add(index)
                engine._portals[version][index] = leaf
                ops.append(
                    ("seed", index, version,
                     encode_subtree(prefix, version, node_image))
                )
        if ops:
            engine._executor.apply(ops)
        engine.flows_ingested = image.flows_ingested
        engine.bytes_ingested = image.bytes_ingested
        engine.last_sweep_at = image.last_sweep_at
        engine.aggregator._cidrmax_failures = dict(image.cidrmax_failures)
        return engine

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        params: IPDParams | None = None,
        shards: int = 4,
        executor: str = "serial",
        workers: Optional[int] = None,
        transport: str = "pickle",
        admission: Optional[AdmissionConfig] = None,
    ) -> "ShardedIPD":
        """Rebuild a sharded deployment from a :meth:`to_bytes` blob.

        A trailing admission section restores the front-end exactly
        (its embedded config wins over the *admission* argument); a
        bare engine blob plus an *admission* config starts a fresh
        front-end, which is how ``--admission`` is enabled across a
        resume from an admission-off checkpoint.  A version-1 section of
        the retired ``exact`` mode restores admission off, with its held
        groups folded into the trie (:meth:`IPD.from_bytes`).
        """
        image, consumed = decode_engine_span(data, params=params)
        admission_image: Optional[AdmissionImage] = None
        if consumed < len(data):
            section = decode_admission(memoryview(data)[consumed:])
            if isinstance(section, RetiredExactSection):
                image = IPD.from_bytes(data, params=params).to_image()
                admission = None
            else:
                admission_image = section
                admission = section.config()
        engine = cls.from_image(
            image,
            shards=shards,
            executor=executor,
            workers=workers,
            transport=transport,
            admission=admission,
        )
        if admission_image is not None:
            engine._restore_admission(admission_image)
        return engine

    # ------------------------------------------------------------------ output

    def snapshot(
        self, now: float, include_unclassified: bool = False
    ) -> list[IPDRecord]:
        """The merged Table-3 view — byte-identical to a single engine's."""
        self._flush_pending()
        records = self.aggregator.snapshot(
            now, include_unclassified=include_unclassified
        )
        records.extend(self._executor.snapshot(now, include_unclassified))
        records.sort(key=lambda record: (record.version, record.range.value))
        return records

    # ------------------------------------------------------------------ metrics

    def state_size(self) -> int:
        self._flush_pending()
        return self.aggregator.state_size() + self._executor.metrics().state_size

    def leaf_count(self) -> int:
        self._flush_pending()
        return (
            self.aggregator.leaf_count() + self._executor.metrics().leaf_count()
        )

    def close(self) -> None:
        """Shut down executor workers (idempotent)."""
        if not self._closed:
            self._closed = True
            self._executor.close()

    def __enter__(self) -> "ShardedIPD":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def _carve(
    image: NodeImage,
    prefix: Prefix,
    depth: int,
    seeds: list[tuple[Prefix, NodeImage]],
) -> NodeImage:
    """Split a merged tree image at the shard depth.

    Every node sitting at exactly ``/depth`` — an entire subtree, a
    classified leaf, or an (even empty) unclassified leaf — is recorded
    as a shard seed and replaced by a delegated placeholder; everything
    coarser stays with the aggregator.  This reproduces exactly the
    ownership split a live sharded run maintains: post-sweep the
    aggregator never retains a visible leaf at depth ``>= k`` (the
    handoff delegates them the moment the split cascade arrives), and
    cross-boundary joins/prunes only ever create leaves coarser than
    ``/k``.
    """
    if prefix.masklen == depth:
        seeds.append((prefix, image))
        return NodeImage(kind="delegated")
    if image.kind != "internal":
        return image
    left_prefix, right_prefix = prefix.children()
    return NodeImage(
        kind="internal",
        left=_carve(image.left, left_prefix, depth, seeds),
        right=_carve(image.right, right_prefix, depth, seeds),
    )
