"""The IPD algorithm (Algorithm 1 of the paper).

Two stages, mirrored here as two methods:

* :meth:`IPD.ingest` / :meth:`IPD.ingest_batch` — Stage 1.  Masks a
  flow's source address to ``cidr_max`` and adds (timestamp, masked
  source, ingress link) to the covering range of the per-family binary
  trie.  The batch entry point amortizes the per-flow costs: one pass
  masks the whole batch, flows are grouped by masked source, and each
  distinct source resolves its leaf once.
* :meth:`IPD.sweep` — Stage 2.  Every ``t`` seconds: expires stale
  observations, classifies ranges with a prevalent ingress
  (``s_ingress >= q`` once ``s_ipcount >= n_cidr``), splits ranges with
  competing ingresses (until ``cidr_max``), joins sibling ranges that
  agree, decays idle classified ranges, and drops invalidated ones.

Sweeps are *dirty-range* sweeps: instead of walking every leaf, the
sweep visits (a) leaves touched by ingest since the last sweep, (b)
leaves whose expiry bound fell due (from the trie's expiry heap), and
(c) all classified leaves (their decay depends on ``now``).  Idle
unclassified leaves are skipped — safe because the Stage-2 decision for
a leaf is a pure function of its state, so an unchanged leaf repeats
last sweep's no-op.  The one exception is the §5.8 load-balance
extension, whose per-sweep failure counting observes *every* sweep a
leaf stays unclassified at ``cidr_max``; with a detector attached the
sweep falls back to the full walk.

The deployment runs the stages in two threads; behaviourally the
algorithm is defined by "all ingest before each sweep tick", which the
event-driven :mod:`repro.core.driver` reproduces deterministically.  A
thread-backed runner with the deployment layout lives in the same
driver module.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from ..devtools.markers import hot_path
from ..netflow.records import FlowBatch, FlowRecord
from ..topology.elements import IngressPoint
from .admission import (
    AdmissionConfig,
    AdmissionController,
    RetiredExactSection,
    decode_admission,
    encode_admission,
)
from .bundles import dominant_ingress
from .iputil import IPV4, IPV6, Prefix, mask_ip
from .lbdetect import LBDetectorLike
from .output import IPDRecord
from .params import DEFAULT_PARAMS, IPDParams
from .rangetree import RangeNode, RangeTree
from .state import ClassifiedState, DelegatedState, UnclassifiedState
from .statecodec import (
    EngineImage,
    StateCodecError,
    decode_engine_span,
    encode_engine,
    engine_to_image,
    restore_tree,
)

__all__ = ["IPD", "SweepReport"]

#: flows accumulated per internal batch by :meth:`IPD.ingest_many`;
#: large enough that grouping amortizes leaf resolution even when the
#: stream cycles through tens of thousands of distinct sources
_INGEST_CHUNK = 65536


@dataclass
class SweepReport:
    """Bookkeeping emitted by one Stage-2 sweep."""

    timestamp: float
    duration_seconds: float = 0.0
    leaves: int = 0
    classified: int = 0
    classifications: int = 0
    splits: int = 0
    joins: int = 0
    drops: int = 0
    prunes: int = 0
    expired_sources: int = 0
    decayed_ranges: int = 0
    #: leaves actually visited by this sweep (dirty + expiry-due +
    #: classified); the gap to ``leaves`` is the idle set skipped
    visited: int = 0
    #: lookup-cache totals across families (cumulative since start)
    cache_size: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: admission front-end decisions since the previous sweep (all zero
    #: when no admission controller is attached): admitted + dropped
    #: flows equal the flows ingested, promoted counts sources
    admission_admitted: int = 0
    #: always 0: the gate holds nothing back since the retired ``exact``
    #: mode; kept so readers of the report field keep working
    admission_held: int = 0
    admission_dropped: int = 0
    admission_promoted: int = 0
    admission_saturated: bool = False
    #: per-family leaf counts after the sweep
    leaves_by_version: dict[int, int] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        probes = self.cache_hits + self.cache_misses
        return self.cache_hits / probes if probes else 0.0


class IPD:
    """Online ingress point detection over a flow stream.

    An optional :class:`~repro.core.lbdetect.LoadBalanceDetector` can be
    attached (the §5.8 future-work extension): ranges that keep failing
    classification at ``cidr_max`` are handed to it for (src, dst) pair
    tracking, and matching flows are mirrored into it during ingest.
    """

    def __init__(
        self,
        params: IPDParams | None = None,
        lb_detector: LBDetectorLike | None = None,
        lb_patience: int = 3,
        roots: "dict[int, Prefix] | None" = None,
        admission: "AdmissionController | AdmissionConfig | None" = None,
    ) -> None:
        self.params = params or DEFAULT_PARAMS
        #: optional sketch-gated admission front-end; ``None`` means the
        #: classic direct-to-trie ingest path (admission off)
        self.admission: AdmissionController | None = _coerce_admission(admission)
        #: per-family root prefixes; defaults to /0 (the whole space).
        #: The sharded runtime roots one engine per depth-k subtree.
        self.trees: dict[int, RangeTree] = {
            version: RangeTree(
                version,
                root_prefix=roots.get(version) if roots is not None else None,
            )
            for version in (IPV4, IPV6)
        }
        self.flows_ingested = 0
        self.bytes_ingested = 0
        self.last_sweep_at: float | None = None
        self.lb_detector: LBDetectorLike | None = lb_detector
        self.lb_patience = lb_patience
        self._cidrmax_failures: dict[Prefix, int] = {}

    # ------------------------------------------------------------------ state io

    def to_image(self) -> EngineImage:
        """Snapshot the full engine state as a codec-neutral image."""
        return engine_to_image(self)

    def to_bytes(self) -> bytes:
        """Serialize the full engine state to one versioned blob.

        The blob captures everything a future :meth:`from_bytes` needs
        to continue *exactly* where this engine stands: trie topology,
        per-range payloads, params, counters, and the dirty/expiry
        bookkeeping — the restored engine's next sweep visits the same
        leaves and produces the same report this engine's would have.

        With an admission front-end attached, its state (sketch cells,
        elephant set, aging cursor) is appended as a self-delimiting
        trailing section; admission-off blobs are byte-identical to
        what this method always produced.
        """
        blob = encode_engine(self.to_image())
        if self.admission is not None:
            blob += encode_admission(self.admission.to_image())
        return blob

    @classmethod
    def from_image(
        cls,
        image: EngineImage,
        lb_detector: LBDetectorLike | None = None,
        lb_patience: int = 3,
        admission: "AdmissionController | AdmissionConfig | None" = None,
    ) -> "IPD":
        """Rebuild an engine from an image produced by :meth:`to_image`."""
        roots = {
            version: tree.root_prefix for version, tree in image.trees.items()
        }
        engine = cls(
            params=image.params,
            lb_detector=lb_detector,
            lb_patience=lb_patience,
            roots=roots,
            admission=admission,
        )
        for version, tree_image in image.trees.items():
            tree = engine.trees.get(version)
            if tree is None:
                raise StateCodecError(
                    f"image contains unsupported address family {version}"
                )
            restore_tree(tree, tree_image)
        engine.flows_ingested = image.flows_ingested
        engine.bytes_ingested = image.bytes_ingested
        engine.last_sweep_at = image.last_sweep_at
        engine._cidrmax_failures = dict(image.cidrmax_failures)
        return engine

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        params: IPDParams | None = None,
        lb_detector: LBDetectorLike | None = None,
        lb_patience: int = 3,
        admission: "AdmissionController | AdmissionConfig | None" = None,
    ) -> "IPD":
        """Rebuild an engine from a :meth:`to_bytes` blob.

        *params* must be supplied when the blob was written with a
        custom decay function (callables do not serialize).  When the
        blob carries a trailing admission section, the controller is
        restored from it and *admission* is ignored; otherwise
        *admission* (a config or fresh controller) attaches one.  A
        version-1 section of the retired ``exact`` mode restores as an
        admission-off engine with its held groups folded into the trie,
        as exact mode's next sweep would have done.
        """
        image, consumed = decode_engine_span(data, params=params)
        held: dict[int, dict[int, list]] = {}
        if consumed < len(data):
            section = decode_admission(memoryview(data)[consumed:])
            if isinstance(section, RetiredExactSection):
                admission, held = None, section.held
            else:
                admission = AdmissionController.from_image(section)
        engine = cls.from_image(
            image,
            lb_detector=lb_detector,
            lb_patience=lb_patience,
            admission=admission,
        )
        for version, groups in held.items():
            engine._apply_groups_direct(engine.trees[version], groups)
        return engine

    # ------------------------------------------------------------------ stage 1

    @hot_path
    def ingest(self, flow: FlowRecord) -> None:
        """Add one flow observation (Algorithm 1, lines 1-4)."""
        params = self.params
        tree = self.trees[flow.version]
        masked = mask_ip(flow.src_ip, params.cidr_max(flow.version), flow.version)
        weight = float(flow.bytes) if params.count_bytes else 1.0
        if self.admission is not None:
            # route through the staged admit path as a one-group batch
            self._apply_groups(
                tree, {masked: [{flow.ingress: weight}, flow.timestamp, flow.timestamp]}
            )
            self.flows_ingested += 1
            self.bytes_ingested += flow.bytes
            if self.lb_detector is not None:
                self.lb_detector.observe(flow)
            return
        leaf = tree.lookup_leaf(masked)
        state = leaf._state
        if isinstance(state, UnclassifiedState):
            state.add(masked, flow.ingress, flow.timestamp, weight)
            tree.dirty.add(leaf)
            if state.heap_bound != state.oldest_seen:
                tree.schedule_expiry(leaf)
        else:
            assert isinstance(state, ClassifiedState)
            state.add(flow.ingress, flow.timestamp, weight)
        self.flows_ingested += 1
        self.bytes_ingested += flow.bytes
        if self.lb_detector is not None:
            self.lb_detector.observe(flow)

    @hot_path
    def ingest_batch(self, batch: FlowBatch) -> int:
        """Add a columnar batch of flows; returns how many were consumed.

        Equivalent to ingesting the batch's flows one by one (weights are
        integer-valued, so the regrouped float sums are exact), but the
        per-flow costs are amortized: a single pass masks every source
        and accumulates per-(masked source, ingress) weights, then each
        *distinct* masked source resolves its leaf once and folds its
        whole group in one state update.
        """
        count = len(batch.timestamps)
        if count == 0:
            return 0
        params = self.params
        tree = self.trees[batch.version]
        shift = tree.root.prefix.bits - params.cidr_max(batch.version)
        count_bytes = params.count_bytes

        # pass 0 (admission only): the vectorized pre-gate drops
        # never-promoted mice on the raw columns, before any per-flow
        # Python work; accounting below still covers the full batch
        original = batch
        admission = self.admission
        if admission is not None:
            kept_rows = admission.prefilter_rows(
                batch.version,
                shift,
                batch.src_ips,
                batch.byte_counts if count_bytes else None,
            )
            if kept_rows is not None:
                batch = batch.select(kept_rows)

        # pass 1: mask + group.  groups: masked -> [by_ingress, newest, oldest]
        groups: dict[int, list] = {}
        get_group = groups.get
        for src, ingress, ts, nbytes in zip(
            batch.src_ips, batch.ingresses, batch.timestamps, batch.byte_counts
        ):
            masked = (src >> shift) << shift
            weight = float(nbytes) if count_bytes else 1.0
            group = get_group(masked)
            if group is None:
                groups[masked] = [{ingress: weight}, ts, ts]
            else:
                by_ingress = group[0]
                previous = by_ingress.get(ingress)
                by_ingress[ingress] = (
                    weight if previous is None else previous + weight
                )
                if ts > group[1]:
                    group[1] = ts
                elif ts < group[2]:
                    group[2] = ts

        # pass 2: one leaf resolution + one state fold per distinct source
        if groups:
            self._apply_groups(
                tree,
                groups,
                len(batch.timestamps),
                ((src >> shift) << shift for src in batch.src_ips),
            )

        self.flows_ingested += count
        self.bytes_ingested += sum(original.byte_counts)
        if self.lb_detector is not None:
            observe = self.lb_detector.observe
            for flow in original.iter_flows():
                observe(flow)
        return count

    def _apply_groups(
        self,
        tree: RangeTree,
        groups: dict[int, list],
        flows: "int | None" = None,
        rows: Iterable[int] = (),
    ) -> None:
        """Fold accumulated per-source groups into their covering leaves.

        This is the admission seam: with a controller attached the
        groups first pass its admit → promote → count gate and only the
        admitted subset reaches the trie; without one this is a direct
        alias for the classic fold.  *flows* and *rows* (the masked
        source of each flow behind the groups; default one flow per
        group) feed the gate's per-flow counters.
        """
        admission = self.admission
        if admission is None:
            self._apply_groups_direct(tree, groups)
            return
        admitted = admission.filter_groups(tree.version, groups, flows, rows)
        if admitted:
            self._apply_admitted(tree, admitted, admission)

    @hot_path
    def _apply_groups_direct(self, tree: RangeTree, groups: dict[int, list]) -> None:
        """The classic per-source fold, bypassing admission entirely."""
        lookup = tree.lookup_leaf
        dirty_add = tree.dirty.add
        for masked, (by_ingress, newest, oldest) in groups.items():
            leaf = lookup(masked)
            state = leaf._state
            if isinstance(state, UnclassifiedState):
                state.add_batch(masked, by_ingress, newest, oldest)
                dirty_add(leaf)
                if state.heap_bound != state.oldest_seen:
                    tree.schedule_expiry(leaf)
            else:
                assert isinstance(state, ClassifiedState)
                state.add_batch(by_ingress, newest)

    @hot_path
    def _apply_admitted(
        self,
        tree: RangeTree,
        groups: dict[int, list],
        admission: AdmissionController,
    ) -> None:
        """Fold admitted groups, with the known-elephant leaf fast path.

        Elephants keep a cached handle to their covering leaf, so the
        steady-state hot loop skips the trie lookup (and its LRU cache)
        entirely.  A handle is revalidated the same way the lookup cache
        is: a split or join kills the node, falling back to one lookup.
        """
        version = tree.version
        handles = admission.handles(version)
        herd = admission.elephants(version)
        lookup = tree.lookup_leaf
        dirty_add = tree.dirty.add
        handles_get = handles.get
        herd_contains = herd.__contains__
        for masked, (by_ingress, newest, oldest) in groups.items():
            leaf = handles_get(masked)
            if leaf is None or leaf.dead or leaf.left is not None:
                leaf = lookup(masked)
                if herd_contains(masked):
                    handles[masked] = leaf
            state = leaf._state
            if isinstance(state, UnclassifiedState):
                state.add_batch(masked, by_ingress, newest, oldest)
                dirty_add(leaf)
                if state.heap_bound != state.oldest_seen:
                    tree.schedule_expiry(leaf)
            else:
                assert isinstance(state, ClassifiedState)
                state.add_batch(by_ingress, newest)

    @hot_path
    def ingest_many(self, flows: Iterable[FlowRecord]) -> int:
        """Ingest an iterable of flows; returns how many were consumed.

        Flows are chunked into columnar :class:`FlowBatch` runs per
        address family and fed through :meth:`ingest_batch`, so bulk
        callers get the amortized hot path without building batches
        themselves.
        """
        if isinstance(flows, FlowBatch):
            return self.ingest_batch(flows)
        params = self.params
        trees = self.trees
        count_bytes = params.count_bytes
        lb_detector = self.lb_detector
        shifts = {
            version: tree.root.prefix.bits - params.cidr_max(version)
            for version, tree in trees.items()
        }
        groups_by_version: dict[int, dict[int, list]] = {
            version: {} for version in trees
        }
        # with admission on, the masked source of every pending flow, so
        # the gate can count dropped groups in flows
        rows_by_version: "dict[int, list[int]] | None" = (
            None if self.admission is None else {version: [] for version in trees}
        )
        count = 0
        pending = 0
        total_bytes = 0
        for flow in flows:
            version = flow.version
            shift = shifts[version]
            masked = (flow.src_ip >> shift) << shift
            timestamp = flow.timestamp
            weight = float(flow.bytes) if count_bytes else 1.0
            groups = groups_by_version[version]
            group = groups.get(masked)
            if group is None:
                groups[masked] = [{flow.ingress: weight}, timestamp, timestamp]
            else:
                by_ingress = group[0]
                ingress = flow.ingress
                previous = by_ingress.get(ingress)
                by_ingress[ingress] = (
                    weight if previous is None else previous + weight
                )
                if timestamp > group[1]:
                    group[1] = timestamp
                elif timestamp < group[2]:
                    group[2] = timestamp
            if rows_by_version is not None:
                rows_by_version[version].append(masked)
            total_bytes += flow.bytes
            count += 1
            pending += 1
            if lb_detector is not None:
                lb_detector.observe(flow)
            if pending >= _INGEST_CHUNK:
                self._apply_chunk(groups_by_version, rows_by_version)
                # amortized: rebuilt once per _INGEST_CHUNK flows, and the
                # consumed group dicts must not be reused across chunks
                groups_by_version = {version: {} for version in trees}  # ipd-lint: disable=IPD005
                pending = 0
        self._apply_chunk(groups_by_version, rows_by_version)
        self.flows_ingested += count
        self.bytes_ingested += total_bytes
        return count

    def _apply_chunk(
        self,
        groups_by_version: dict[int, dict[int, list]],
        rows_by_version: "dict[int, list[int]] | None",
    ) -> None:
        """Fold one :meth:`ingest_many` chunk, family by family.

        The row lists are emptied for the next chunk; the group dicts
        are not reusable (the trie keeps their per-ingress dicts).
        """
        for version, groups in groups_by_version.items():
            if not groups:
                continue
            if rows_by_version is None:
                self._apply_groups(self.trees[version], groups)
            else:
                rows = rows_by_version[version]
                self._apply_groups(self.trees[version], groups, len(rows), rows)
                rows.clear()

    # ------------------------------------------------------------------ stage 2

    def saturate_admission(self) -> None:
        """Force the admission sketch to its ceiling (fault injection).

        A saturated controller degrades to admit-everything; without a
        controller this is a no-op, so fault plans can target any
        engine.
        """
        if self.admission is not None:
            self.admission.saturate()

    @hot_path
    def sweep(self, now: float) -> SweepReport:
        """Run one Stage-2 pass over the active ranges (Algorithm 1, lines 5-19)."""
        started = time.perf_counter()
        admission = self.admission
        report = SweepReport(timestamp=now)
        if admission is not None:
            admission.age_to(now)
            (
                report.admission_admitted,
                report.admission_dropped,
                report.admission_promoted,
            ) = admission.take_counters()
            report.admission_saturated = admission.saturated
        for tree in self.trees.values():
            self._sweep_tree(tree, now, report)
            report.leaves_by_version[tree.version] = tree.leaf_count()
            report.cache_size += tree.cache_size()
            report.cache_hits += tree.cache_hits
            report.cache_misses += tree.cache_misses
            report.cache_evictions += tree.cache_evictions
        report.leaves = sum(report.leaves_by_version.values())
        report.classified = sum(
            tree.classified_count() for tree in self.trees.values()
        )
        report.duration_seconds = time.perf_counter() - started
        self.last_sweep_at = now
        return report

    @hot_path
    def _sweep_tree(self, tree: RangeTree, now: float, report: SweepReport) -> None:
        params = self.params
        version = tree.version
        cidr_max = params.cidr_max(version)
        expiry_cutoff = now - params.e

        if self.lb_detector is not None:
            # The detector's failure counter ticks every sweep a leaf
            # sits unclassified at cidr_max — only a full walk sees that.
            tree.drain_dirty()
            tree.pop_expiry_due(expiry_cutoff)
            to_visit = list(tree.leaves())
        else:
            candidates = tree.drain_dirty()
            candidates.update(tree.pop_expiry_due(expiry_cutoff))
            candidates.update(tree._classified)
            to_visit = sorted(candidates, key=lambda node: node.prefix.value)

        prune_candidates: list[RangeNode] = []
        for leaf in to_visit:
            if leaf.dead or leaf.left is not None:
                continue  # went away since it was marked (join/split)
            state = leaf._state
            if isinstance(state, DelegatedState):
                continue  # owned by another engine; inert here
            report.visited += 1
            if isinstance(state, UnclassifiedState):
                if state.oldest_seen < expiry_cutoff:
                    report.expired_sources += state.expire(expiry_cutoff)
                if state.per_ip:
                    self._handle_unclassified(
                        tree, leaf, state, now, cidr_max, report
                    )
                    # still the same unclassified leaf? re-arm its expiry
                    if (
                        leaf._state is state
                        and leaf.left is None
                        and state.heap_bound != state.oldest_seen
                    ):
                        tree.schedule_expiry(leaf)
                else:
                    prune_candidates.append(leaf)
            else:
                assert isinstance(state, ClassifiedState)
                self._handle_classified(leaf, state, now, report)
                if isinstance(leaf._state, UnclassifiedState):
                    prune_candidates.append(leaf)  # just dropped to empty

        report.joins += self._join_pass(tree, now)
        report.prunes += tree.prune_upward(
            prune_candidates, _is_empty_unclassified, on_remove=self._forget_prefix
        )

    def _forget_prefix(self, node: RangeNode) -> None:
        """Drop per-prefix side state when a leaf leaves the trie."""
        self._cidrmax_failures.pop(node.prefix, None)

    def _handle_unclassified(
        self,
        tree: RangeTree,
        leaf: RangeNode,
        state: UnclassifiedState,
        now: float,
        cidr_max: int,
        report: SweepReport,
    ) -> None:
        params = self.params
        masklen = leaf.prefix.masklen
        if state.sample_count < params.n_cidr(masklen, tree.version):
            return  # line 8: not enough samples yet
        found = dominant_ingress(
            state.ingress_totals(),
            enable_bundles=params.enable_bundles,
            min_share=params.bundle_min_share,
        )
        if found is None:
            return
        ingress, share, __ = found
        if share >= params.q:
            # line 10: assign the prevalent ingress; per-IP detail is
            # discarded ("all state is removed for efficiency reasons").
            leaf.state = ClassifiedState(
                ingress=ingress,
                counters=state.ingress_totals(),
                last_seen=state.newest_timestamp,
                classified_at=now,
            )
            report.classifications += 1
            self._cidrmax_failures.pop(leaf.prefix, None)
        elif masklen < cidr_max:
            tree.split(leaf)  # line 13
            report.splits += 1
        else:
            # cidr_max reached without dominance (line 15); the join
            # pass below may still coarsen once siblings agree.  With a
            # load-balance detector attached, persistent failure here
            # is the trigger for (src, dst) pair tracking (§5.8).
            if self.lb_detector is not None:
                failures = self._cidrmax_failures.get(leaf.prefix, 0) + 1
                self._cidrmax_failures[leaf.prefix] = failures
                if failures >= self.lb_patience:
                    self.lb_detector.watch(leaf.prefix)

    def _handle_classified(
        self,
        leaf: RangeNode,
        state: ClassifiedState,
        now: float,
        report: SweepReport,
    ) -> None:
        params = self.params
        age = now - state.last_seen
        if age > params.t:
            # No fresh traffic in the last bucket: decay toward removal.
            # Table 1's ``decay`` is the fraction REMOVED per sweep, so
            # the keep-factor is ``1 - decay = 0.9/(age/t + 1)``, which
            # shrinks as the range ages — repeated application collapses
            # even billion-sample counters within ~10 idle sweeps.
            # "This ensures that ranges are quickly removed from
            # classification when no new traffic is received" (§3.2).
            keep = max(0.0, 1.0 - params.decay(age, params.t))
            state.decay(keep)
            report.decayed_ranges += 1
            if state.total < params.drop_threshold:
                leaf.state = UnclassifiedState()  # line 19: drop
                report.drops += 1
                self._cidrmax_failures.pop(leaf.prefix, None)
                return
        share = state.confidence_for(_members_of(state.ingress))
        if share < params.q:
            leaf.state = UnclassifiedState()  # line 19: drop
            report.drops += 1
            self._cidrmax_failures.pop(leaf.prefix, None)

    def _join_pass(self, tree: RangeTree, now: float) -> int:
        """Merge sibling leaves classified to the same logical ingress.

        "Adjacent ranges may also be joined if they share the same
        ingress and meet sample count requirements" (§3.2).  The merged
        parent must itself satisfy its (larger) ``n_cidr`` threshold.

        Every joinable pair has classified children, so starting from
        the classified leaves and cascading upward visits exactly the
        pairs the seed's full postorder walk would — without touching
        the rest of the trie.
        """
        joins = 0
        for leaf in tree.classified_leaves():
            if leaf.dead:
                continue  # merged away by an earlier candidate's cascade
            joins += self._join_cascade(tree, leaf)
        return joins

    def _join_cascade(self, tree: RangeTree, leaf: RangeNode) -> int:
        """Cascade joins upward from one classified leaf.

        Shared by the per-tree join pass and by the sharded runtime's
        cross-boundary reconciliation (which joins two shard roots into
        an aggregator leaf and must then continue the cascade exactly as
        a single engine would).
        """
        params = self.params
        joins = 0
        parent = leaf.parent
        while parent is not None:
            left, right = parent.left, parent.right
            if left is None or right is None:
                break
            if not (left.is_leaf and right.is_leaf):
                break
            left_state, right_state = left._state, right._state
            if not (
                isinstance(left_state, ClassifiedState)
                and isinstance(right_state, ClassifiedState)
            ):
                break
            if left_state.ingress != right_state.ingress:
                break
            combined_total = left_state.total + right_state.total
            threshold = params.n_cidr(parent.prefix.masklen, tree.version)
            if combined_total < threshold:
                break
            self._cidrmax_failures.pop(left.prefix, None)
            self._cidrmax_failures.pop(right.prefix, None)
            tree.join(parent, left_state.merged_with(right_state))
            joins += 1
            parent = parent.parent
        return joins

    # ------------------------------------------------------------------ output

    def snapshot(
        self, now: float, include_unclassified: bool = False
    ) -> list[IPDRecord]:
        """Emit the current mapping in the Table-3 raw output format."""
        params = self.params
        records: list[IPDRecord] = []
        for tree in self.trees.values():
            for leaf in tree.leaves():
                state = leaf.state
                n_cidr = params.n_cidr(leaf.prefix.masklen, tree.version)
                if isinstance(state, ClassifiedState):
                    candidates = tuple(
                        sorted(
                            state.counters.items(),
                            key=lambda item: (-item[1], str(item[0])),
                        )
                    )
                    total = state.total
                    share = state.confidence_for(_members_of(state.ingress))
                    records.append(
                        IPDRecord(
                            timestamp=now,
                            range=leaf.prefix,
                            ingress=state.ingress,
                            s_ingress=share,
                            s_ipcount=total,
                            n_cidr=n_cidr,
                            candidates=candidates,
                            classified=True,
                        )
                    )
                elif include_unclassified and not state.is_empty():
                    totals = state.ingress_totals()
                    found = dominant_ingress(
                        totals,
                        enable_bundles=params.enable_bundles,
                        min_share=params.bundle_min_share,
                    )
                    if found is None:
                        continue
                    ingress, share, __ = found
                    records.append(
                        IPDRecord(
                            timestamp=now,
                            range=leaf.prefix,
                            ingress=ingress,
                            s_ingress=share,
                            s_ipcount=state.sample_count,
                            n_cidr=n_cidr,
                            candidates=tuple(
                                sorted(
                                    totals.items(),
                                    key=lambda item: (-item[1], str(item[0])),
                                )
                            ),
                            classified=False,
                        )
                    )
        records.sort(key=lambda record: (record.version, record.range.value))
        return records

    # ------------------------------------------------------------------ metrics

    def state_size(self) -> int:
        """Total number of tracked (masked IP, ingress) entries + counters.

        A proxy for the RAM footprint used by the parameter study's
        resource-consumption metric.  O(leaves): each state keeps its
        own entry count incrementally.
        """
        return sum(
            leaf._state.entry_count()
            for tree in self.trees.values()
            for leaf in tree.leaves()
        )

    def leaf_count(self) -> int:
        return sum(tree.leaf_count() for tree in self.trees.values())


def _coerce_admission(
    admission: "AdmissionController | AdmissionConfig | None",
) -> "AdmissionController | None":
    """Normalize the ``admission`` constructor argument to a controller."""
    if admission is None or isinstance(admission, AdmissionController):
        return admission
    return AdmissionController(admission)


def _members_of(ingress: IngressPoint) -> tuple[IngressPoint, ...]:
    """Expand a (possibly bundled) logical ingress into raw interfaces."""
    return tuple(
        IngressPoint(ingress.router, name) for name in ingress.interfaces()
    )


def _is_empty_unclassified(node: RangeNode) -> bool:
    return isinstance(node.state, UnclassifiedState) and node.state.is_empty()
