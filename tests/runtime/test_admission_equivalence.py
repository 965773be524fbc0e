"""An exact admission gate must be invisible in the output.

The byte-identity oracle for the sketch-gated admission front-end: a
lossy gate that promotes every source on first sight
(``promote_weight=1.0`` with flow weights) drops nothing, so it is
exact — yet every flow still runs the full admit → promote → count
pipeline: the vectorized prefilter, the elephant leaf-handle fast path,
the ``IPDA`` codec and the shard admission ops.  Its snapshots must be
*byte-identical* (serialized CSV) to running with no admission at all,
at every shard count, on every executor and transport, at every sweep
tick, and across checkpoint/resume including a resume that changes the
shard count.

The file also pins the gate's counters (admitted + dropped flows equal
the flows ingested in every sweep interval) and the version-1 blob
fixtures in ``fixtures/``: a section of the retired ``exact`` mode must
continue exactly like admission off, a version-1 ``lossy`` section
exactly as it did when it was written.
"""

import io
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.core.admission import AdmissionConfig
from repro.core.algorithm import IPD
from repro.core.iputil import IPV4, IPV6
from repro.core.output import write_records_csv
from repro.core.statecodec import decode_engine_span
from repro.netflow.records import FlowRecord, iter_flow_batches
from repro.runtime import Checkpoint, CheckpointStore, Pipeline, ShardedIPD
from repro.testkit.strategies import (
    DEFAULT_INGRESSES as INGRESSES,
    SMALL_SPACE_PARAMS as PARAMS,
    flow_events_list,
    traces,
)
from repro.testkit.traces import (
    DUALSTACK_PARAMS,
    FIG05_PARAMS,
    dualstack_trace,
    fig05_trace,
)
from tests.runtime.test_shard_equivalence import (
    assert_equivalent,
    reference_run,
    run_csv,
)

#: promotes every source on first sight: drops nothing, equals off
EXACT = AdmissionConfig(promote_weight=1.0)
LOSSY = AdmissionConfig()

FIXTURES = Path(__file__).parent / "fixtures"

RETAIN = 100


def admission_run(
    flows,
    params,
    admission,
    shards=1,
    executor="serial",
    workers=None,
    transport="pickle",
    **kwargs,
):
    with Pipeline(
        params,
        shards=shards,
        executor=executor,
        workers=workers,
        transport=transport,
        snapshot_seconds=120.0,
        include_unclassified=True,
        admission=admission,
        **kwargs,
    ) as pipeline:
        return pipeline.run(flows)


class TestExactEqualsOff:
    """The promote-all gate vs the plain reference, every topology."""

    @pytest.mark.parametrize("shards", [1, 4, 16])
    def test_fig05_serial(self, shards):
        flows = fig05_trace()
        assert_equivalent(
            reference_run(flows, FIG05_PARAMS),
            admission_run(flows, FIG05_PARAMS, EXACT, shards=shards),
        )

    @pytest.mark.parametrize("shards", [1, 4, 16])
    def test_dualstack_serial(self, shards):
        flows = dualstack_trace()
        assert_equivalent(
            reference_run(flows, DUALSTACK_PARAMS),
            admission_run(flows, DUALSTACK_PARAMS, EXACT, shards=shards),
        )

    @pytest.mark.parametrize("transport", ["pickle", "shm"])
    def test_fig05_mp_both_transports(self, transport):
        flows = fig05_trace()
        assert_equivalent(
            reference_run(flows, FIG05_PARAMS),
            admission_run(
                flows, FIG05_PARAMS, EXACT,
                shards=4, executor="mp", workers=2, transport=transport,
            ),
        )

    def test_batched_stream(self):
        """Columnar ingest (the prefilter seam) through the router."""
        flows = fig05_trace()
        reference = reference_run(flows, FIG05_PARAMS)
        batched = admission_run(
            iter_flow_batches(flows, batch_size=97),
            FIG05_PARAMS, EXACT, shards=4,
        )
        assert_equivalent(reference, batched)

    def test_admission_counters_surface_in_reports(self):
        flows = fig05_trace()
        result = admission_run(flows, FIG05_PARAMS, EXACT, shards=4)
        assert sum(s.admission_admitted for s in result.sweeps) == len(flows)
        assert sum(s.admission_dropped for s in result.sweeps) == 0
        assert sum(s.admission_promoted for s in result.sweeps) > 0
        assert not any(s.admission_saturated for s in result.sweeps)

    def test_lossy_runs_and_drops(self):
        """Liveness only: lossy output quality is gated in EXPERIMENTS.md."""
        flows = fig05_trace()
        result = admission_run(flows, FIG05_PARAMS, LOSSY)
        assert result.flows_processed == len(flows)
        assert sum(s.admission_held for s in result.sweeps) == 0


class TestExactEqualsOffProperty:
    """Hypothesis: promote-all ≡ off at *every* sweep tick, any trace."""

    @pytest.mark.parametrize("shards", [0, 4])
    @settings(max_examples=15, deadline=None)
    @given(raw_flows=flow_events_list(max_size=250))
    def test_lockstep_equivalence(self, shards, raw_flows):
        reference = IPD(PARAMS)
        if shards:
            gated = ShardedIPD(PARAMS, shards=shards, admission=EXACT)
        else:
            gated = IPD(PARAMS, admission=EXACT)
        now = 0.0
        try:
            for chunk_start in range(0, max(len(raw_flows), 1), 25):
                chunk = raw_flows[chunk_start:chunk_start + 25]
                for src, ingress_index, offset in chunk:
                    flow = FlowRecord(
                        timestamp=now + offset * 10.0,
                        src_ip=src,
                        version=IPV4,
                        ingress=INGRESSES[ingress_index],
                    )
                    reference.ingest(flow)
                    gated.ingest(flow)
                now += 60.0
                reference.sweep(now)
                gated.sweep(now)
                assert (
                    gated.snapshot(now, include_unclassified=True)
                    == reference.snapshot(now, include_unclassified=True)
                )
                assert gated.state_size() == reference.state_size()
                assert gated.leaf_count() == reference.leaf_count()
            for __ in range(4):
                now += 60.0
                reference.sweep(now)
                gated.sweep(now)
                assert (
                    gated.snapshot(now, include_unclassified=True)
                    == reference.snapshot(now, include_unclassified=True)
                )
        finally:
            if shards:
                gated.close()


class TestCheckpointResumeWithAdmission:
    """The admission section rides the engine blob through resume."""

    def checkpointing_run(self, flows, params, store, shards):
        with Pipeline(
            params,
            shards=shards,
            snapshot_seconds=120.0,
            include_unclassified=True,
            checkpoint_store=store,
            checkpoint_every=params.t,
            admission=EXACT,
        ) as pipeline:
            return pipeline.run(flows)

    @pytest.mark.parametrize("resume_shards", [1, 4, 16])
    def test_resume_and_reshard_stays_identical(self, tmp_path, resume_shards):
        flows = fig05_trace()
        reference = reference_run(flows, FIG05_PARAMS)
        store = CheckpointStore(tmp_path / "ckpt", retain=RETAIN)
        gated = self.checkpointing_run(flows, FIG05_PARAMS, store, shards=4)
        assert run_csv(gated) == run_csv(reference)

        checkpoints = [store.load(path) for path in store.list()]
        checkpoint = checkpoints[len(checkpoints) // 2]
        with Pipeline.resume(
            store,
            checkpoint=checkpoint,
            shards=resume_shards,
            snapshot_seconds=120.0,
            include_unclassified=True,
        ) as pipeline:
            resumed = pipeline.run(flows)

        # admission config survives through the blob's trailing section
        config = (
            pipeline.engine.admission_config
            if resume_shards > 1
            else pipeline.engine.admission.config
        )
        assert config == EXACT

        for when, records in resumed.snapshots.items():
            assert records == reference.snapshots[when], f"snapshot @ {when}"
        final = reference.snapshot_times()[-1]
        assert final in resumed.snapshots

    def test_admission_off_blob_unchanged(self, tmp_path):
        """No admission → no trailing section: blobs stay byte-identical
        to what the pre-admission substrate wrote."""
        flows = fig05_trace()
        engine = IPD(FIG05_PARAMS)
        gated = IPD(FIG05_PARAMS, admission=EXACT)
        for flow in flows:
            engine.ingest(flow)
            gated.ingest(flow)
        engine.sweep(FIG05_PARAMS.t)
        gated.sweep(FIG05_PARAMS.t)
        plain_blob = engine.to_bytes()
        gated_blob = gated.to_bytes()
        assert gated_blob != plain_blob  # section present
        assert gated_blob.startswith(plain_blob)  # strictly trailing
        restored = IPD.from_bytes(plain_blob)
        assert restored.admission is None


class TestCountersReconcile:
    """Hypothesis: admitted + dropped == flows ingested, every interval."""

    @pytest.mark.parametrize("count_bytes", [False, True])
    @pytest.mark.parametrize("ingest", ["flow", "batch", "many"])
    @pytest.mark.parametrize("shards", [0, 4])
    @settings(max_examples=8, deadline=None)
    @given(
        flows=traces(max_buckets=5, versions=(IPV4, IPV6), max_bytes=3)
    )
    def test_admitted_plus_dropped_is_flows(
        self, shards, ingest, count_bytes, flows
    ):
        params = replace(PARAMS, count_bytes=count_bytes)
        config = AdmissionConfig(promote_weight=2.0)
        if shards:
            engine = ShardedIPD(params, shards=shards, admission=config)
        else:
            engine = IPD(params, admission=config)
        try:
            buckets = int(flows[-1].timestamp // 60.0) + 1 if flows else 1
            for bucket in range(buckets):
                chunk = [
                    flow for flow in flows
                    if bucket * 60.0 <= flow.timestamp < (bucket + 1) * 60.0
                ]
                if ingest == "flow":
                    for flow in chunk:
                        engine.ingest(flow)
                elif ingest == "batch":
                    for batch in iter_flow_batches(chunk, batch_size=17):
                        engine.ingest_batch(batch)
                else:
                    engine.ingest_many(chunk)
                report = engine.sweep((bucket + 1) * 60.0)
                assert (
                    report.admission_admitted + report.admission_dropped
                    == len(chunk)
                )
                assert report.admission_held == 0
        finally:
            if shards:
                engine.close()


def _drive(engine, flows, next_sweep, snapshots):
    """Ingest per flow, sweeping at every ``t`` boundary, then sweep four
    more times; appends each post-sweep snapshot."""
    for flow in flows:
        while flow.timestamp >= next_sweep:
            engine.sweep(next_sweep)
            snapshots.append(engine.snapshot(next_sweep, include_unclassified=True))
            next_sweep += FIG05_PARAMS.t
        engine.ingest(flow)
    for __ in range(4):
        engine.sweep(next_sweep)
        snapshots.append(engine.snapshot(next_sweep, include_unclassified=True))
        next_sweep += FIG05_PARAMS.t


def _csv(snapshots):
    buffer = io.StringIO()
    for records in snapshots:
        write_records_csv(records, buffer)
    return buffer.getvalue().encode()


class TestVersionOneBlobs:
    """Engine blobs whose admission section is codec version 1.

    Written mid-interval on the fig05 trace (``fixtures/README.md``):
    the ``exact`` blob still holds 32 mice back, the ``lossy`` one comes
    with the continuation its writer produced.
    """

    manifest = json.loads((FIXTURES / "admission_v1.json").read_text())

    def continuation(self, engine):
        snapshots = []
        try:
            _drive(
                engine,
                fig05_trace()[self.manifest["cut"]:],
                self.manifest["next_sweep"],
                snapshots,
            )
        finally:
            if isinstance(engine, ShardedIPD):
                engine.close()
        return _csv(snapshots)

    def off_reference(self):
        """Admission off over the whole trace, from the first sweep after
        the cut on."""
        snapshots = []
        _drive(IPD(FIG05_PARAMS), fig05_trace(), FIG05_PARAMS.t, snapshots)
        before_cut = int(self.manifest["next_sweep"] // FIG05_PARAMS.t) - 1
        return _csv(snapshots[before_cut:])

    def blob(self, mode):
        return (FIXTURES / f"admission_v1_{mode}.bin").read_bytes()

    def test_exact_blob_restores_admission_off(self):
        engine = IPD.from_bytes(self.blob("exact"), admission=LOSSY)
        assert engine.admission is None

    @pytest.mark.parametrize("shards", [1, 4])
    def test_exact_continuation_equals_off(self, shards):
        blob = self.blob("exact")
        if shards == 1:
            engine = IPD.from_bytes(blob)
        else:
            engine = ShardedIPD.from_bytes(blob, shards=shards)
            assert engine.admission_config is None
        assert self.continuation(engine) == self.off_reference()

    @pytest.mark.parametrize("shards", [1, 4])
    def test_exact_checkpoint_restore_equals_off(self, tmp_path, shards):
        checkpoint = Checkpoint(
            when=self.manifest["next_sweep"] - FIG05_PARAMS.t,
            flows_processed=self.manifest["cut"],
            next_sweep=self.manifest["next_sweep"],
            next_snapshot=None,
            sweep_count=1,
            engine_blob=self.blob("exact"),
        )
        store = CheckpointStore(tmp_path / "ckpt")
        store.save(checkpoint)
        engine = store.restore_engine(store.latest(), shards=shards)
        assert self.continuation(engine) == self.off_reference()

    def test_lossy_continuation_matches_its_writer(self):
        engine = IPD.from_bytes(self.blob("lossy"))
        assert engine.admission is not None
        assert engine.admission.config == LOSSY
        expected = (FIXTURES / "admission_v1_lossy_continuation.csv").read_bytes()
        assert self.continuation(engine) == expected

    def test_lossy_blob_reshards_and_rewrites_as_version_two(self):
        blob = self.blob("lossy")
        with ShardedIPD.from_bytes(blob, shards=4) as engine:
            assert engine.admission_config == LOSSY
            rewritten = engine.to_bytes()
        single = IPD.from_bytes(blob).to_bytes()
        for current in (rewritten, single):
            __, consumed = decode_engine_span(current)
            section = current[consumed:]
            assert section[:4] == b"IPDA"
            assert section[5] == 2  # magic, kind, then the codec version
