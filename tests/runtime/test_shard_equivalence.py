"""Sharded pipelines must be byte-identical to the single engine.

The acceptance bar for the sharded runtime: for every shard count and
executor, the merged snapshots — down to their serialized CSV bytes —
equal what one engine produces, on the fig05-style algorithm example and
on a dual-stack scenario, including ranges that classify *coarser* than
the split depth (the aggregator + boundary-reconciliation path).
"""

import io

import pytest

from repro.core.driver import OfflineDriver
from repro.core.output import write_records_csv
from repro.core.params import IPDParams
from repro.netflow.records import iter_flow_batches
from repro.runtime import Pipeline, ShardedIPD

from repro.testkit.traces import (
    DUALSTACK_PARAMS,
    FIG05_PARAMS,
    dualstack_trace,
    fig05_trace,
)


def run_csv(result) -> bytes:
    """Serialize every snapshot of a run to its canonical CSV bytes."""
    buffer = io.StringIO()
    for when in result.snapshot_times():
        write_records_csv(result.snapshots[when], buffer)
    return buffer.getvalue().encode()


def reference_run(flows, params):
    return OfflineDriver(
        params, snapshot_seconds=120.0, include_unclassified=True
    ).run(flows)


def sharded_run(
    flows, params, shards, executor="serial", workers=None, transport="pickle"
):
    with Pipeline(
        params,
        shards=shards,
        executor=executor,
        workers=workers,
        transport=transport,
        snapshot_seconds=120.0,
        include_unclassified=True,
    ) as pipeline:
        return pipeline.run(flows)


def assert_equivalent(reference, sharded):
    assert run_csv(sharded) == run_csv(reference)
    assert sharded.flows_processed == reference.flows_processed
    assert len(sharded.sweeps) == len(reference.sweeps)
    for ours, theirs in zip(sharded.sweeps, reference.sweeps):
        assert ours.timestamp == theirs.timestamp
        assert ours.leaves == theirs.leaves
        assert ours.leaves_by_version == theirs.leaves_by_version
        assert ours.classified == theirs.classified
        assert ours.classifications == theirs.classifications
        assert ours.splits == theirs.splits
        assert ours.joins == theirs.joins
        assert ours.drops == theirs.drops
        assert ours.prunes == theirs.prunes
        assert ours.expired_sources == theirs.expired_sources
        assert ours.decayed_ranges == theirs.decayed_ranges


class TestSerialShardEquivalence:
    """Pipeline(shards=N, executor=serial) vs OfflineDriver, N in {1,4,16}."""

    @pytest.mark.parametrize("shards", [1, 4, 16])
    def test_fig05_trace(self, shards):
        flows = fig05_trace()
        assert_equivalent(
            reference_run(flows, FIG05_PARAMS),
            sharded_run(flows, FIG05_PARAMS, shards),
        )

    @pytest.mark.parametrize("shards", [1, 4, 16])
    def test_dualstack_trace(self, shards):
        flows = dualstack_trace()
        assert_equivalent(
            reference_run(flows, DUALSTACK_PARAMS),
            sharded_run(flows, DUALSTACK_PARAMS, shards),
        )

    @pytest.mark.parametrize("shards", [4, 16])
    def test_batched_stream(self, shards):
        """Columnar ingest through the router, cut at sweep boundaries."""
        flows = fig05_trace()
        reference = reference_run(flows, FIG05_PARAMS)
        batched = sharded_run(
            iter_flow_batches(flows, batch_size=97), FIG05_PARAMS, shards
        )
        assert_equivalent(reference, batched)

    def test_coarser_than_split_depth(self):
        """fig05 corners classify at /2 — coarser than the /4 split depth.

        That only happens through boundary reconciliation: shard roots
        join across the /4 cut and cascade up inside the aggregator.
        The final mapping must contain those coarse ranges verbatim.
        """
        flows = fig05_trace()
        reference = reference_run(flows, FIG05_PARAMS)
        coarse = [
            record
            for record in reference.final_snapshot()
            if record.classified and record.range.masklen < 4
        ]
        assert coarse, "trace no longer classifies coarser than /4"
        sharded = sharded_run(flows, FIG05_PARAMS, 16)
        assert run_csv(sharded) == run_csv(reference)

    def test_single_shard_coordinator(self):
        """shards=1 through ShardedIPD itself (split depth 0)."""
        flows = fig05_trace()
        engine = ShardedIPD(FIG05_PARAMS, shards=1, executor="serial")
        with Pipeline(
            engine=engine, snapshot_seconds=120.0, include_unclassified=True
        ) as pipeline:
            result = pipeline.run(flows)
        assert_equivalent(reference_run(flows, FIG05_PARAMS), result)


class TestExecutorEquivalence:
    """The mp executor replays the serial executor exactly."""

    def test_mp_executor(self):
        flows = fig05_trace()
        assert_equivalent(
            reference_run(flows, FIG05_PARAMS),
            sharded_run(flows, FIG05_PARAMS, 4, executor="mp", workers=2),
        )


class TestTransportEquivalence:
    """Acceptance pin: mp snapshots are byte-identical to the serial
    reference for N in {1, 4, 16} on both data planes — the legacy
    pickle pipe and the zero-copy shm rings."""

    @pytest.mark.parametrize("transport", ["pickle", "shm"])
    @pytest.mark.parametrize("shards", [1, 4, 16])
    def test_fig05_trace(self, shards, transport):
        flows = fig05_trace()
        assert_equivalent(
            reference_run(flows, FIG05_PARAMS),
            sharded_run(
                flows, FIG05_PARAMS, shards, executor="mp", workers=2,
                transport=transport,
            ),
        )

    @pytest.mark.parametrize("transport", ["pickle", "shm"])
    @pytest.mark.parametrize("shards", [1, 4, 16])
    def test_dualstack_trace(self, shards, transport):
        flows = dualstack_trace()
        assert_equivalent(
            reference_run(flows, DUALSTACK_PARAMS),
            sharded_run(
                flows, DUALSTACK_PARAMS, shards, executor="mp", workers=2,
                transport=transport,
            ),
        )


class TestShardedValidation:
    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            ShardedIPD(FIG05_PARAMS, shards=3)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            ShardedIPD(FIG05_PARAMS, shards=0)

    def test_depth_beyond_cidr_max_rejected(self):
        tiny = IPDParams(cidr_max_v4=4, n_cidr_factor_v4=0.005)
        with pytest.raises(ValueError):
            ShardedIPD(tiny, shards=32)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            ShardedIPD(FIG05_PARAMS, shards=4, executor="gpu")

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError):
            ShardedIPD(FIG05_PARAMS, shards=4, executor="mp", transport="rdma")

    def test_transport_requires_mp_executor(self):
        with pytest.raises(ValueError, match="mp executor"):
            ShardedIPD(
                FIG05_PARAMS, shards=4, executor="serial", transport="shm"
            )

    def test_close_is_idempotent(self):
        engine = ShardedIPD(FIG05_PARAMS, shards=4, executor="mp", workers=1)
        engine.close()
        engine.close()
