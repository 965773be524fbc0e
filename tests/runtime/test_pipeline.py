"""The Pipeline / LivePipeline API surface and the output sinks."""

import io

import pytest

from repro.core.driver import OfflineDriver
from repro.core.iputil import IPV4, parse_ip
from repro.core.output import read_records_csv
from repro.core.params import IPDParams
from repro.netflow.records import FlowRecord
from repro.runtime import (
    CallbackSink,
    CSVSink,
    LivePipeline,
    MemorySink,
    Pipeline,
    ShardedIPD,
)
from repro.topology.elements import IngressPoint

A = IngressPoint("R1", "et0")


def params(**kwargs) -> IPDParams:
    defaults = dict(n_cidr_factor_v4=0.001, n_cidr_factor_v6=0.001)
    defaults.update(kwargs)
    return IPDParams(**defaults)


def stream(n_buckets: int, per_bucket: int = 50, start: float = 0.0):
    base = parse_ip("10.0.0.0")[0]
    for bucket in range(n_buckets):
        for index in range(per_bucket):
            yield FlowRecord(
                timestamp=start + bucket * 60.0 + index * (60.0 / per_bucket),
                src_ip=base + index * 16,
                version=IPV4,
                ingress=A,
            )


class TestPipeline:
    def test_default_engine_is_plain_ipd(self):
        from repro.core.algorithm import IPD

        assert isinstance(Pipeline(params()).engine, IPD)

    def test_sharded_engine_selected(self):
        pipeline = Pipeline(params(), shards=4)
        assert isinstance(pipeline.engine, ShardedIPD)
        pipeline.close()

    def test_matches_offline_driver(self):
        flows = list(stream(10))
        reference = OfflineDriver(params(), snapshot_seconds=300.0).run(flows)
        result = Pipeline(params(), snapshot_seconds=300.0).run(flows)
        assert result.snapshots == reference.snapshots
        assert result.flows_processed == reference.flows_processed

    def test_invalid_snapshot_interval(self):
        with pytest.raises(ValueError):
            Pipeline(params(), snapshot_seconds=0.0)

    def test_invalid_executor(self):
        with pytest.raises(ValueError):
            Pipeline(params(), executor="quantum")

    def test_on_sweep_receives_engine(self):
        seen = []
        pipeline = Pipeline(
            params(),
            on_sweep=lambda report, engine: seen.append(engine.state_size()),
        )
        pipeline.run(stream(4))
        assert len(seen) == 4

    def test_context_manager_closes_engine(self):
        with Pipeline(params(), shards=4, executor="mp", workers=1) as pipeline:
            pipeline.run(stream(3))
        # a second close must be harmless
        pipeline.close()


class TestSinks:
    def test_memory_sink(self):
        sink = MemorySink()
        pipeline = Pipeline(params(), snapshot_seconds=300.0, sinks=[sink])
        result = pipeline.run(stream(11))
        pipeline.close()
        assert sink.snapshots == result.snapshots
        assert sink.final_snapshot() == result.final_snapshot()

    def test_callback_sink(self):
        times = []
        sink = CallbackSink(lambda when, records: times.append(when))
        pipeline = Pipeline(params(), snapshot_seconds=300.0, sinks=[sink])
        result = pipeline.run(stream(11))
        pipeline.close()
        assert times == result.snapshot_times()

    def test_csv_sink_final_only(self, tmp_path):
        path = tmp_path / "final.csv"
        sink = CSVSink(str(path))
        pipeline = Pipeline(params(), snapshot_seconds=300.0, sinks=[sink])
        result = pipeline.run(stream(11))
        pipeline.close()
        with open(path) as handle:
            records = list(read_records_csv(handle))
        final = result.final_snapshot()
        assert sink.rows_written == len(final)
        assert [r.range for r in records] == [r.range for r in final]

    def test_service_sink_feeds_live_service(self):
        from repro.runtime import ServiceSink

        sink = ServiceSink()
        pipeline = Pipeline(params(), snapshot_seconds=300.0, sinks=[sink])
        result = pipeline.run(stream(11))
        pipeline.close()
        # one hot-swapped epoch per emitted snapshot, newest one serving
        assert sink.installed == len(result.snapshot_times())
        assert sink.service.current is sink.latest
        assert sink.latest.watermark == result.snapshot_times()[-1]
        final = result.final_snapshot()
        classified = [r for r in final if r.classified]
        assert classified
        for record in classified:
            answer = sink.service.lookup(record.range.value, record.range.version)
            assert answer is not None
            assert answer.ingress == record.ingress
            assert answer.epoch == sink.latest.epoch

    def test_service_sink_wraps_existing_service(self):
        from repro.runtime import ServiceSink
        from repro.serving import IngressLookupService

        service = IngressLookupService()
        sink = ServiceSink(service)
        pipeline = Pipeline(params(), snapshot_seconds=300.0, sinks=[sink])
        pipeline.run(stream(6))
        pipeline.close()
        assert sink.service is service
        assert service.current is sink.latest

    def test_csv_sink_every_snapshot(self, tmp_path):
        path = tmp_path / "all.csv"
        sink = CSVSink(str(path), final_only=False)
        pipeline = Pipeline(params(), snapshot_seconds=300.0, sinks=[sink])
        result = pipeline.run(stream(11))
        pipeline.close()
        with open(path) as handle:
            records = list(read_records_csv(handle))
        expected = [
            record
            for when in result.snapshot_times()
            for record in result.snapshots[when]
        ]
        assert len(records) == len(expected)
        assert [r.timestamp for r in records] == [r.timestamp for r in expected]


class _CountingSink(MemorySink):
    def __init__(self):
        super().__init__()
        self.close_calls = 0

    def _close(self):
        self.close_calls += 1


class TestSinkLifecycle:
    def test_sink_close_is_idempotent(self):
        sink = _CountingSink()
        assert not sink.closed
        sink.close()
        sink.close()
        sink.close()
        assert sink.closed
        assert sink.close_calls == 1

    def test_pipeline_closes_each_sink_exactly_once(self):
        sinks = [_CountingSink(), _CountingSink()]
        pipeline = Pipeline(params(), snapshot_seconds=300.0, sinks=sinks)
        pipeline.run(stream(3))
        pipeline.close()
        pipeline.close()  # explicit double-close must stay a no-op
        assert [sink.close_calls for sink in sinks] == [1, 1]

    def test_context_manager_exit_after_explicit_close(self):
        sink = _CountingSink()
        with Pipeline(params(), snapshot_seconds=300.0, sinks=[sink]) as p:
            p.run(stream(3))
            p.close()  # caller closes early; __exit__ follows anyway
        assert sink.close_calls == 1

    def test_sinks_closed_once_when_the_stream_raises(self):
        def broken():
            yield from stream(2)
            raise RuntimeError("upstream died")

        sink = _CountingSink()
        with pytest.raises(RuntimeError, match="upstream died"):
            with Pipeline(
                params(), snapshot_seconds=300.0, sinks=[sink]
            ) as pipeline:
                pipeline.run(broken())
        assert sink.closed
        assert sink.close_calls == 1

    def test_csv_sink_second_close_does_not_rewrite(self, tmp_path):
        path = tmp_path / "once.csv"
        sink = CSVSink(str(path))
        pipeline = Pipeline(params(), snapshot_seconds=300.0, sinks=[sink])
        pipeline.run(stream(11))
        pipeline.close()
        written = sink.rows_written
        path.write_text("sentinel: closing again must not clobber this\n")
        sink.close()
        pipeline.close()
        assert sink.rows_written == written
        assert path.read_text().startswith("sentinel")


class TestLivePipeline:
    def test_classifies_with_sharded_engine(self):
        runner = LivePipeline(
            params(), sweep_interval=0.05, shards=4, executor="mp", workers=1
        )
        runner.start()
        base = parse_ip("10.0.0.0")[0]
        for index in range(200):
            runner.submit(
                FlowRecord(timestamp=0.0, src_ip=base + index * 16,
                           version=IPV4, ingress=A)
            )
        import time

        time.sleep(0.3)
        runner.stop()
        snapshot = runner.snapshot()
        runner.close()
        assert snapshot
        assert snapshot[0].ingress == A

    def test_stop_without_start_ingests_everything(self):
        """No submitted flow may be lost, even without a running thread."""
        runner = LivePipeline(params(), sweep_interval=100.0,
                              clock=lambda: 50.0)
        for index in range(25):
            runner.submit(
                FlowRecord(timestamp=0.0, src_ip=index * 16, version=IPV4,
                           ingress=A)
            )
        runner.stop()
        assert runner.engine.flows_ingested == 25
