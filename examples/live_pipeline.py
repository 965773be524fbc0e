#!/usr/bin/env python3
"""The deployment layout, live: reader processes -> collector -> IPD.

The tier-1 deployment (§5.7) runs per-router flow readers feeding a
single central IPD process in two threads (ingest + periodic sweep).
This example wires the same pipeline with real threads and wall-clock
sweeps, at interactive speed:

  per-router streams -> PacketSampler -> StatisticalTime -> LivePipeline

(``LivePipeline`` replaced the old ``ThreadedIPD``, which remains as a
deprecated alias; the live runtime can also shard the address space with
``shards=N, executor="serial"|"mp"``.)

Run:  python examples/live_pipeline.py
"""

import time

from repro import IPDParams, LivePipeline
from repro.core.iputil import parse_ip
from repro.netflow.collector import merge_streams
from repro.netflow.records import FlowRecord
from repro.netflow.sampling import PacketSampler
from repro.topology.elements import IngressPoint


def router_stream(router: str, base_text: str, count: int, skew: float):
    """One border router's export stream, with a skewed clock (§3.1)."""
    base = parse_ip(base_text)[0]
    ingress = IngressPoint(router, "et0")
    for index in range(count):
        yield FlowRecord(
            timestamp=index * 0.01 + skew,  # drifting router clock
            src_ip=base + (index % 128) * 16,
            version=4,
            ingress=ingress,
            packets=1 + index % 20,
        )


def main() -> None:
    params = IPDParams(n_cidr_factor_v4=0.02, n_cidr_factor_v6=0.02)
    runner = LivePipeline(params, sweep_interval=0.25)
    runner.start()
    print("central IPD process started (sweeps every 0.25 s wall clock)")

    # three border routers exporting concurrently, clocks disagreeing
    streams = [
        router_stream("fra-r1", "10.0.0.0", 4000, skew=0.0),
        router_stream("nyc-r1", "20.0.0.0", 4000, skew=3.7),
        router_stream("sin-r1", "30.0.0.0", 4000, skew=-2.1),
    ]
    sampler = PacketSampler(rate=4, seed=1)  # 1-of-4 packet sampling

    submitted = 0
    for flow in sampler.sample(merge_streams(streams)):
        runner.submit(flow)  # re-stamped onto the collector clock
        submitted += 1
    print(f"submitted {submitted:,} sampled flow records from 3 routers")

    time.sleep(2.5)  # let the split cascade converge
    runner.stop()

    print(f"\nsweeps executed: {len(runner.sweep_reports)}")
    print("live mapping:")
    for record in runner.snapshot():
        print(f"  {str(record.range):16s} -> {record.ingress} "
              f"(confidence {record.s_ingress:.2f}, "
              f"{record.s_ipcount:.0f} samples)")


if __name__ == "__main__":
    main()
