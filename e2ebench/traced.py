"""Traced run of the ``repro`` command line, and the per-layer metrics.

``python3 e2ebench/traced.py spans SPANS.json -- <repro arguments>`` runs
``repro.cli.main`` in this process after wrapping the public functions
of each layer it calls into.  Every wrapped call records a span (name,
start, end, parent, counts taken from its arguments or return value).
Spans stay in memory and are written as one JSON file when the command
returns, which for ``serve`` is after the SIGINT that stops the server.
``traced.py setup -- <repro run arguments>`` instead times a fresh
interpreter's ``import repro.cli`` plus the command's construction of its
``Pipeline``, and prints ``{"setup_s": <wall>, "setup_cpu_s": <CPU>}``.

The wrappers live here, outside the program: the program is unchanged,
and only its parent-process calls are visible (``replay-mp`` worker
time is not).  :func:`layer_metrics` turns a span file into the
``<module>.<metric>`` values the benchmark reports; it imports nothing
from the program, so the benchmark driver can use it.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

#: named layers: span name -> layer; ``cli.main`` (argument parsing and
#: command glue) is the root and deliberately not a named layer
LAYER_OF_SPAN = {
    "cli.import": "cli",
    "netflow.records.read": "netflow.records",
    "runtime.pipeline.init": "runtime.pipeline",
    "runtime.pipeline.run": "runtime.pipeline",
    "core.algorithm.ingest_batch": "core.algorithm",
    "core.algorithm.sweep": "core.algorithm",
    "core.algorithm.snapshot": "core.algorithm",
    "core.admission.age_to": "core.admission",
    "core.admission.prefilter_rows": "core.admission",
    "runtime.sharding.ingest_batch": "runtime.sharding",
    "runtime.sharding.sweep": "runtime.sharding",
    "runtime.sharding.snapshot": "runtime.sharding",
    "runtime.sharding.to_bytes": "runtime.sharding",
    "runtime.checkpoint.save": "runtime.checkpoint",
    "core.output.write": "core.output",
    "core.output.read": "core.output",
    "serving.service.install_snapshot": "serving.service",
    "serving.service.lookup": "serving.service",
    "serving.service.lookup_many": "serving.service",
}


class Tracer:
    """In-memory span recorder: ``[name, start, end, parent, counts]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int, counts: "dict | None" = None) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = counts
        self._open.pop()


def _wrap(tracer: Tracer, owner, attr: str, name: str, counts=None) -> None:
    inner = getattr(owner, attr)

    def traced(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = inner(*args, **kwargs)
        except BaseException:
            tracer.end(index)
            raise
        tracer.end(index, counts(args, result) if counts else None)
        return result

    setattr(owner, attr, traced)


def _wrap_iterator(tracer: Tracer, owner, attr: str, name: str, rows) -> None:
    """Time each ``next()`` of a returned iterator (the consumer's work
    between items belongs to the consumer's own span)."""
    inner = getattr(owner, attr)

    def traced(*args, **kwargs):
        iterator = iter(inner(*args, **kwargs))
        while True:
            index = tracer.begin(name)
            try:
                item = next(iterator)
            except StopIteration:
                tracer.end(index, {"rows": 0})
                return
            tracer.end(index, {"rows": rows(item)})
            yield item

    setattr(owner, attr, traced)


def _report_counts(__, report) -> dict:
    return {
        "visited": report.visited,
        "leaves": report.leaves,
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "admitted": report.admission_admitted,
        "held": report.admission_held,
        "dropped": report.admission_dropped,
        "promoted": report.admission_promoted,
    }


def install(tracer: Tracer, cli) -> None:
    """Wrap the layer entry points ``repro.cli`` reaches."""
    from repro.core.admission import AdmissionController
    from repro.core.algorithm import IPD
    from repro.runtime.checkpoint import CheckpointStore
    from repro.runtime.pipeline import Pipeline
    from repro.runtime.sharding import ShardedIPD
    from repro.serving.service import IngressLookupService

    flows_of = lambda args, __: {"flows": len(args[1].timestamps)}  # noqa: E731
    _wrap_iterator(tracer, cli, "read_flows_csv_batched", "netflow.records.read",
                   lambda batch: len(batch.timestamps))
    _wrap_iterator(tracer, cli, "read_records_csv", "core.output.read",
                   lambda __: 1)
    _wrap(tracer, cli, "write_records_csv", "core.output.write",
          lambda __, count: {"rows": count})
    _wrap(tracer, Pipeline, "__init__", "runtime.pipeline.init")
    _wrap(tracer, Pipeline, "run", "runtime.pipeline.run",
          lambda __, result: {"flows": result.flows_processed})
    _wrap(tracer, IPD, "ingest_batch", "core.algorithm.ingest_batch", flows_of)
    _wrap(tracer, IPD, "sweep", "core.algorithm.sweep", _report_counts)
    _wrap(tracer, IPD, "snapshot", "core.algorithm.snapshot")
    _wrap(tracer, AdmissionController, "age_to", "core.admission.age_to",
          lambda __, steps: {"halvings": steps})
    _wrap(tracer, AdmissionController, "prefilter_rows",
          "core.admission.prefilter_rows")
    _wrap(tracer, ShardedIPD, "ingest_batch", "runtime.sharding.ingest_batch",
          flows_of)
    _wrap(tracer, ShardedIPD, "sweep", "runtime.sharding.sweep", _report_counts)
    _wrap(tracer, ShardedIPD, "snapshot", "runtime.sharding.snapshot")
    _wrap(tracer, ShardedIPD, "to_bytes", "runtime.sharding.to_bytes")
    _wrap(tracer, CheckpointStore, "save", "runtime.checkpoint.save",
          lambda __, path: {"bytes": Path(path).stat().st_size})
    _wrap(tracer, IngressLookupService, "install_snapshot",
          "serving.service.install_snapshot")
    _wrap(tracer, IngressLookupService, "lookup", "serving.service.lookup",
          lambda __, result: {"addrs": 1, "hits": int(result is not None)})
    _wrap(tracer, IngressLookupService, "lookup_many",
          "serving.service.lookup_many",
          lambda __, result: {
              "addrs": len(result[1]),
              "hits": sum(1 for item in result[1] if item is not None),
          })


class _Built(Exception):
    """Raised once the CLI has built its Pipeline (``setup`` mode)."""


def _setup(started: float, cli, cli_argv: list[str]) -> int:
    """Time ``import repro.cli`` plus the CLI's path to a built Pipeline
    (worker spawn and rings included), then stop before any replay."""
    from repro.runtime.pipeline import Pipeline

    build = Pipeline.__init__

    def built(self, *args, **kwargs):
        build(self, *args, **kwargs)
        elapsed = time.perf_counter() - started, time.process_time()
        self.close()
        raise _Built(*elapsed)

    Pipeline.__init__ = built
    try:
        cli.main(cli_argv)
    except _Built as done:
        print(json.dumps({"setup_s": done.args[0], "setup_cpu_s": done.args[1]}))
        return 0
    print("the command never built a Pipeline", file=sys.stderr)
    return 1


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    if len(argv) < 3 or argv[0] not in ("spans", "setup") or "--" not in argv:
        print("usage: traced.py spans SPANS.json -- <repro arguments>\n"
              "       traced.py setup -- <repro arguments>", file=sys.stderr)
        return 2
    cut = argv.index("--")
    cli_argv = argv[cut + 1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tracer = Tracer()
    index = tracer.begin("cli.import")
    import repro.cli as cli
    tracer.end(index)
    if argv[0] == "setup":
        return _setup(started, cli, cli_argv)
    install(tracer, cli)
    index = tracer.begin("cli.main")
    try:
        status = cli.main(cli_argv)
    finally:
        tracer.end(index)
        with open(argv[1], "w") as stream:
            json.dump({"started": started, "spans": tracer.spans}, stream)
    return status


# ----------------------------------------------------------------- metrics


def _self_times(spans: list[list]) -> list[float]:
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer values from one span file and its process wall time.

    Layers a workload never reaches read 0.  ``trace.unattributed_s``
    is the wall time no named layer's self time covers (interpreter
    start and exit, command glue, idle time of a server), so the named
    self times plus it equal ``wall_s`` exactly.
    """
    spans = trace["spans"]
    own = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(index)

    def total(name: str, self_only: bool = False) -> float:
        return sum(
            own[i] if self_only else spans[i][2] - spans[i][1]
            for i in by_name.get(name, ())
        )

    def count(name: str, key: str) -> int:
        return sum((spans[i][4] or {}).get(key, 0) for i in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # sweep reports of the engine the pipeline drives (the sharded
    # engine's merged report on replay-mp, the plain engine's otherwise)
    run_spans = set(by_name.get("runtime.pipeline.run", ()))
    top_sweeps = [
        spans[i][4] for name in ("core.algorithm.sweep", "runtime.sharding.sweep")
        for i in by_name.get(name, ()) if spans[i][3] in run_spans
    ]
    last = top_sweeps[-1] if top_sweeps else {}
    swept = lambda key: sum(report[key] for report in top_sweeps)  # noqa: E731
    rows = count("netflow.records.read", "rows")
    ingest_flows = count("core.algorithm.ingest_batch", "flows")
    sweep_ms = [
        (spans[i][2] - spans[i][1]) * 1e3 for i in by_name.get("core.algorithm.sweep", ())
    ]
    admission_on = calls("core.admission.age_to") > 0
    lookups = [spans[i][2] - spans[i][1] for i in by_name.get("serving.service.lookup", ())]
    many = [
        (spans[i][2] - spans[i][1]) / spans[i][4]["addrs"]
        for i in by_name.get("serving.service.lookup_many", ()) if spans[i][4]["addrs"]
    ]
    addrs = count("serving.service.lookup", "addrs") + count(
        "serving.service.lookup_many", "addrs")
    hits = count("serving.service.lookup", "hits") + count(
        "serving.service.lookup_many", "hits")
    attributed = sum(own[i] for i, span in enumerate(spans) if span[0] in LAYER_OF_SPAN)
    read_s = total("netflow.records.read")
    ingest_s = total("core.algorithm.ingest_batch")
    return {
        "cli.import_s": total("cli.import"),
        "netflow.records.read_s": read_s,
        "netflow.records.rows": rows,
        "netflow.records.ns_per_row": ratio(read_s * 1e9, rows),
        "runtime.pipeline.init_s": total("runtime.pipeline.init"),
        "runtime.pipeline.run_s": total("runtime.pipeline.run"),
        "runtime.pipeline.self_s": total("runtime.pipeline.run", self_only=True),
        "core.algorithm.ingest_s": ingest_s,
        "core.algorithm.ingest_calls": calls("core.algorithm.ingest_batch"),
        "core.algorithm.ingest_ns_per_flow": ratio(ingest_s * 1e9, ingest_flows),
        "core.algorithm.sweep_s": total("core.algorithm.sweep"),
        "core.algorithm.sweeps": calls("core.algorithm.sweep"),
        "core.algorithm.sweep_max_ms": max(sweep_ms, default=0.0),
        "core.algorithm.sweep_visited": swept("visited") if top_sweeps else 0,
        "core.algorithm.cache_hit_ratio": ratio(
            last.get("cache_hits", 0),
            last.get("cache_hits", 0) + last.get("cache_misses", 0)),
        "core.algorithm.snapshot_s": total("core.algorithm.snapshot"),
        "core.algorithm.leaves_final": last.get("leaves", 0),
        "core.admission.age_s": total("core.admission.age_to"),
        "core.admission.halvings": count("core.admission.age_to", "halvings"),
        "core.admission.prefilter_s": total("core.admission.prefilter_rows"),
        "core.admission.admitted": swept("admitted") if top_sweeps else 0,
        "core.admission.dropped": swept("dropped") if top_sweeps else 0,
        "core.admission.promoted": swept("promoted") if top_sweeps else 0,
        "core.admission.unreconciled_flows": (
            rows - swept("admitted") - swept("held") - swept("dropped")
            if admission_on else 0
        ),
        "runtime.sharding.ingest_s": total("runtime.sharding.ingest_batch"),
        "runtime.sharding.sweep_s": total("runtime.sharding.sweep"),
        "runtime.sharding.snapshot_s": total("runtime.sharding.snapshot"),
        "runtime.sharding.to_bytes_s": total("runtime.sharding.to_bytes"),
        "runtime.checkpoint.save_s": total("runtime.checkpoint.save"),
        "runtime.checkpoint.saves": calls("runtime.checkpoint.save"),
        "runtime.checkpoint.bytes": count("runtime.checkpoint.save", "bytes"),
        "core.output.write_s": total("core.output.write"),
        "core.output.read_s": total("core.output.read"),
        "serving.service.install_s": total("serving.service.install_snapshot"),
        "serving.service.lookup_us": (
            statistics.median(lookups) * 1e6 if lookups else 0.0),
        "serving.service.lookup_many_us_per_addr": (
            statistics.median(many) * 1e6 if many else 0.0),
        "serving.service.hit_ratio": ratio(hits, addrs),
        "serving.server.requests": calls("serving.service.lookup")
        + calls("serving.service.lookup_many"),
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - attributed,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
