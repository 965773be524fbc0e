"""Command-line interface: ``python -m repro <command>``.

Thin operational wrappers over the library:

* ``run``       — replay a flow CSV through IPD, write Table-3 records;
  with ``--scenario`` it instead generates an adversarial scenario
  (spoofed flood, policing clip, route-flap storm) and prints its
  ground-truth evaluation.
* ``lookup``    — LPM queries against an IPD output CSV.
* ``simulate``  — generate a synthetic scenario's flow CSV (+ ground truth).
* ``evaluate``  — score an IPD output CSV against a ground-truth flow CSV.
* ``archive``   — maintain the longitudinal snapshot archive.
* ``watch``     — print a prefix's classification trajectory from an
  archive (the Fig. 13/14 view, with a confidence sparkline).
* ``serve``     — run the ingress lookup service (asyncio line
  protocol) over an IPD output CSV or an archive's latest snapshot.

All file formats are the library's own CSV round-trip formats
(:mod:`repro.netflow.records`, :mod:`repro.core.output`), so outputs of
one command feed the next.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .core.admission import AdmissionConfig
from .core.iputil import parse_ip
from .core.lpm import build_lpm_from_records
from .core.output import read_records_csv, write_records_csv
from .core.params import IPDParams
from .core.statecodec import IncompatibleStateError, StateCodecError
from .netflow.records import (
    read_flows_csv,
    read_flows_csv_batched,
    write_flows_csv,
)
from .runtime import (
    EXECUTOR_KINDS,
    TRANSPORT_KINDS,
    CheckpointStore,
    Pipeline,
)

__all__ = ["main"]


def _add_param_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", type=float, default=0.95,
                        help="dominance threshold (Table 1: 0.95)")
    parser.add_argument("--cidr-max", type=int, default=28,
                        help="max IPv4 range specificity (Table 1: 28)")
    parser.add_argument("--n-cidr-factor", type=float, default=64.0,
                        help="minimum-sample factor; scale with your "
                             "flow volume (deployment: 64 at ~32M flows/min)")
    parser.add_argument("--t", type=float, default=60.0,
                        help="sweep interval seconds")
    parser.add_argument("--e", type=float, default=120.0,
                        help="expiry seconds")


def _params_from(args: argparse.Namespace) -> IPDParams:
    return IPDParams(
        q=args.q,
        cidr_max_v4=args.cidr_max,
        n_cidr_factor_v4=args.n_cidr_factor,
        n_cidr_factor_v6=max(args.n_cidr_factor * 0.375, 1e-6),
        t=args.t,
        e=args.e,
    )


def _admission_from(
    args: argparse.Namespace, expected_sources: Optional[int] = None
) -> Optional[AdmissionConfig]:
    if args.admission == "off":
        return None
    if args.admission_width is None and expected_sources is not None:
        # scenario mode knows the flood's cardinality: auto-size the
        # sketch unless the operator pinned a width explicitly
        return AdmissionConfig.for_cardinality(
            expected_sources,
            promote_weight=args.admission_promote_weight,
            depth=args.admission_depth,
        )
    kwargs = {}
    if args.admission_width is not None:
        kwargs["width"] = args.admission_width
    return AdmissionConfig(
        promote_weight=args.admission_promote_weight,
        depth=args.admission_depth,
        **kwargs,
    )


def _print_admission_counters(args: argparse.Namespace, result) -> None:
    if args.admission == "off":
        return
    admitted = sum(s.admission_admitted for s in result.sweeps)
    dropped = sum(s.admission_dropped for s in result.sweeps)
    promoted = sum(s.admission_promoted for s in result.sweeps)
    saturated = any(s.admission_saturated for s in result.sweeps)
    print(f"admission ({args.admission}): admitted {admitted:,} + "
          f"dropped {dropped:,} = {admitted + dropped:,} flows  "
          f"promoted {promoted:,} sources"
          + ("  [saturated]" if saturated else ""))


def _cmd_run_scenario(args: argparse.Namespace) -> int:
    """``run --scenario NAME``: an adversarial scenario end to end.

    Generates the named scenario's flow stream, replays it through the
    requested runtime topology, prints the family's ground-truth
    evaluation (pollution/blow-up, clip survival, or the flap-survival
    curve) and optionally writes the final Table-3 snapshot.
    """
    from .analysis import (
        clip_survival,
        flap_survival,
        peak_pollution,
        state_blowup,
    )
    from .workloads import adversarial_scenario

    # factor-0.01 pairing for the synthetic downsized flow volume; the
    # deployment-scale --n-cidr-factor default would never classify here
    params = IPDParams(
        n_cidr_factor_v4=0.01, n_cidr_factor_v6=0.01, drop_threshold=0.25
    )
    try:
        scenario = adversarial_scenario(
            args.scenario,
            duration_hours=args.scenario_hours,
            flows_per_bucket_peak=args.scenario_peak,
            params=params,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    truth = scenario.ground_truth
    admission = _admission_from(args, expected_sources=truth.expected_sources)
    __, result = scenario.run(
        snapshot_seconds=args.snapshot_seconds,
        keep_flows=False,
        shards=args.shards,
        executor=args.executor,
        workers=args.workers,
        admission=admission,
    )
    window = truth.attack_window
    print(f"scenario {scenario.name} ({truth.family}): "
          f"{result.flows_processed:,} flows, {len(result.sweeps)} sweeps, "
          f"attack window {window[0]:.0f}s..{window[1]:.0f}s")
    _print_admission_counters(args, result)

    if truth.family == "flood":
        pollution = peak_pollution(result, truth)
        print(f"peak benign-range pollution: {pollution.polluted}"
              f"/{pollution.classified} classified ranges "
              f"({pollution.pollution_rate:.2%}) "
              f"at t={pollution.snapshot_time:.0f}s")
        __, baseline = scenario.baseline().run(
            snapshot_seconds=args.snapshot_seconds, keep_flows=False
        )
        blowup = state_blowup(baseline, result)
        print(f"state blow-up vs attack-free baseline: {blowup.factor:.2f}x "
              f"(peak {blowup.attacked_peak_leaves} vs "
              f"{blowup.baseline_peak_leaves} leaves)")
    elif truth.family == "policing":
        for verdict in clip_survival(result, truth):
            print(f"clip {verdict.prefix}: "
                  f"{'SURVIVED' if verdict.survived else 'LOST'}  "
                  f"classified {verdict.classified}/{verdict.snapshots} "
                  f"snapshots, {verdict.ingress_changes} ingress change(s), "
                  f"before={verdict.ingress_before}")
    elif truth.family == "flap":
        for point in flap_survival(result, truth):
            print(f"flap period {point.period_seconds:>7.0f}s  "
                  f"classified {point.classified_share:.0%} of "
                  f"{point.snapshots} snapshots  "
                  f"ingresses seen: {len(point.ingresses_seen)}")

    if args.output is not None:
        records = result.final_snapshot()
        with open(args.output, "w") as stream:
            count = write_records_csv(records, stream)
        print(f"wrote {count} ranges to {args.output}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.scenario is not None:
        if args.output is None:
            # `run --scenario NAME [output.csv]`: a single positional
            # is the output file, not a flow CSV
            args.flows, args.output = None, args.flows
        elif args.flows is not None:
            print("run --scenario generates its own flows; at most one "
                  "positional (the output CSV) is allowed", file=sys.stderr)
            return 2
        return _cmd_run_scenario(args)
    if args.flows is None or args.output is None:
        print("run requires <flows> and <output> positionals "
              "(or --scenario NAME)", file=sys.stderr)
        return 2
    params = _params_from(args)
    admission = _admission_from(args)

    def flow_source():
        # A fresh file handle per (re)start: checkpoint resume and
        # worker-crash recovery both re-open the CSV and replay forward.
        with open(args.flows) as stream:
            if args.batch_size > 0:
                yield from read_flows_csv_batched(stream, args.batch_size)
            else:
                yield from read_flows_csv(stream)

    resumed = False
    if args.resume:
        if args.checkpoint_dir is None:
            print("--resume requires --checkpoint-dir", file=sys.stderr)
            return 2
        if not Path(args.checkpoint_dir).is_dir():
            # an explicit resume against nothing is an operator mistake,
            # not a fresh start: fail instead of silently recomputing
            print(
                f"--resume: checkpoint directory {args.checkpoint_dir} "
                "does not exist",
                file=sys.stderr,
            )
            return 2
        store = CheckpointStore(args.checkpoint_dir, retain=args.checkpoint_retain)
        try:
            checkpoint = store.latest()
        except IncompatibleStateError as exc:
            print(
                f"cannot resume: checkpoint in {args.checkpoint_dir} was "
                f"written by a newer build ({exc})",
                file=sys.stderr,
            )
            return 2
        except StateCodecError as exc:
            # CheckpointCorruptError: damaged file — refuse loudly rather
            # than silently rewinding to an older image
            print(f"cannot resume: {exc}", file=sys.stderr)
            return 2
        if checkpoint is not None:
            try:
                pipeline = Pipeline.resume(
                    store,
                    checkpoint=checkpoint,
                    params=params,
                    shards=args.shards,
                    executor=args.executor,
                    workers=args.workers,
                    transport=args.transport,
                    admission=admission,
                    snapshot_seconds=args.snapshot_seconds,
                    checkpoint_every=args.checkpoint_every,
                )
            except IncompatibleStateError as exc:
                print(
                    f"cannot resume: engine state in {args.checkpoint_dir} "
                    f"needs a newer build ({exc})",
                    file=sys.stderr,
                )
                return 2
            except StateCodecError as exc:
                print(f"cannot resume: {exc}", file=sys.stderr)
                return 2
            except ValueError as exc:
                # e.g. an illegal shard topology for the restored image
                print(f"cannot resume with this topology: {exc}", file=sys.stderr)
                return 2
            resumed = True
        else:
            print(f"no checkpoint in {args.checkpoint_dir}; starting fresh")
    if not resumed:
        store = (
            CheckpointStore(args.checkpoint_dir, retain=args.checkpoint_retain)
            if args.checkpoint_dir is not None
            else None
        )
        pipeline = Pipeline(
            params,
            shards=args.shards,
            executor=args.executor,
            workers=args.workers,
            transport=args.transport,
            snapshot_seconds=args.snapshot_seconds,
            checkpoint_store=store,
            checkpoint_every=args.checkpoint_every,
            admission=admission,
        )
    with pipeline:
        result = pipeline.run(flow_source)
    records = result.final_snapshot()
    with open(args.output, "w") as stream:
        count = write_records_csv(records, stream)
    engine = (
        f"{args.shards} shard(s), {args.executor} executor"
        + (f", {args.transport} transport" if args.executor == "mp" else "")
        if args.shards > 1 or args.executor != "serial"
        else "single engine"
    )
    note = " (resumed from checkpoint)" if resumed else ""
    print(f"processed {result.flows_processed:,} flows, "
          f"{len(result.sweeps)} sweeps ({engine}){note}; wrote {count} "
          f"ranges to {args.output}")
    _print_admission_counters(args, result)
    return 0


def _cmd_lookup(args: argparse.Namespace) -> int:
    with open(args.records) as stream:
        records = list(read_records_csv(stream))
    status = 0
    for address in args.address:
        value, version = parse_ip(address)
        lpm = build_lpm_from_records(records, version)
        found = lpm.lookup_with_prefix(value)
        if found is None:
            print(f"{address}: not mapped")
            status = 1
        else:
            prefix, ingress = found
            print(f"{address}: {ingress} (via {prefix})")
    return status


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .workloads.scenarios import default_scenario

    scenario = default_scenario(
        duration_hours=args.hours,
        flows_per_bucket_peak=args.flows_per_minute,
        seed=args.seed,
    )
    with open(args.output, "w") as stream:
        count = write_flows_csv(scenario.generator().flows(), stream)
    print(f"wrote {count:,} flows ({args.hours}h synthetic tier-1 traffic) "
          f"to {args.output}")
    print("suggested IPD scaling for this volume: "
          f"--n-cidr-factor {0.25 * args.flows_per_minute / 3500.0:.3f}")
    return 0


def _cmd_archive(args: argparse.Namespace) -> int:
    from .archive import SnapshotArchive

    archive = SnapshotArchive(args.root)
    if args.action == "ingest":
        if not args.records:
            print("ingest requires --records", file=sys.stderr)
            return 2
        with open(args.records) as stream:
            records = list(read_records_csv(stream))
        by_time: dict[float, list] = {}
        for record in records:
            by_time.setdefault(record.timestamp, []).append(record)
        count = archive.append_run(by_time)
        print(f"archived {count} snapshot(s), {len(records)} records")
        return 0
    stats = archive.stats()
    print(f"days: {stats.days}  snapshots: {stats.snapshots}  "
          f"records: {stats.records:,}  "
          f"compressed: {stats.compressed_bytes:,} bytes")
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from .analysis.trajectory import range_trajectory
    from .archive import SnapshotArchive
    from .core.iputil import parse_prefix
    from .reporting.sparkline import sparkline

    archive = SnapshotArchive(args.root)
    prefix = parse_prefix(args.prefix)
    snapshots = archive.load(start=args.start, end=args.end)
    if not snapshots:
        print("no snapshots in range", file=sys.stderr)
        return 1
    trajectory = range_trajectory(snapshots, prefix)
    print(f"{prefix}: {len(trajectory.points)} snapshots, "
          f"classified {trajectory.classified_share():.0%} of the time")
    print("confidence: "
          + sparkline([p.confidence for p in trajectory.points],
                      minimum=0.0, maximum=1.0))
    print("samples:    "
          + sparkline([p.samples for p in trajectory.points]))
    for ts, old, new in trajectory.ingress_changes():
        print(f"  change @ {ts:.0f}s: {old} -> {new}")
    for start, end in trajectory.gaps():
        print(f"  unclassified {start:.0f}s .. {end:.0f}s")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    with open(args.records) as stream:
        records = list(read_records_csv(stream))
    lpm_by_version: dict[int, object] = {}
    total = correct = unmapped = 0
    with open(args.flows) as stream:
        for flow in read_flows_csv(stream):
            lpm = lpm_by_version.get(flow.version)
            if lpm is None:
                lpm = build_lpm_from_records(records, flow.version)
                lpm_by_version[flow.version] = lpm
            predicted = lpm.lookup(flow.src_ip)
            total += 1
            if predicted is None:
                unmapped += 1
            elif predicted == flow.ingress or (
                predicted.router == flow.ingress.router
                and flow.ingress.interface in predicted.interfaces()
            ):
                correct += 1
    if total == 0:
        print("no flows to evaluate")
        return 1
    print(f"flows: {total:,}  correct: {correct / total:.3f}  "
          f"unmapped: {unmapped / total:.3f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .archive import SnapshotArchive
    from .core.snapshot import Snapshot
    from .serving import IngressLookupService, LookupServer

    archive = SnapshotArchive(args.archive) if args.archive else None
    if args.records:
        with open(args.records) as stream:
            records = list(read_records_csv(stream))
        if not records:
            print(f"no records in {args.records}", file=sys.stderr)
            return 2
        when = max(record.timestamp for record in records)
    elif archive is not None:
        newest = archive.latest()
        if newest is None:
            print(f"archive {args.archive} holds no snapshots", file=sys.stderr)
            return 2
        when, records = newest
    else:
        print("serve requires --records and/or --archive", file=sys.stderr)
        return 2

    snapshot = Snapshot(when, records, epoch=1, source="cli")
    service = IngressLookupService(archive=archive, shards=args.shards)
    epoch = service.install_snapshot(snapshot)
    server = LookupServer(service, host=args.host, port=args.port)

    async def _run() -> None:
        host, port = await server.start()
        # flush: supervisors watch for the banner through a pipe
        print(f"serving {len(epoch)} ranges (epoch {epoch.epoch}, "
              f"watermark {epoch.watermark:.0f}s) on {host}:{port}",
              flush=True)
        print("protocol: GET <ip> | MGET <ip>... | AT <ts> <ip> | "
              "STATS | QUIT", flush=True)
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IPD (SIGCOMM'24 reproduction) command line",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="replay a flow CSV through IPD")
    run.add_argument("flows", nargs="?", default=None,
                     help="input flow CSV (omit with --scenario)")
    run.add_argument("output", nargs="?", default=None,
                     help="output IPD record CSV (optional with --scenario)")
    run.add_argument("--scenario", default=None, metavar="NAME",
                     help="replay a generated adversarial scenario instead "
                          "of a flow CSV and print its ground-truth "
                          "evaluation: flood-uniform, flood-subnet, "
                          "policing-clip, or flap-storm")
    run.add_argument("--scenario-hours", type=float, default=1.0,
                     help="scenario duration (synthetic trace hours)")
    run.add_argument("--scenario-peak", type=int, default=800,
                     help="scenario peak benign flows per bucket")
    run.add_argument("--snapshot-seconds", type=float, default=300.0)
    run.add_argument("--batch-size", type=int, default=8192,
                     help="flows per columnar ingest batch "
                          "(0 = per-flow ingest)")
    run.add_argument("--executor", choices=EXECUTOR_KINDS, default="serial",
                     help="runtime executor driving the engine shards")
    run.add_argument("--shards", type=int, default=1,
                     help="address-space shards (power of two); output is "
                          "identical to --shards 1, only throughput changes")
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes for the mp executor")
    run.add_argument("--transport", choices=TRANSPORT_KINDS, default="pickle",
                     help="mp executor data plane: pickle-over-pipe or "
                          "zero-copy shared-memory rings")
    run.add_argument("--checkpoint-dir", default=None,
                     help="directory for periodic engine checkpoints "
                          "(enables crash recovery and --resume)")
    run.add_argument("--checkpoint-every", type=float, default=300.0,
                     help="trace seconds between checkpoints (taken at "
                          "sweep ticks)")
    run.add_argument("--checkpoint-retain", type=int, default=3,
                     help="newest checkpoints kept on disk")
    run.add_argument("--resume", action="store_true",
                     help="continue from the latest checkpoint in "
                          "--checkpoint-dir (replays the same flow CSV, "
                          "skipping already-processed rows)")
    run.add_argument("--admission", choices=["off", "lossy"],
                     default="off",
                     help="sketch-gated admission front-end: 'lossy' drops "
                          "sources that never reach the promotion threshold")
    run.add_argument("--admission-promote-weight", type=float, default=4.0,
                     help="sketch estimate at which a source is promoted "
                          "to the elephant fast path")
    run.add_argument("--admission-width", type=int, default=None,
                     help="count-min sketch columns (rounded up to a "
                          "power of two; default 2^14, or auto-sized "
                          "from the flood cardinality in --scenario mode)")
    run.add_argument("--admission-depth", type=int, default=4,
                     help="count-min sketch rows")
    _add_param_arguments(run)
    run.set_defaults(handler=_cmd_run)

    lookup = commands.add_parser("lookup", help="query an IPD output CSV")
    lookup.add_argument("records", help="IPD record CSV")
    lookup.add_argument("address", nargs="+", help="IP address(es)")
    lookup.set_defaults(handler=_cmd_lookup)

    simulate = commands.add_parser(
        "simulate", help="generate a synthetic scenario flow CSV"
    )
    simulate.add_argument("output", help="output flow CSV")
    simulate.add_argument("--hours", type=float, default=2.0)
    simulate.add_argument("--flows-per-minute", type=int, default=3500)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.set_defaults(handler=_cmd_simulate)

    evaluate = commands.add_parser(
        "evaluate", help="score IPD records against ground-truth flows"
    )
    evaluate.add_argument("records", help="IPD record CSV")
    evaluate.add_argument("flows", help="ground-truth flow CSV")
    evaluate.set_defaults(handler=_cmd_evaluate)

    archive = commands.add_parser(
        "archive", help="longitudinal snapshot archive (ingest/stats)"
    )
    archive.add_argument("root", help="archive directory")
    archive.add_argument("action", choices=["ingest", "stats"])
    archive.add_argument("--records", help="IPD record CSV to ingest")
    archive.set_defaults(handler=_cmd_archive)

    watch = commands.add_parser(
        "watch", help="print a prefix's trajectory from an archive"
    )
    watch.add_argument("root", help="archive directory")
    watch.add_argument("prefix", help="CIDR prefix to watch")
    watch.add_argument("--start", type=float, default=None)
    watch.add_argument("--end", type=float, default=None)
    watch.set_defaults(handler=_cmd_watch)

    serve = commands.add_parser(
        "serve", help="run the ingress lookup service over TCP"
    )
    serve.add_argument("--records", default=None,
                       help="IPD record CSV to compile and serve")
    serve.add_argument("--archive", default=None,
                       help="snapshot archive; serves its latest snapshot "
                            "(unless --records is also given) and answers "
                            "point-in-time AT queries")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral, printed at startup)")
    serve.add_argument("--shards", type=int, default=4,
                       help="query-load counter grid (power of two)")
    serve.set_defaults(handler=_cmd_serve)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
