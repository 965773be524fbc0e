"""End-to-end benchmark of ``repro run`` and ``repro serve``.

Usage, from the repository root::

    python3 e2ebench/run.py --workload replay --seed 1 --seconds 15 --trace 0
    python3 e2ebench/run.py --repeat 10 --seconds 15          # every workload

One run generates (or reuses) the seeded inputs of its workload, drives
the real command line in fresh processes for ``--seconds`` seconds,
checks every output against a computation made apart from the engine
(see ``checks.py``) and prints every metric by name and unit.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced processes and
reports the per-layer metrics (``traced.py``), the tracing overhead and
the wall time no named layer accounts for.  ``--repeat N`` runs N whole
runs per workload on seeds ``seed .. seed+N-1`` and prints the median
and quartiles of every end-to-end metric.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import ipaddress
import json
import mmap
import os
import selectors
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from traced import layer_metrics  # noqa: E402

PY = sys.executable
CACHE = BENCH / ".cache"
WORKLOADS = ("replay", "flood-lossy", "replay-mp", "serve")
#: fresh interpreters per run whose set-up time is measured (median)
SETUP_REPEATS = 3
#: closed-loop client connections for ``serve`` (one per core)
CONNECTIONS = 2
#: seconds the ``serve`` client waits for an answer before giving up
ANSWER_TIMEOUT = 30.0
#: calibrated ``serve`` windows per run (median); short windows follow
#: the contention phases more closely than one long one
SERVE_WINDOWS = 10
#: calibrator units per CPU second on an uncontended core of the 2-core
#: container the benchmark was built on: calibrated seconds are seconds
#: of that core (see calibrate.py)
REFERENCE_RATE = 2700.0
BATCH = ["--batch-size", "65536"]
MP = ["--shards", "4", "--executor", "mp", "--transport", "shm", "--workers", "2"]


def env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}


class Calibration:
    """One ``calibrate.py`` process per measured CPU, time-sliced with
    the measured processes, which inherit this process's CPU set."""

    def __init__(self, cpus: list[int], work: Path) -> None:
        self.saved = os.sched_getaffinity(0)
        self.cpus = cpus
        self.children: list[subprocess.Popen] = []
        self.counters: list[mmap.mmap] = []
        try:
            for cpu in cpus:
                path = work / f"calibration-{cpu}"
                path.write_bytes(bytes(16))
                with open(path, "r+b") as stream:
                    self.counters.append(mmap.mmap(stream.fileno(), 16))
                self.children.append(subprocess.Popen(
                    [PY, str(BENCH / "calibrate.py"), str(cpu), str(path)], cwd=ROOT))
            while any(units == 0 for units, __ in self.read()):
                time.sleep(0.01)
            os.sched_setaffinity(0, cpus)
        except BaseException:
            self.close()
            raise

    def read(self) -> list[tuple[int, int]]:
        return [struct.unpack("<qq", counter[:16]) for counter in self.counters]

    def rate(self, before: list[tuple[int, int]], cpu: "int | None" = None) -> float:
        """Calibrator units per calibrator CPU second since *before*,
        averaged over the CPUs, or of the calibrator on *cpu* alone."""
        rates = [
            (units - units0) / ((cpu_ns - cpu_ns0) / 1e9)
            for own, (units, cpu_ns), (units0, cpu_ns0) in zip(self.cpus, self.read(), before)
            if cpu_ns > cpu_ns0 and cpu in (None, own)
        ]
        return statistics.fmean(rates) if rates else 0.0

    def close(self) -> None:
        os.sched_setaffinity(0, self.saved)
        for child in self.children:
            child.kill()
            child.wait()
        for counter in self.counters:
            counter.close()


@dataclass
class Proc:
    """One finished child process."""

    wall: float
    status: int
    out: str
    maxrss_mb: float
    #: CPU seconds of the process and the children it reaped
    cpu: float
    #: calibrator rate over the process's lifetime (0 when uncalibrated)
    rate: float

    def calibrated(self, seconds: "float | None" = None) -> float:
        """*seconds* (CPU seconds of the whole tree, unless given) in
        reference-core seconds."""
        return (self.cpu if seconds is None else seconds) * self.rate / REFERENCE_RATE


@contextlib.contextmanager
def pinned(cpu: "int | None"):
    """Children spawned inside run on *cpu* alone (if given)."""
    saved = os.sched_getaffinity(0)
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def timed(argv: list[str], calibration: "Calibration | None" = None,
          cpu: "int | None" = None) -> Proc:
    """Run *argv* to completion; wall time from spawn to exit.  *cpu*
    pins the child there and calibrates with that CPU's calibrator."""
    before = calibration.read() if calibration else []
    started = time.perf_counter()
    with pinned(cpu):
        child = subprocess.Popen(argv, cwd=ROOT, env=env(), stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT)
    with child.stdout:
        out = child.stdout.read()
    __, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - started
    child.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, child.returncode, out.decode(errors="replace"),
                usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime,
                calibration.rate(before, cpu) if calibration else 0.0)


# ------------------------------------------------------------------ inputs


def _source_key() -> str:
    """Inputs depend on the generators and the oracle: key the cache on
    the program's sources and the input script."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")) + [BENCH / "inputs.py"]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_input(kind: str, seed: int) -> tuple[Path, dict]:
    """The cached input directory of *kind* for *seed*, made on first use."""
    directory = CACHE / f"{kind}-seed{seed}-{_source_key()}"
    if not (directory / "meta.json").exists():
        CACHE.mkdir(parents=True, exist_ok=True)
        scratch = Path(tempfile.mkdtemp(dir=CACHE, prefix=f".{kind}-"))
        made = timed([PY, str(BENCH / "inputs.py"), kind, "--seed", str(seed),
                      "--out", str(scratch)])
        if made.status != 0:
            shutil.rmtree(scratch, ignore_errors=True)
            raise RuntimeError(f"input generation failed:\n{made.out}")
        shutil.rmtree(directory, ignore_errors=True)
        scratch.rename(directory)
    with open(directory / "meta.json") as stream:
        return directory, json.load(stream)


def run_argv(workload: str, inputs: Path, meta: dict, out: Path, work: Path) -> list[str]:
    """The ``repro run`` arguments of a replay workload."""
    argv = ["run", str(inputs / "flows.csv"), str(out),
            "--n-cidr-factor", str(meta["n_cidr_factor"]), *BATCH]
    if workload == "flood-lossy":
        argv += ["--admission", "lossy", "--admission-width", str(meta["admission_width"])]
    if workload == "replay-mp":
        checkpoints = Path(tempfile.mkdtemp(dir=work, prefix="checkpoints-"))
        argv += [*MP, "--checkpoint-dir", str(checkpoints), "--checkpoint-every", "300"]
    return argv


def served_records(inputs: Path, meta: dict) -> bytes:
    """The replay output ``serve`` loads, made once per seed and checked
    against the oracle before it is kept."""
    path = inputs / "records.csv"
    if not path.exists():
        scratch = inputs / f".records-{os.getpid()}.csv"
        made = timed([PY, "-m", "repro", *run_argv("replay", inputs, meta, scratch, inputs)])
        rows = checks.parse_records(scratch.read_text()) if made.status == 0 else []
        problems = checks.check_oracle(rows, meta["oracle_final"]) + checks.check_structure(rows)
        if made.status != 0 or problems:
            scratch.unlink(missing_ok=True)
            raise RuntimeError(f"replay output for serve is wrong: {problems or made.out}")
        scratch.rename(path)
    return path.read_bytes()


# ------------------------------------------------------------------ results


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _check_replay(workload: str, proc: Proc, output: Path, meta: dict,
                  reference: "bytes | None", outcome: Outcome, self_test: bool) -> None:
    data = output.read_bytes()
    rows = checks.parse_records(data.decode())
    problems = checks.check_structure(rows)
    if workload == "flood-lossy":
        problems += checks.check_flood(rows, proc.out, meta)
    else:
        problems += checks.check_oracle(rows, meta["oracle_final"])
    if reference is not None:
        problems += checks.check_identical(data, reference)
    outcome.problems += problems
    if self_test and not problems:
        escaped = checks.damaged_outputs_caught(
            workload, rows=rows, oracle=meta.get("oracle_final"), meta=meta,
            stdout=proc.out, output=data, reference=reference)
        outcome.problems += [f"self-test: damage not caught: {d}" for d in escaped]


def _traced_layers(spans: dict, wall: float, overhead: float,
                   rtts: "list[float] | None" = None, get_rtts: "list[float] | None" = None) -> dict:
    """Per-layer metrics of one traced process, plus what only the
    driver sees: the tracing overhead and the serve client's round trips."""
    layers = layer_metrics(spans, wall)
    layers["trace.overhead_s"] = overhead
    layers["serving.server.rtt_us"] = _median(rtts or []) * 1e6
    layers["serving.server.rtt_p99_us"] = (
        statistics.quantiles(rtts, n=100)[98] * 1e6 if rtts else 0.0)
    layers["serving.server.protocol_us"] = (
        _median(get_rtts) * 1e6 - layers["serving.service.lookup_us"] if get_rtts else 0.0)
    return layers


def run_replay(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    inputs, meta = ensure_input("flood" if workload == "flood-lossy" else "replay", seed)
    reference = None
    if workload == "replay-mp":
        # the single engine on the same trace, in this same invocation
        single = work / "single.csv"
        proc = timed([PY, "-m", "repro", *run_argv("replay", inputs, meta, single, work)])
        if proc.status != 0:
            raise RuntimeError(f"single-engine reference run failed:\n{proc.out}")
        reference = single.read_bytes()
    outcome = Outcome()
    calibration = None
    cpus = sorted(os.sched_getaffinity(0))
    if not trace:
        # single-engine runs share one CPU with one calibrator; the mp
        # topology spreads over every CPU, with a calibrator on each
        calibration = Calibration(cpus if workload == "replay-mp" else cpus[:1], work)
    try:
        # the set-up probe's time is its own CPU time (forked workers do
        # not count), so it runs on one CPU with that CPU's calibrator
        setups: list[float] = []
        for __ in range(0 if trace else SETUP_REPEATS):
            probe = timed([PY, str(BENCH / "traced.py"), "setup", "--",
                           *run_argv(workload, inputs, meta, work / "setup.csv", work)],
                          calibration, cpus[0])
            if probe.status != 0:
                raise RuntimeError(f"set-up probe failed:\n{probe.out}")
            cpu = json.loads(probe.out.strip().splitlines()[-1])["setup_cpu_s"]
            setups.append(probe.calibrated(cpu))
        plain: list[Proc] = []
        traced: list[tuple[Proc, dict]] = []
        self_tested = False
        deadline = time.perf_counter() + seconds
        while True:
            for kind in ("plain", "traced") if trace else ("plain",):
                output = work / f"out-{outcome.attempted}.csv"
                argv = run_argv(workload, inputs, meta, output, work)
                spans = work / f"spans-{outcome.attempted}.json"
                if kind == "traced":
                    proc = timed([PY, str(BENCH / "traced.py"), "spans", str(spans), "--", *argv])
                else:
                    proc = timed([PY, "-m", "repro", *argv], calibration)
                outcome.attempted += 1
                if proc.status != 0:
                    outcome.failed += 1
                    continue
                _check_replay(workload, proc, output, meta, reference, outcome,
                              self_test=not self_tested)
                self_tested = True
                output.unlink()
                if kind == "traced":
                    with open(spans) as stream:
                        traced.append((proc, json.load(stream)))
                    spans.unlink()
                else:
                    plain.append(proc)
            if time.perf_counter() >= deadline:
                break
    finally:
        if calibration is not None:
            calibration.close()
    if not plain or (trace and not traced):
        return outcome
    if trace:
        traced.sort(key=lambda item: item[0].wall)
        proc, spans = traced[(len(traced) - 1) // 2]
        overhead = _median([p.wall for p, __ in traced]) - _median([p.wall for p in plain])
        outcome.metrics = _traced_layers(spans, proc.wall, overhead)
        return outcome
    # a single engine is one busy process: its CPU time is its elapsed
    # time less the calibrator's slices.  The mp tree also waits (tick
    # barrier, rings, starved workers), which only elapsed time shows.
    costs = [proc.calibrated(proc.wall if workload == "replay-mp" else None)
             for proc in plain]
    outcome.metrics = {
        "throughput_per_s": _median([meta["rows"] / cost for cost in costs]),
        "latency_ms": _median(costs) * 1e3,
        "setup_s": _median(setups),
        "peak_rss_mb": _median([proc.maxrss_mb for proc in plain]),
    }
    return outcome


# ------------------------------------------------------------------ serve


@dataclass
class Server:
    child: subprocess.Popen
    started: float
    host: str
    port: int
    #: CPU seconds the server had used when it printed its banner
    setup_cpu: float


def _cpu_seconds(pid: int) -> float:
    """CPU time of a live process's threads so far, from the scheduler's
    nanosecond counters in /proc."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        with open(task / "schedstat") as stream:
            total += int(stream.read().split()[0])
    return total / 1e9


def start_server(argv: list[str], cpu: "int | None" = None) -> Server:
    """Spawn ``repro serve`` (pinned to *cpu* if given); return at its banner."""
    started = time.perf_counter()
    with pinned(cpu):
        child = subprocess.Popen(argv, cwd=ROOT, env=env(), stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT)
    for line in child.stdout:
        if line.startswith(b"serving "):
            host, __, port = line.split()[-1].decode().rpartition(":")
            return Server(child, started, host, int(port), _cpu_seconds(child.pid))
    stop_server(child)
    raise RuntimeError("repro serve exited before its banner")


def stop_server(child: subprocess.Popen, grace: float = 15.0) -> tuple[float, float, int]:
    """SIGINT the server; returns (exit time, peak RSS in MB, status)."""
    child.send_signal(signal.SIGINT)
    deadline = time.perf_counter() + grace
    while True:
        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid:
            break
        if time.perf_counter() > deadline:
            child.kill()
            __, status, usage = os.wait4(child.pid, 0)
            break
        time.sleep(0.005)
    ended = time.perf_counter()
    child.returncode = os.waitstatus_to_exitcode(status)
    child.stdout.read()
    child.stdout.close()
    return ended, usage.ru_maxrss / 1024, child.returncode


@dataclass
class Load:
    latencies: list[float] = field(default_factory=list)
    get_latencies: list[float] = field(default_factory=list)
    answers: dict[int, set[bytes]] = field(default_factory=dict)
    requests: int = 0
    addresses: int = 0
    failed: int = 0
    elapsed: float = 0.0


def drive(server: Server, requests: list[list[int]], seconds: float = 0.0,
          rounds: int = 0) -> Load:
    """Closed loop over ``CONNECTIONS`` connections: each sends its next
    request only when the previous answer is complete.  The mix is sent
    in whole rounds, for *rounds* rounds or until *seconds* have passed."""
    encoded = [
        (f"GET {ipaddress.IPv4Address(r[0])}\n" if len(r) == 1 else
         "MGET " + " ".join(str(ipaddress.IPv4Address(a)) for a in r) + "\n").encode()
        for r in requests
    ]
    needed = [1 if len(r) == 1 else len(r) + 1 for r in requests]
    load = Load()
    selector = selectors.DefaultSelector()
    issued = 0
    total = len(requests) * rounds
    started = time.perf_counter()
    deadline = started + seconds

    def issue(sock: socket.socket, state: list) -> None:
        nonlocal issued
        index = issued % len(requests)
        issued += 1
        state[0], state[1] = index, time.perf_counter()
        state[2].clear()
        sock.sendall(encoded[index])

    sockets = []
    try:
        for __ in range(CONNECTIONS):
            sock = socket.create_connection((server.host, server.port))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sockets.append(sock)
            state = [0, 0.0, bytearray()]
            selector.register(sock, selectors.EVENT_READ, state)
            issue(sock, state)
        open_connections = len(sockets)
        while open_connections:
            ready = selector.select(timeout=ANSWER_TIMEOUT)
            if not ready:
                raise RuntimeError(f"no answer from repro serve in {ANSWER_TIMEOUT} s")
            for key, __ in ready:
                sock, state = key.fileobj, key.data
                chunk = sock.recv(1 << 16)
                index = state[0]
                if chunk:
                    state[2] += chunk
                    if state[2].count(b"\n") < needed[index]:
                        continue
                    done = time.perf_counter()
                    answer = bytes(state[2])
                    load.latencies.append(done - state[1])
                    if len(requests[index]) == 1:
                        load.get_latencies.append(done - state[1])
                    load.requests += 1
                    if answer.startswith(b"ERR") or b"\nERR" in answer:
                        load.failed += 1
                    else:
                        load.addresses += len(requests[index])
                        load.answers.setdefault(index, set()).add(answer)
                    finished = (issued >= total) if rounds else (done >= deadline)
                    if not (finished and issued % len(requests) == 0):
                        issue(sock, state)
                        continue
                else:
                    load.requests += 1
                    load.failed += 1
                selector.unregister(sock)
                open_connections -= 1
        load.elapsed = time.perf_counter() - started
    finally:
        for sock in sockets:
            sock.close()
        selector.close()
    return load


def run_serve(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    inputs, meta = ensure_input("replay", seed)
    served = served_records(inputs, meta)
    rows = checks.parse_records(served.decode())
    lpm = checks.LongestPrefixMatch(rows)
    requests = meta["requests"]
    serve = ["serve", "--records", str(inputs / "records.csv"), "--port", "0"]
    outcome = Outcome()

    def account(load: Load) -> None:
        outcome.attempted += load.requests
        outcome.failed += load.failed
        outcome.problems.extend(checks.check_serve(lpm, requests, load.answers))

    if trace:
        # the same number of rounds against an untraced and a traced server
        server = start_server([PY, "-m", "repro", *serve])
        try:
            plain = drive(server, requests, seconds=seconds / 2)
        finally:
            stop_server(server.child)
        account(plain)
        spans_path = work / "serve-spans.json"
        server = start_server([PY, str(BENCH / "traced.py"), "spans", str(spans_path),
                               "--", *serve])
        try:
            traced = drive(server, requests, rounds=plain.requests // len(requests))
        finally:
            ended, __, status = stop_server(server.child)
        account(traced)
        if status != 0 or not spans_path.exists():
            outcome.problems.append(f"traced server exited with {status} and no spans")
            return outcome
        with open(spans_path) as stream:
            outcome.metrics = _traced_layers(
                json.load(stream), ended - server.started, traced.elapsed - plain.elapsed,
                plain.latencies, traced.get_latencies)
        return outcome

    # the server shares the first CPU with a calibrator, the client the last
    cpus = sorted(os.sched_getaffinity(0))
    calibration = Calibration(cpus, work)
    server = None
    try:
        setups = []
        for __ in range(SETUP_REPEATS):
            if server is not None:
                stop_server(server.child)
            before = calibration.read()
            server = start_server([PY, "-m", "repro", *serve], cpus[0])
            setups.append(server.setup_cpu * calibration.rate(before, cpus[0]) / REFERENCE_RATE)
        os.sched_setaffinity(0, {cpus[-1]})
        windows: list[tuple[Load, float]] = []
        for __ in range(SERVE_WINDOWS):
            before = calibration.read()
            load = drive(server, requests, seconds=seconds / SERVE_WINDOWS)
            windows.append((load, calibration.rate(before) / REFERENCE_RATE))
    finally:
        rss = stop_server(server.child)[1] if server is not None else 0.0
        calibration.close()
    for load, __ in windows:
        account(load)
    escaped = checks.damaged_outputs_caught(
        "serve", rows=rows, lpm=lpm, requests=requests, answers=windows[0][0].answers)
    outcome.problems += [f"self-test: damage not caught: {d}" for d in escaped]
    # calibrated time: each window's elapsed time and median GET round
    # trip, scaled by that window's calibrator rate
    outcome.metrics = {
        "throughput_per_s": _median([load.addresses / (load.elapsed * scale)
                                     for load, scale in windows]),
        "latency_ms": _median([_median(load.get_latencies) * scale * 1e3
                               for load, scale in windows]),
        "setup_s": _median(setups),
        "peak_rss_mb": rss,
    }
    return outcome


# ------------------------------------------------------------------ driver


def declared(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as stream:
        spec = json.load(stream)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_once(args: argparse.Namespace) -> int:
    units = declared(bool(args.trace))
    CACHE.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=CACHE, prefix=".work-"))
    try:
        if args.workload == "serve":
            outcome = run_serve(args.seed, args.seconds, bool(args.trace), work)
        else:
            outcome = run_replay(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if outcome.metrics and set(outcome.metrics) != set(units):
        drift = sorted(set(outcome.metrics) ^ set(units))
        print(f"metrics differ from BENCHMARK.json: {drift}", file=sys.stderr)
        return 1
    for problem in outcome.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"workload {args.workload} seed {args.seed}: attempted {outcome.attempted}, "
          f"failed {outcome.failed}")
    for name, value in outcome.metrics.items():
        print(f"  {name:42s} {value:16.6f} {units[name]}")
    print(json.dumps({
        "correct": not outcome.problems and bool(outcome.metrics),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome.metrics.items()},
    }))
    return 0


def run_repeated(args: argparse.Namespace) -> int:
    """N whole runs per workload on consecutive seeds; median and
    quartiles of every end-to-end metric, spread = (q3 - q1) / median."""
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in range(args.seed, args.seed + args.repeat):
            proc = timed([PY, str(Path(__file__)), "--workload", workload,
                          "--seed", str(seed), "--seconds", str(args.seconds),
                          "--trace", "0"])
            result = json.loads(proc.out.strip().splitlines()[-1])
            if proc.status != 0 or not result["correct"]:
                print(proc.out)
                return 1
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {"failed_share": sorted(shares)}
        print(f"{workload}: failed share {sorted(shares)}")
        for name, series in values.items():
            q1, q2, q3 = statistics.quantiles(series, n=4)
            median = statistics.median(series)
            spread = (q3 - q1) / median
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3,
                                       "spread": spread}
            print(f"  {name:18s} median {median:14.4f}  q1 {q1:14.4f}  "
                  f"q3 {q3:14.4f}  spread {spread:7.2%}")
    print(json.dumps(summary))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="repeated-run mode: N runs per workload")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.repeat:
        return run_repeated(args)
    if args.workload == "all":
        parser.error("a single run needs --workload")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
