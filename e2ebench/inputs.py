"""Seeded input generation for the end-to-end benchmark.

Run as ``python3 e2ebench/inputs.py {replay,flood} --seed N --out DIR``
from the repository root.  It builds a trace from the library's public
generators (``default_scenario``, ``adversarial_scenario``), writes it
as the flow CSV that ``repro run`` reads, and writes ``meta.json`` with
the input's make-up plus everything the output checks need:

* ``replay``: the final mapping of the paper-literal ``ReferenceIPD``
  oracle on the same flows, and a seeded request mix for ``serve``.
* ``flood``: the generator's ground truth (flood window, victim
  ingresses, cardinality, the sketch width ``auto_sketch_width`` picks)
  and, per victim ingress, the benign sources that really use it.

The oracle is fed from the generator, not from the CSV: the program's
flow parser is one of the layers under test.  Timestamps are rounded to
the CSV's printed precision, which is all the program ever sees.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.core.admission import auto_sketch_width  # noqa: E402
from repro.core.iputil import IPV4  # noqa: E402
from repro.core.params import IPDParams  # noqa: E402
from repro.netflow.records import write_flows_csv  # noqa: E402
from repro.testkit.oracle import replay_reference  # noqa: E402
from repro.workloads import adversarial_scenario  # noqa: E402
from repro.workloads.scenarios import default_scenario  # noqa: E402

#: the ROADMAP reference trace: ``simulate --hours 2 --flows-per-minute 5000``
REPLAY_HOURS = 2.0
REPLAY_PEAK = 5000
#: ``--n-cidr-factor`` that ``repro simulate`` suggests for that volume
REPLAY_FACTOR = 0.357
#: the spoofed-source flood: 1 h, 800 benign flows per bucket at peak, x8
FLOOD_HOURS = 1.0
FLOOD_PEAK = 800
FLOOD_FACTOR = 0.01
#: serve request mix, drawn once per seed: one round of requests.  The
#: GET/MGET split and the miss share are synthetic choices: neither the
#: paper nor the trace says how a consumer of the mapping batches its
#: lookups, or how many of them fall outside every allocated block
SERVE_REQUESTS = 2000
SERVE_MGET_SHARE = 0.25
SERVE_MGET_SIZE = 16
SERVE_MISS_SHARE = 0.2
SERVE_MISS_POOL = 1024


def cli_params(factor: float) -> IPDParams:
    """The parameters ``repro run`` builds from its defaults (Table 1)."""
    return IPDParams(
        q=0.95,
        cidr_max_v4=28,
        n_cidr_factor_v4=factor,
        n_cidr_factor_v6=max(factor * 0.375, 1e-6),
        t=60.0,
        e=120.0,
    )


def _as_csv_sees(flows):
    for flow in flows:
        yield flow._replace(timestamp=float(f"{flow.timestamp:.3f}"))


def _record_row(record) -> dict:
    return {
        "range": str(record.range),
        "ingress": str(record.ingress),
        "s_ingress": record.s_ingress,
        "s_ipcount": record.s_ipcount,
        "candidates": {str(point): weight for point, weight in record.candidates},
        "classified": record.classified,
    }


def _write_trace(flows, out: Path) -> None:
    with open(out / "flows.csv", "w", newline="") as stream:
        write_flows_csv(flows, stream)


def _unallocated(rng: random.Random, blocks, count: int) -> list[int]:
    spans = sorted((b.value, b.value + b.num_addresses) for b in blocks)
    found: list[int] = []
    while len(found) < count:
        value = rng.getrandbits(32)
        if not any(lo <= value < hi for lo, hi in spans):
            found.append(value)
    return found


def _request_mix(seed: int, sources: list[int], misses: list[int]) -> list[list[int]]:
    """One round of requests, each a list of IPv4 values (1 = GET).

    Addresses come from the trace's own source column: every
    ``step``-th flow from a seeded phase, so sources come weighted by
    flows and in trace order, spread over the whole trace.  Misses from unallocated
    space go in at seeded positions.  Every seed gets the same make-up
    (the shares are exact counts), so seeds differ only in which
    addresses are asked and in what order."""
    rng = random.Random(seed * 7919 + 1)
    mgets = round(SERVE_REQUESTS * SERVE_MGET_SHARE)
    sizes = [SERVE_MGET_SIZE] * mgets + [1] * (SERVE_REQUESTS - mgets)
    rng.shuffle(sizes)
    total = sum(sizes)
    missing = round(total * SERVE_MISS_SHARE)
    step = len(sources) // (total - missing)
    trace = iter(sources[rng.randrange(step)::step])
    at_miss = set(rng.sample(range(total), missing))
    picks = [rng.choice(misses) if i in at_miss else next(trace) for i in range(total)]
    requests, start = [], 0
    for size in sizes:
        requests.append(picks[start:start + size])
        start += size
    return requests


def make_replay(seed: int, out: Path) -> dict:
    scenario = default_scenario(
        duration_hours=REPLAY_HOURS, flows_per_bucket_peak=REPLAY_PEAK, seed=seed
    )
    flows = list(scenario.generator().flows())
    _write_trace(flows, out)
    oracle = replay_reference(
        _as_csv_sees(flows), cli_params(REPLAY_FACTOR), include_unclassified=False
    )
    final = oracle.final_snapshot()
    sources = [flow.src_ip for flow in flows]
    rng = random.Random(seed)
    misses = _unallocated(rng, [b for __, b in scenario.plan.blocks()], SERVE_MISS_POOL)
    return {
        "kind": "replay",
        "seed": seed,
        "generator": f"default_scenario(duration_hours={REPLAY_HOURS}, "
                     f"flows_per_bucket_peak={REPLAY_PEAK}, seed={seed})",
        "rows": len(flows),
        "ipv6_rows": sum(1 for flow in flows if flow.version != IPV4),
        "distinct_sources": len(set(sources)),
        "n_cidr_factor": REPLAY_FACTOR,
        "cidr_max": 28,
        "q": 0.95,
        "oracle_flows": oracle.flows_processed,
        "oracle_final": [_record_row(record) for record in final],
        "requests": _request_mix(seed, sources, misses),
        "request_mix": {
            "per_round": SERVE_REQUESTS,
            "mget_share": SERVE_MGET_SHARE,
            "mget_size": SERVE_MGET_SIZE,
            "miss_share": SERVE_MISS_SHARE,
            "hit_stream": "every k-th flow's source from a seeded phase, in trace order",
            "miss_pool": len(misses),
        },
    }


def make_flood(seed: int, out: Path) -> dict:
    scenario = adversarial_scenario(
        "flood-uniform",
        duration_hours=FLOOD_HOURS,
        flows_per_bucket_peak=FLOOD_PEAK,
        seed=seed,
    )
    flows = list(scenario.generator().flows())
    _write_trace(flows, out)
    truth = scenario.ground_truth
    victims = {str(point) for point in truth.flood_ingresses}
    benign = list(scenario.baseline().generator().flows())
    victim_sources: dict[str, list[int]] = {name: [] for name in victims}
    for flow in benign:
        name = str(flow.ingress)
        if name in victims:
            victim_sources[name].append(flow.src_ip)
    benign_sources = {flow.src_ip for flow in benign}
    spoofed = {flow.src_ip for flow in flows} - benign_sources
    return {
        "kind": "flood",
        "seed": seed,
        "generator": f"adversarial_scenario('flood-uniform', duration_hours="
                     f"{FLOOD_HOURS}, flows_per_bucket_peak={FLOOD_PEAK}, "
                     f"seed={seed})",
        "rows": len(flows),
        "benign_rows": len(benign),
        "ipv6_rows": sum(1 for flow in flows if flow.version != IPV4),
        "distinct_sources": len(benign_sources | spoofed),
        "spoofed_sources": len(spoofed),
        "flood_window": list(truth.attack_window),
        "flood_ingresses": sorted(victims),
        "expected_sources": truth.expected_sources,
        "admission_width": auto_sketch_width(truth.expected_sources),
        "n_cidr_factor": FLOOD_FACTOR,
        "cidr_max": 28,
        "q": 0.95,
        "victim_benign_sources": {
            name: sorted(set(values)) for name, values in victim_sources.items()
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=["replay", "flood"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    make = make_replay if args.kind == "replay" else make_flood
    meta = make(args.seed, args.out)
    with open(args.out / "meta.json", "w") as stream:
        json.dump(meta, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main())
